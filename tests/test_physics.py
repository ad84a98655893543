"""Planckian reductions, group opacities, EOS, and the material energy update.

Frozen expected values come from independent oracles (scipy adaptive
quadrature and brute-force composite rules in nu-space); a few tests also
re-run the adaptive oracle live to pin the implementation at 1e-10.
"""

from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from ddvef import physics
from ddvef.errors import ConfigError, ConvergenceError
from ddvef.grid import _MAX_EDGE_X, T_FLOOR, FrequencyGrid, build_frequency_grid
from ddvef.physics import (
    DEFAULT_CONSTANTS,
    PLANCK_INTEGRAL_TOTAL,
    ConstantOpacity,
    InverseCubeMaterial,
    MaterialEOS,
    benchmark_cv,
    group_planck,
    planck_integral,
    spectral_opacity,
    update_temperature,
)

FGRID = build_frequency_grid()
MATERIAL = InverseCubeMaterial(FGRID)


def opacity(T):
    """(kappa_g, dkappa_g/dT) of the benchmark material from its emission terms."""
    return MATERIAL.emission_terms(T, DEFAULT_CONSTANTS)[:2]


def _planck_x(x):
    return x**3 / np.expm1(x)


class TestPlanckIntegral:
    # Frozen from scipy.integrate.quad (epsrel 1e-13).
    FROZEN = {
        0.05: 4.089062484499727e-05,
        0.5: 3.437345704067640e-02,
        0.7075: 8.966531425394772e-02,
        1.0: 2.248051880259382e-01,
        2.123: 1.333433970290629e+00,
        5.129: 5.006425490687997e+00,
        13.09: 6.488069403401441e+00,
    }

    def test_frozen_values(self):
        for z, expect in self.FROZEN.items():
            assert planck_integral(z) == pytest.approx(expect, rel=1e-12)

    def test_endpoints(self):
        assert planck_integral(0.0) == 0.0
        assert planck_integral(50.0) == pytest.approx(PLANCK_INTEGRAL_TOTAL, rel=1e-15)
        assert planck_integral(1.0e10) == pytest.approx(np.pi**4 / 15.0, rel=1e-15)

    def test_branch_seam_consistent(self):
        # The power/tail series switch at z = 1; pin both sides of the seam
        # to the adaptive oracle independently.
        for z in (0.999, 1.0, 1.000001, 1.001):
            oracle, _ = quad(_planck_x, 0.0, z, epsabs=1e-15, epsrel=1e-12)
            assert planck_integral(z) == pytest.approx(oracle, rel=5e-12)

    @settings(max_examples=30)
    @given(st.floats(1e-3, 40.0))
    def test_matches_adaptive_quadrature(self, z):
        oracle, _ = quad(_planck_x, 0.0, z, epsabs=1e-15, epsrel=1e-12)
        assert planck_integral(z) == pytest.approx(oracle, rel=1e-10)

    def test_vectorized_and_monotone(self):
        z = np.linspace(0.0, 30.0, 301)
        phi = planck_integral(z)
        assert phi.shape == z.shape
        assert np.all(np.diff(phi) > 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            planck_integral(-0.1)

    def test_infinity_is_the_total(self):
        # Phi(inf) = pi^4/15, and far out on the tail Phi(z) rounds to it.
        assert planck_integral(np.inf) == PLANCK_INTEGRAL_TOTAL
        np.testing.assert_array_equal(planck_integral(np.array([1.0e200, np.inf])), PLANCK_INTEGRAL_TOTAL)
        assert planck_integral(np.array([0.5, np.inf]))[0] == planck_integral(0.5)

    @pytest.mark.parametrize("z", [np.nan, np.array([0.5, np.nan])])
    def test_nan_rejected(self, z):
        with pytest.raises(ValueError, match="nan"):
            planck_integral(z)

    @pytest.mark.parametrize("z", [0.25, 0.5, 0.75, 1.0])
    def test_power_series_is_correctly_rounded(self, z):
        # Reference: the series summed exactly in rationals, with Bernoulli
        # numbers from the recurrence sum_{j<=m} C(m+1, j) B_j = 0 and terms
        # through z^43, far below the last double at z <= 1.
        bern = [Fraction(1)]
        for m in range(1, 41):
            bern.append(-sum(comb(m + 1, j) * bern[j] for j in range(m)) / (m + 1))
        zq = Fraction(z)
        exact = zq**3 / 3 - zq**4 / 8 + sum(bern[2 * k] * zq ** (2 * k + 3) / ((2 * k + 3) * factorial(2 * k)) for k in range(1, 21))
        got = physics._power_series(np.array([z]))[0]
        assert abs(got - float(exact)) <= 3e-16 * float(exact)


class TestSpectralOpacity:
    def test_unit_frequency(self):
        # 27/1 * (1 - e^{-1})
        assert spectral_opacity(1.0, 1.0) == pytest.approx(17.06725508837106, rel=1e-12)

    def test_cube_cancellation(self):
        # nu = 3: 27/27 * (1 - e^{-3})
        assert spectral_opacity(3.0, 1.0) == pytest.approx(0.9502129316321360, rel=1e-12)

    def test_cold_saturation(self):
        # nu >> T: the correction factor saturates at 1.
        assert spectral_opacity(2.0, 1e-4) == pytest.approx(27.0 / 8.0, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            spectral_opacity(0.0, 1.0)
        with pytest.raises(ValueError):
            spectral_opacity(1.0, -1.0)

    @pytest.mark.parametrize("nu, T", [(1.0, np.nan), (1.0, np.inf), (1.0, np.array([0.5, np.nan])), (np.nan, 1.0), (np.array([1.0, np.nan]), 1.0)])
    def test_non_finite_temperature_or_nan_frequency_rejected(self, nu, T):
        # nan slips past a T <= 0 test and gives nan; T = inf gave 0.
        with pytest.raises(ValueError, match="finite T"):
            spectral_opacity(nu, T)

    def test_infinite_frequency_is_transparent(self):
        assert spectral_opacity(np.inf, 1.0) == 0.0


class TestGroupPlanck:
    def test_group1_frozen(self):
        # a c T^4/(4 pi) * Phi(0.7075)/Phi_tot, oracle by adaptive quadrature.
        B = group_planck(1.0, FGRID)
        assert B[0] == pytest.approx(4.519404289418489e-04, rel=1e-11)

    def test_group5_frozen(self):
        B = group_planck(1.0, FGRID)
        assert B[4] == pytest.approx(4.952206721846489e-03, rel=1e-11)

    def test_group2_halfkev_frozen(self):
        B = group_planck(0.5, FGRID)
        assert B[1] == pytest.approx(5.592659550446143e-04, rel=1e-11)

    @pytest.mark.parametrize("T", [1e-3, 0.1, 0.5, 1.0, 2.0])
    def test_emission_identity(self, T):
        # sum_g 4 pi B_g = a c T^4 to 1e-9 whenever the last edge covers the
        # spectrum (here 1e7 KeV does, overwhelmingly).
        B = group_planck(T, FGRID)
        total = 4.0 * np.pi * B.sum()
        expect = DEFAULT_CONSTANTS.a_rad * DEFAULT_CONSTANTS.c * T**4
        assert total == pytest.approx(expect, rel=1e-9)
        assert np.all(B >= 0.0)

    def test_vectorized_shape(self):
        T = np.full((3, 4), 0.7)
        B = group_planck(T, FGRID)
        assert B.shape == (17, 3, 4)
        np.testing.assert_allclose(B, np.broadcast_to(B[:, :1, :1], B.shape), rtol=1e-14)

    def test_derivative_matches_finite_difference(self):
        for T in (0.05, 0.3, 1.0, 1.9):
            _, dB = MATERIAL.emission_terms(T, DEFAULT_CONSTANTS)[2:]
            h = 1e-6 * T
            fd = (group_planck(T + h, FGRID) - group_planck(T - h, FGRID)) / (2 * h)
            np.testing.assert_allclose(dB, fd, rtol=2e-6, atol=1e-300)
            assert np.all(dB >= 0.0)

    def test_floor_clamps(self):
        np.testing.assert_array_equal(group_planck(1e-9, FGRID), group_planck(1e-6, FGRID))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            group_planck(0.0, FGRID)
        with pytest.raises(ValueError):
            group_planck(np.array([1.0, -2.0]), FGRID)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rejected(self, bad):
        # nan slips past a T <= 0 test and inf overflows to nan; both must raise.
        materials = (MATERIAL, ConstantOpacity(FGRID, np.ones(FGRID.n_groups)))
        for T in (bad, np.array([[1.0, bad], [0.5, 0.2]])):
            with pytest.raises(ValueError, match="finite"):
                group_planck(T, FGRID)
            for material in materials:
                with pytest.raises(ValueError, match="finite"):
                    material.emission_terms(T, DEFAULT_CONSTANTS)


class TestGroupOpacity:
    # Frozen from adaptive quadrature of both integrals in nu-space.
    ADAPTIVE = {
        (0, 1.0): 1.527054166045705e+02,
        (1, 0.5): 2.237607792187154e+01,
        (4, 1.0): 8.228002745014404e-01,
        (16, 1.0): 9.501911447984446e-03,
        (16, 0.5): 1.071278176298664e-02,
    }

    def test_frozen_adaptive_values(self):
        for (g, T), expect in self.ADAPTIVE.items():
            kappa = opacity(T)[0]
            assert kappa[g] == pytest.approx(expect, rel=1e-10), (g, T)

    def test_group2_brute_force_composite(self):
        # 1e4-point composite midpoint rule in nu-space, frozen.
        kappa = opacity(1.0)[0]
        assert kappa[1] == pytest.approx(15.13232299837591, rel=1e-9)

    def test_cold_concentration(self):
        # At T = 1e-3 the Planck weight collapses onto the lower edge of
        # group 2; oracle by a scaled 4e5-point rule.
        kappa = opacity(1e-3)[0]
        assert kappa[1] == pytest.approx(75.91744831271133, rel=1e-8)
        # and stays within 1% of the naive edge value 27/nu_lo^3
        assert kappa[1] == pytest.approx(27.0 / 0.7075**3, rel=1e-2)

    def test_live_adaptive_agreement(self):
        # Re-runs the oracle here so the 1e-10 agreement is pinned even if
        # the frozen table ever rots.
        for g, T in [(0, 1.0), (2, 0.7), (9, 1.3)]:
            a, b = FGRID.bounds[g], FGRID.bounds[g + 1]
            bb = min(b, a + 250 * T)
            num, _ = quad(lambda v: 27.0 / v**3 * (1 - np.exp(-v / T)) * _planck_x(v / T), max(a, 1e-12), bb, epsabs=0, epsrel=1e-12, limit=300)
            den, _ = quad(lambda v: _planck_x(v / T), max(a, 1e-12), bb, epsabs=0, epsrel=1e-12, limit=300)
            assert opacity(T)[0][g] == pytest.approx(num / den, rel=1e-10)

    @pytest.mark.parametrize("T", [1e-6, 1e-3, 0.03, 0.5, 1.0, 2.0])
    def test_finite_positive_everywhere(self, T):
        kappa = opacity(T)[0]
        assert kappa.shape == (17,)
        assert np.all(np.isfinite(kappa))
        assert np.all(kappa > 0.0)

    def test_derivative_matches_finite_difference(self):
        for T in (0.05, 0.3, 1.0):
            _, dk = opacity(T)
            h = 1e-6 * T
            fd = (opacity(T + h)[0] - opacity(T - h)[0]) / (2 * h)
            np.testing.assert_allclose(dk, fd, rtol=5e-6)

    def test_vectorized(self):
        T = np.array([[0.5, 1.0], [1.5, 2.0]])
        kappa = opacity(T)[0]
        assert kappa.shape == (17, 2, 2)
        assert kappa[1, 0, 0] == pytest.approx(2.237607792187154e+01, rel=1e-10)


class TestEdgeEvaluation:
    """Scaled high groups and the per-edge series against the adaptive oracle."""

    # Temperatures that put the 0.7075 KeV edge just either side of x = 1
    # (the low/high seam) and of the tail-series term-count steps at x = 40
    # and x = 20, plus a cold field temperature.
    TEMPERATURES = [0.7075 / x for x in (0.999, 1.001, 19.99, 20.01, 39.99, 40.01)] + [0.02]

    @staticmethod
    def _oracle(g, T):
        """(B_g, kappa_g) by adaptive quadrature in x, the Planck weight scaled by e^{x0}."""
        x0, x1 = FGRID.bounds[g] / T, FGRID.bounds[g + 1] / T
        hi = min(x1, x0 + 250.0)
        w = lambda x: x**3 * np.exp(x0 - x) / -np.expm1(-x)  # noqa: E731
        den, _ = quad(w, x0, hi, epsabs=0, epsrel=1e-13, limit=300)
        num, _ = quad(lambda x: 27.0 / (x * T) ** 3 * -np.expm1(-x) * w(x), x0, hi, epsabs=0, epsrel=1e-13, limit=300)
        c = DEFAULT_CONSTANTS
        B = c.a_rad * c.c * T**4 / (4.0 * np.pi * PLANCK_INTEGRAL_TOTAL) * np.exp(-x0) * den
        return B, num / den

    @pytest.mark.parametrize("T", TEMPERATURES)
    def test_high_groups_match_adaptive_quadrature(self, T):
        B = group_planck(T, FGRID)
        kappa = opacity(T)[0]
        high = [g for g in range(FGRID.n_groups) if FGRID.bounds[g] / T > 1.0]
        assert high
        for g in high:
            B_oracle, kappa_oracle = self._oracle(g, T)
            assert kappa[g] == pytest.approx(kappa_oracle, rel=1e-10), g
            if FGRID.bounds[g] / T < 600.0:  # beyond, B_g nears the subnormal range
                assert B[g] == pytest.approx(B_oracle, rel=1e-10), g

    # The power series runs only on edges with 0 < x <= 1, and the first
    # finite edge is 0.7075 KeV. Below that T no edge takes the series (the
    # bench's regime); at exactly that T edge 1 sits at x = 1.0 on the series
    # side of the seam; a mixed field takes it in some cells only.
    FIELDS = {
        "wide": np.geomspace(1e-3, 20.0, 36).reshape(6, 6)[:, ::-1],
        "cold": np.geomspace(1e-3, 0.7, 12).reshape(3, 4),
        "seam": np.full((2, 3), 0.7075),
        "mixed": np.array([[0.05, 0.7075, 0.3], [1.2, 0.7, 0.7075 / 0.999]]),
    }

    def test_field_matches_per_cell_evaluation(self):
        # Catches edge or cell index mix-ups in the vectorised edge pass.
        series_cells = {name: int((FGRID.bounds[1] / T <= 1.0).sum()) for name, T in self.FIELDS.items()}
        assert series_cells == {"wide": 12, "cold": 0, "seam": 6, "mixed": 3}
        assert FGRID.bounds[1] / 0.7075 == 1.0
        c = DEFAULT_CONSTANTS
        for T in self.FIELDS.values():
            field = MATERIAL.emission_terms(T, DEFAULT_CONSTANTS)
            for i, j in np.ndindex(T.shape):
                cell = MATERIAL.emission_terms(T[i, j], DEFAULT_CONSTANTS)
                for got, expect in zip(field, cell):
                    np.testing.assert_allclose(got[:, i, j], expect, rtol=1e-14, atol=0.0)
            # Group 1 spans [0, x1]: B_1 = a c T^4 Phi(x1) / (4 pi Phi(inf)) on either side of the seam.
            B1 = c.a_rad * c.c * T**4 / (4.0 * np.pi) * planck_integral(FGRID.bounds[1] / T) / PLANCK_INTEGRAL_TOTAL
            np.testing.assert_allclose(field[2][0], B1, rtol=1e-14, atol=0.0)
            # Planck's reduction reads nothing the opacity computes: a constant
            # opacity gets the very same B and dB/dT.
            constant = ConstantOpacity(FGRID, np.ones(FGRID.n_groups)).emission_terms(T, DEFAULT_CONSTANTS)
            for got, expect in zip(constant[2:], field[2:]):
                np.testing.assert_array_equal(got, expect)
            np.testing.assert_array_equal(constant[2], group_planck(T, FGRID))


    @settings(max_examples=60)
    @given(st.data())
    def test_random_field_matches_per_cell_evaluation(self, data):
        # Log-uniform temperatures over the whole range the models reach,
        # with some cells placed exactly on a finite edge (x = 1, the seam
        # between the power series and the tail).
        G = data.draw(st.sampled_from([1, 2, 17]), label="G")
        fgrid = build_frequency_grid({1: (1.0e7,), 2: (3.0, 1.0e7), 17: FGRID.bounds[1:]}[G])
        ny, nx = data.draw(st.integers(1, 5), label="ny"), data.draw(st.integers(1, 5), label="nx")
        cell = st.one_of(st.floats(-6.0, 4.0).map(lambda e: 10.0**e), st.sampled_from(list(fgrid.bounds[1:])))
        T = np.array(data.draw(st.lists(cell, min_size=ny * nx, max_size=ny * nx), label="T")).reshape(ny, nx)
        if data.draw(st.booleans(), label="constant"):
            material = ConstantOpacity(fgrid, np.geomspace(1.0e-2, 1.0e3, G))
        else:
            material = InverseCubeMaterial(fgrid)
        field = material.emission_terms(T, DEFAULT_CONSTANTS)
        for i, j in np.ndindex(T.shape):
            for got, expect in zip(field, material.emission_terms(T[i, j], DEFAULT_CONSTANTS)):
                np.testing.assert_allclose(got[:, i, j], expect, rtol=1e-14, atol=0.0)

    def test_last_edge_limit_is_where_x4_overflows(self):
        # Just below the limit every group value stays finite down to the
        # clamped floor temperature; just above it build_frequency_grid
        # refuses the grid, and so does FrequencyGrid built directly on the
        # same edges, which would overflow x^4 at T_FLOOR into nan.
        T = np.array([1e-9, T_FLOOR, 1.0])
        below, above = (f * _MAX_EDGE_X * T_FLOOR for f in (0.999, 1.001))
        grid = build_frequency_grid((1.0, below))
        for values in InverseCubeMaterial(grid).emission_terms(T, DEFAULT_CONSTANTS):
            assert np.all(np.isfinite(values))
        with pytest.raises(ConfigError, match="overflows"):
            build_frequency_grid((1.0, above))
        for direct in (above, 1.2e71):
            with pytest.raises(ConfigError, match="overflows"):
                FrequencyGrid(np.array([0.0, 1.0, direct]))
        # The bounds (1, 1e72) KeV, found to give nan, are refused.
        with pytest.raises(ConfigError, match="overflows"):
            build_frequency_grid((1.0, 1.0e72))

    def test_masked_exponential_is_exp_bit_for_bit(self):
        # _exp_neg skips e^{-y} past 746, where it is exactly zero: a dense
        # grid over [740, 750], the ulps around the cutoff and far out.
        cut = physics._EXP_ZERO
        near = np.nextafter(cut, np.array([-np.inf, np.inf]))
        y = np.concatenate([np.linspace(740.0, 750.0, 100_001), [cut], near, np.geomspace(1.0e3, 1.0e300, 10_001)])
        got = physics._exp_neg(y)
        assert np.array_equal(got, np.exp(-y)) and not np.signbit(got).any()


class TestConstantOpacity:
    def test_broadcast_and_zero_derivative(self):
        fg = build_frequency_grid([1.0, 1e7])
        model = ConstantOpacity(fg, np.array([0.5, 2.0]))
        k, dk, B, _ = model.emission_terms(np.ones((3, 3)), DEFAULT_CONSTANTS)
        assert k.shape == (2, 3, 3)
        assert np.all(k[0] == 0.5) and np.all(k[1] == 2.0)
        assert np.all(dk == 0.0)
        np.testing.assert_array_equal(B, group_planck(np.ones((3, 3)), fg))

    @pytest.mark.parametrize(
        "values",
        [
            np.array([1.0, -0.5]), np.array([1.0, np.nan]), np.array([np.inf, 1.0]), np.ones(3), np.ones((2, 1)),
            np.ones(2, bool), [True, False],
        ],
    )
    def test_bad_opacities_rejected(self, values):
        with pytest.raises(ValueError, match="non-negative"):
            ConstantOpacity(build_frequency_grid([1.0, 1e7]), values)


class TestInverseCubeMaterial:
    @pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf, True])
    def test_bad_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            InverseCubeMaterial(FGRID, bad)


class TestMaterialEOS:
    def test_benchmark_cv(self):
        # 0.5917 * 0.01372 * 1^3
        assert benchmark_cv(1.0) == pytest.approx(8.118124e-3, rel=1e-10)

    def test_domain_errors(self):
        for bad in (0.0, True):
            with pytest.raises(ValueError):
                MaterialEOS(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_heat_capacity_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MaterialEOS(bad)


class TestUpdateTemperature:
    EOS = MaterialEOS(benchmark_cv(1.0))

    def test_equilibrium_fixed_point(self):
        # E = 4 pi B(T)/c exactly: the heating term vanishes and T holds.
        T = np.full((4, 4), 0.8)
        E = 4.0 * np.pi * group_planck(T, FGRID) / DEFAULT_CONSTANTS.c
        T_new = update_temperature(T, E, 2e-2, MATERIAL, self.EOS)
        np.testing.assert_allclose(T_new, T, rtol=1e-12)

    def test_residual_after_update(self):
        rng = np.random.default_rng(7)
        T_prev = 0.2 + 0.6 * rng.random((5, 5))
        E = 4.0 * np.pi * group_planck(T_prev * 1.3, FGRID) / DEFAULT_CONSTANTS.c
        dt = 2e-2
        T = update_temperature(T_prev, E, dt, MATERIAL, self.EOS)
        kappa = opacity(T)[0]
        B = group_planck(T, FGRID)
        resid = self.EOS.cv * (T - T_prev) / dt - np.sum(kappa * (DEFAULT_CONSTANTS.c * E - 4 * np.pi * B), axis=0)
        scale = self.EOS.cv * np.abs(T) / dt
        assert np.max(np.abs(resid) / scale) < 1e-8

    def test_single_group_against_brentq(self):
        # Scalar oracle: root-find the same implicit equation independently.
        fg = build_frequency_grid([1.0e7])
        model = ConstantOpacity(fg, np.array([0.7]))
        eos = MaterialEOS(0.01)
        c, dt = DEFAULT_CONSTANTS.c, 0.05
        T_prev, E = 0.4, np.array([[[2.0e-3]]])[:, 0]  # (G=1, 1, 1)
        T_prev_arr = np.full((1, 1), T_prev)
        E_arr = np.full((1, 1, 1), 2.0e-3)

        def f(T):
            B = group_planck(np.array(T), fg)[0]
            return eos.cv * (T - T_prev) / dt - 0.7 * (c * 2.0e-3 - 4 * np.pi * B)

        oracle = brentq(f, 1e-4, 5.0, xtol=1e-14, rtol=1e-14)
        T_new = update_temperature(T_prev_arr, E_arr, dt, model, eos)
        assert T_new[0, 0] == pytest.approx(oracle, rel=1e-10)

    def test_cold_heating_stays_positive(self):
        # Cold cell flooded with drive-level radiation: a hard Newton case.
        T_prev = np.full((2, 2), 1e-3)
        E = 4.0 * np.pi * group_planck(np.full((2, 2), 1.0), FGRID) / DEFAULT_CONSTANTS.c
        T = update_temperature(T_prev, E, 2e-2, MATERIAL, self.EOS)
        assert np.all(T > 0.0)
        assert np.all(np.isfinite(T))
        assert np.all(T > 1e-3)  # it heated

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(physics, "NEWTON_MAX_ITER", 2)
        T_prev = np.full((2, 2), 1e-3)
        E = 4.0 * np.pi * group_planck(np.full((2, 2), 1.0), FGRID) / DEFAULT_CONSTANTS.c
        with pytest.raises(ConvergenceError):
            update_temperature(T_prev, E, 2e-2, MATERIAL, self.EOS)

    def test_terms_at_the_start_are_reused(self):
        # Terms evaluated at T_start replace the first Newton evaluation:
        # the same iterates, one emission_terms call fewer.
        class Counting:
            def __init__(self, material):
                self.material, self.calls = material, 0

            def emission_terms(self, T, constants):
                self.calls += 1
                return self.material.emission_terms(T, constants)

        rng = np.random.default_rng(3)
        T_prev = 0.2 + 0.6 * rng.random((4, 4))
        E = 4.0 * np.pi * group_planck(T_prev * 1.3, FGRID) / DEFAULT_CONSTANTS.c
        T_start = 1.1 * T_prev
        fresh, reused = Counting(MATERIAL), Counting(MATERIAL)
        T_fresh = update_temperature(T_prev, E, 2e-2, fresh, self.EOS, T_start=T_start)
        terms = MATERIAL.emission_terms(T_start, DEFAULT_CONSTANTS)
        T_reused = update_temperature(T_prev, E, 2e-2, reused, self.EOS, T_start=T_start, terms=terms)
        np.testing.assert_array_equal(T_reused, T_fresh)
        assert reused.calls == fresh.calls - 1 > 0
