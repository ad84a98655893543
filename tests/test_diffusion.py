"""Tests for the P1, P1/3, and flux-limited diffusion moment models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddvef.diffusion import (
    BoundaryCondition,
    DiffusionProblem,
    diffusion_step,
    flux_limit_ratio,
    initial_moment_state,
    larsen_coefficient,
    run_diffusion_model,
    standard_boundaries,
)
from ddvef.errors import ConfigError
from ddvef.grid import SpatialMesh, build_frequency_grid
from ddvef.physics import (
    DEFAULT_CONSTANTS,
    ConstantOpacity,
    InverseCubeMaterial,
    MaterialEOS,
    benchmark_cv,
    group_planck,
)

C = DEFAULT_CONSTANTS.c
MODELS = ("p1", "p13", "fld")


# ---------------------------------------------------------------------------
# limited diffusion coefficient
# ---------------------------------------------------------------------------


class TestLarsenCoefficient:
    def test_flat_field_recovers_standard_coefficient(self):
        assert larsen_coefficient(2.0, 1.0, 0.0) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_transparent_limit_caps_flux(self):
        # kappa = 0: D = E/|grad E|, so |F| = c D |grad E| = c E exactly.
        D = larsen_coefficient(0.0, 3.0, 6.0)
        assert D == pytest.approx(0.5, rel=1e-14)

    def test_reference_value(self):
        assert larsen_coefficient(1.0, 1.0, 4.0) == pytest.approx(0.2, rel=1e-12)

    @given(
        kappa=st.floats(1e-6, 1e4),
        E=st.floats(1e-12, 1e3),
        grad=st.floats(0.0, 1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_reciprocal_square_identity(self, kappa, E, grad):
        D = larsen_coefficient(kappa, E, grad)
        assert D ** -2 == pytest.approx((3.0 * kappa) ** 2 + (grad / E) ** 2, rel=1e-12)
        assert 0.0 < D <= 1.0 / (3.0 * kappa) * (1 + 1e-14)

    def test_vanishing_field_stays_finite(self):
        assert np.isfinite(larsen_coefficient(0.0, 0.0, 0.0))
        assert np.isfinite(larsen_coefficient(0.0, 0.0, 1.0))

    def test_vectorized(self):
        D = larsen_coefficient(np.array([0.0, 1.0]), np.array([3.0, 1.0]), np.array([6.0, 4.0]))
        np.testing.assert_allclose(D, [0.5, 0.2], rtol=1e-12)


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------


class TestBoundaries:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            BoundaryCondition("periodic")

    def test_drive_needs_temperature(self):
        with pytest.raises(ConfigError):
            BoundaryCondition("drive")
        with pytest.raises(ConfigError):
            BoundaryCondition("drive", -1.0)

    def test_standard_layout(self):
        bcs = standard_boundaries(1.0)
        assert bcs["left"].kind == "drive"
        assert all(bcs[s].kind == "vacuum" for s in ("right", "bottom", "top"))

    def test_missing_side_rejected(self):
        fgrid = build_frequency_grid((1.0,))
        with pytest.raises(ConfigError):
            DiffusionProblem(
                SpatialMesh(2, 2, 1.0, 1.0), fgrid, ConstantOpacity(fgrid, np.ones(1)),
                MaterialEOS(1.0), {"left": BoundaryCondition("vacuum")},
            )

    def test_inflow_current_is_planckian(self):
        fgrid = build_frequency_grid()
        prob = DiffusionProblem(
            SpatialMesh(2, 2, 1.0, 1.0), fgrid, InverseCubeMaterial(fgrid),
            MaterialEOS(1.0), standard_boundaries(1.0),
        )
        np.testing.assert_allclose(prob.inflow_current("left"), np.pi * group_planck(1.0, fgrid), rtol=1e-14)
        assert np.all(prob.inflow_current("right") == 0.0)


def benchmark_problem(nx=5, ny=4, drive_sides=("left",)):
    fgrid = build_frequency_grid()
    return DiffusionProblem(
        SpatialMesh(nx, ny, 6.0, 6.0), fgrid, InverseCubeMaterial(fgrid),
        MaterialEOS(benchmark_cv(1.0)), standard_boundaries(1.0, drive_sides),
    )


class TestInitialState:
    def test_equilibrium_moments(self):
        prob = benchmark_problem()
        s = initial_moment_state(prob, 0.7)
        B = group_planck(0.7, prob.fgrid)
        np.testing.assert_allclose(
            s.E, np.broadcast_to((4.0 * np.pi / C) * B[:, None, None], s.E.shape), rtol=1e-14
        )
        assert np.all(s.Fx == 0.0)
        assert np.all(s.Fy == 0.0)
        assert s.t == 0.0


# ---------------------------------------------------------------------------
# stepping: fixed points, conservation, limiting
# ---------------------------------------------------------------------------


class TestStepping:
    @pytest.mark.parametrize("model", MODELS)
    def test_equilibrium_is_stationary(self, model):
        prob = benchmark_problem(drive_sides=("left", "right", "bottom", "top"))
        s = initial_moment_state(prob, 1.0)
        E0 = s.E.copy()
        for _ in range(10):
            s, _ = diffusion_step(prob, s, 0.1, model)
        np.testing.assert_allclose(s.T, 1.0, rtol=1e-10)
        np.testing.assert_allclose(s.E, E0, rtol=1e-10)
        assert np.abs(s.Fx).max() < 1e-10 * C * E0.max()

    @pytest.mark.parametrize("model", MODELS)
    def test_conservation_every_step(self, model):
        prob = benchmark_problem()
        s = initial_moment_state(prob, 1e-3)
        for _ in range(4):
            s, diag = diffusion_step(prob, s, 0.1, model)
            assert diag.balance_residual < 1e-8

    @pytest.mark.parametrize("model", MODELS)
    def test_heating_is_monotone_and_positive(self, model):
        prob = benchmark_problem()
        s = initial_moment_state(prob, 1e-3)
        prev = s.T.copy()
        for _ in range(4):
            s, _ = diffusion_step(prob, s, 0.1, model)
            assert np.all(s.E >= 0.0)
            assert np.all(s.T >= prev - 1e-12)
            prev = s.T.copy()
        assert s.T[:, 0].min() > s.T[:, -1].max()

    def test_fld_obeys_flux_limit(self):
        prob = benchmark_problem(nx=8, ny=8)
        s = initial_moment_state(prob, 1e-3)
        for _ in range(5):
            s, _ = diffusion_step(prob, s, 0.1, "fld")
            assert flux_limit_ratio(s) <= 1.0 + 1e-12

    def test_p1_family_can_exceed_limit_where_fld_cannot(self):
        # The hyperbolic pair has no limiter; on the cold front it
        # overshoots |F| = cE while FLD stays bounded by construction.
        prob = benchmark_problem(nx=8, ny=8)
        sp1 = initial_moment_state(prob, 1e-3)
        for _ in range(5):
            sp1, _ = diffusion_step(prob, sp1, 0.1, "p1")
        assert flux_limit_ratio(sp1) > 1.0

    def test_unknown_model_rejected(self):
        prob = benchmark_problem()
        s = initial_moment_state(prob, 1e-3)
        with pytest.raises(ConfigError):
            diffusion_step(prob, s, 0.1, "p3")


class TestZeroDimensionalRelaxation:
    @pytest.mark.parametrize("model", MODELS)
    def test_matches_ode_oracle(self, model):
        # Closed reflective box, one huge group: every moment model reduces
        # to the same 0-D two-temperature relaxation. Frozen oracle values
        # from a scalar backward-Euler recursion (tight) and the exact ODE
        # solution (loose): dt = 1e-3 ns, 20 steps, kappa = 1, cv = 0.01.
        fgrid = build_frequency_grid((1.0e7,))
        prob = DiffusionProblem(
            SpatialMesh(1, 1, 1.0, 1.0), fgrid, ConstantOpacity(fgrid, np.array([1.0])),
            MaterialEOS(0.01), {s: BoundaryCondition("reflective") for s in ("left", "right", "bottom", "top")},
        )
        s = initial_moment_state(prob, 1.0)
        s.E[:] = (4.0 * np.pi / C) * group_planck(0.5, fgrid)[:, None, None]
        for _ in range(20):
            s, _ = diffusion_step(prob, s, 1.0e-3, model)
        assert float(s.T[0, 0]) == pytest.approx(0.75589960386531196, rel=1e-8)
        assert float(s.E[0, 0, 0]) == pytest.approx(0.0032985039613468809, rel=1e-8)
        assert float(s.T[0, 0]) == pytest.approx(0.75201523408319437, rel=8e-3)


# ---------------------------------------------------------------------------
# wave-front propagation speeds
# ---------------------------------------------------------------------------


def measure_front_speed(model, dt, n_steps, window):
    """Quarter-height front tracking on a transparent 1-D strip."""
    nx, lx = 200, 60.0
    fgrid = build_frequency_grid((1.0e7,))
    mesh = SpatialMesh(nx, 1, lx, lx / nx)
    prob = DiffusionProblem(
        mesh, fgrid, ConstantOpacity(fgrid, np.array([1.0e-8])), MaterialEOS(1.0),
        {
            "left": BoundaryCondition("drive", 1.0),
            "right": BoundaryCondition("vacuum"),
            "bottom": BoundaryCondition("reflective"),
            "top": BoundaryCondition("reflective"),
        },
    )
    s = initial_moment_state(prob, 1e-3)
    times, pos = [], []
    for _ in range(n_steps):
        s, _ = diffusion_step(prob, s, dt, model)
        if window[0] <= s.t <= window[1]:
            E = s.E[0, 0]
            thr = 0.25 * E[0]
            idx = int(np.argmax(E < thr))
            if idx > 0:
                frac = (E[idx - 1] - thr) / (E[idx - 1] - E[idx])
                times.append(s.t)
                pos.append((idx - 0.5 + frac) * mesh.dx)
    assert len(times) > 10
    return float(np.polyfit(times, pos, 1)[0])


class TestFrontSpeeds:
    def test_p1_front_travels_at_reduced_speed(self):
        v = measure_front_speed("p1", 8.0e-3, 150, (0.4, 1.2))
        assert v == pytest.approx(C / np.sqrt(3.0), rel=0.10)

    def test_p13_front_travels_at_light_speed(self):
        v = measure_front_speed("p13", 5.0e-3, 150, (0.25, 0.75))
        assert v == pytest.approx(C, rel=0.10)

    def test_speeds_are_distinct(self):
        v1 = measure_front_speed("p1", 8.0e-3, 100, (0.3, 0.8))
        v13 = measure_front_speed("p13", 5.0e-3, 100, (0.2, 0.5))
        assert v13 / v1 == pytest.approx(np.sqrt(3.0), rel=0.10)


class TestThickLimit:
    def test_p1_and_p13_agree_when_opaque(self):
        # kappa dx >> 1: the flux time-derivative term is negligible either
        # way, so the two hyperbolic variants coincide.
        fgrid = build_frequency_grid((1.0e7,))
        mesh = SpatialMesh(8, 8, 2.0, 2.0)
        prob = DiffusionProblem(
            mesh, fgrid, ConstantOpacity(fgrid, np.array([100.0])), MaterialEOS(0.01),
            standard_boundaries(1.0),
        )
        s1 = initial_moment_state(prob, 0.1)
        s13 = initial_moment_state(prob, 0.1)
        for _ in range(5):
            s1, _ = diffusion_step(prob, s1, 0.02, "p1")
            s13, _ = diffusion_step(prob, s13, 0.02, "p13")
        diff = np.linalg.norm(s1.E - s13.E) / np.linalg.norm(s1.E)
        assert diff < 0.01


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------


class TestRunDriver:
    def test_history_structure(self):
        prob = benchmark_problem(nx=3, ny=2)
        hist = run_diffusion_model(prob, "fld", 1e-3, 0.1, 3)
        assert hist.label == "fld"
        assert hist.n_levels == 4
        assert hist.T.shape == (4, 2, 3)
        assert hist.E.shape == (4, 17, 2, 3)
        np.testing.assert_allclose(hist.times, 0.1 * np.arange(4), atol=1e-15)

    def test_zero_duration_keeps_initial_state_only(self):
        prob = benchmark_problem(nx=3, ny=2)
        hist = run_diffusion_model(prob, "p1", 1e-3, 0.1, 0)
        assert hist.n_levels == 1
        assert hist.times[0] == 0.0

    def test_custom_label_and_callback(self):
        prob = benchmark_problem(nx=2, ny=2)
        seen = []
        hist = run_diffusion_model(prob, "p13", 1e-3, 0.1, 2, label="ref", callback=lambda n, s, d: seen.append(n))
        assert hist.label == "ref"
        assert seen == [0, 1]
