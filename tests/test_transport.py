"""Tests for the discrete-ordinates sweep and the coupled FOM step."""

import decimal
import gc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddvef import iteration, transport
from ddvef.errors import ConfigError
from ddvef.grid import (
    SIDES,
    AngularQuadrature,
    SpatialMesh,
    boundary_flux,
    build_angular_quadrature,
    build_frequency_grid,
)
from ddvef.history import energy_balance_residual, march
from ddvef.physics import (
    DEFAULT_CONSTANTS,
    ConstantOpacity,
    InverseCubeMaterial,
    MaterialEOS,
    benchmark_cv,
    group_planck,
)
from ddvef.transport import (
    BoundaryInflow,
    TransportProblem,
    TransportState,
    characteristic_coefficients,
    fom_step,
    initial_transport_state,
    planckian_inflow,
    planckian_intensity,
    run_fom,
    sweep,
    sweep_step,
)
from product_rule import OTHER_RULES, by_direction, by_octant, unfold

C = DEFAULT_CONSTANTS.c


def direct_energy(psi, quad):
    """Cell energy E = (1/c) sum_m w_m I_m (G, ny, nx) by direct angular summation of psi (ny, nx, G, M)."""
    return np.einsum("yxgm,m->gyx", psi, quad.weight) / C


def counted(fn, calls):
    """fn, appending to the list calls on every call."""

    def wrapper(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    return wrapper


def step_characteristic_update(I_w, I_s, ax, ay, kappa_eff, source):
    """One chord-based step-characteristic cell update, the sweep's per-cell reference.

    I_w, I_s are the upwind x/y face intensities, ax = |Omega_x|/dx,
    ay = |Omega_y|/dy, kappa_eff the effective absorption and source the
    effective isotropic source (per steradian). Returns (I_out, I_avg):
    the shared outflow-face value and the cell average. All arguments
    broadcast together.
    """
    inv_ds, e, g1, g2 = characteristic_coefficients(ax, ay, kappa_eff)
    I_in = (ax * I_w + ay * I_s) / inv_ds
    q_ds = source / inv_ds
    return I_in * e + q_ds * g1, I_in * g1 + q_ds * g2


# ---------------------------------------------------------------------------
# per-cell chord update
# ---------------------------------------------------------------------------


class TestCellUpdate:
    def test_unit_optical_depth_outflow(self):
        # kappa equal to the inverse chord length gives eps = 1, so a
        # source-only cell emits (q/kappa)(1 - 1/e) through its outflow faces.
        ax, ay = 2.0, 3.0
        kappa = ax + ay
        q_over_kappa = 0.8
        I_out, _ = step_characteristic_update(0.0, 0.0, ax, ay, kappa, kappa * q_over_kappa)
        assert I_out == pytest.approx(q_over_kappa * (1.0 - np.exp(-1.0)), rel=1e-14)
        assert I_out == pytest.approx(0.50569644706284616, rel=1e-14)

    def test_transparent_cell_mixes_inflow(self):
        ax, ay, I_w, I_s = 1.5, 0.5, 2.0, 6.0
        I_out, I_avg = step_characteristic_update(I_w, I_s, ax, ay, 0.0, 0.0)
        I_in = (ax * I_w + ay * I_s) / (ax + ay)
        assert I_out == pytest.approx(I_in, rel=1e-15)
        assert I_avg == pytest.approx(I_in, rel=1e-15)

    def test_transparent_cell_accumulates_source(self):
        # kappa = 0: I grows linearly along the chord.
        ax, ay, q = 2.0, 2.0, 3.0
        ds = 1.0 / (ax + ay)
        I_out, I_avg = step_characteristic_update(1.0, 1.0, ax, ay, 0.0, q)
        assert I_out == pytest.approx(1.0 + q * ds, rel=1e-14)
        assert I_avg == pytest.approx(1.0 + 0.5 * q * ds, rel=1e-14)

    @pytest.mark.parametrize("eps", [1e-8, 1e-4, 9.99e-3, 1.001e-2, 0.5, 5.0, 50.0, 1e8])
    def test_constant_preservation(self, eps):
        # Equilibrium input (faces and q/kappa all equal) is reproduced
        # exactly on both sides of the series/direct branch.
        ax, ay, B = 3.0, 1.0, 0.7
        kappa = eps * (ax + ay)
        I_out, I_avg = step_characteristic_update(B, B, ax, ay, kappa, kappa * B)
        assert I_out == pytest.approx(B, rel=5e-15)
        assert I_avg == pytest.approx(B, rel=5e-15)

    def test_series_seam_continuity(self):
        ax = ay = 1.0
        lo = step_characteristic_update(0.3, 0.9, ax, ay, 2.0 * 0.01 * (1 - 1e-7), 0.4)
        hi = step_characteristic_update(0.3, 0.9, ax, ay, 2.0 * 0.01 * (1 + 1e-7), 0.4)
        np.testing.assert_allclose(lo, hi, rtol=1e-8)

    def test_chord_factors_against_50_digit_decimal(self):
        # g1 = (1 - e^-eps)/eps and g2 = (1 - g1)/eps to near rounding, from
        # the thin to the thick limit and on both sides of the series switch.
        # ax = 1, ay = 0 gives eps = kappa_eff exactly.
        seam = 1.0e-2 * (1.0 + np.array([-1e-6, -1e-12, 0.0, 1e-12, 1e-6]))
        eps = np.concatenate([np.geomspace(1.0e-8, 1.0e3, 221), seam, [9.99e-3, 1.001e-2]])
        _, _, g1, g2 = characteristic_coefficients(1.0, 0.0, eps)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            for x, got_1, got_2 in zip(eps, g1, g2):
                d = decimal.Decimal(float(x))
                exact_1 = (1 - (-d).exp()) / d
                exact_2 = (1 - exact_1) / d
                assert abs(float((decimal.Decimal(float(got_1)) - exact_1) / exact_1)) <= 1.0e-15, x
                assert abs(float((decimal.Decimal(float(got_2)) - exact_2) / exact_2)) <= 1.0e-13, x

    @given(
        I_w=st.floats(0.0, 1e6),
        I_s=st.floats(0.0, 1e6),
        kappa=st.floats(0.0, 1e8),
        q=st.floats(0.0, 1e8),
        ax=st.floats(1e-3, 1e3),
        ay=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200)
    def test_nonnegative_and_bounded(self, I_w, I_s, kappa, q, ax, ay):
        I_out, I_avg = step_characteristic_update(I_w, I_s, ax, ay, kappa, q)
        assert I_out >= 0.0 and I_avg >= 0.0
        assert np.isfinite(I_out) and np.isfinite(I_avg)
        # The update is a convex blend of the inflow and the saturation
        # value q/kappa, so it can never overshoot their maximum.
        bound = max(I_w, I_s, q / kappa if kappa > 0.0 else np.inf)
        if np.isfinite(bound):
            assert I_out <= bound * (1 + 1e-12) + 1e-300
            assert I_avg <= bound * (1 + 1e-12) + 1e-300

    def test_block_coefficients_equal_the_per_cell_update(self):
        # The sweep evaluates the chord factors once for a (cells, G, M)
        # block and combines them per diagonal; that must be the per-cell
        # update bitwise, on both sides of the series switch at eps = 1e-2,
        # and on a block wholly above it, which skips the series. In the
        # straddling block the cells above the switch skip it only per cell.
        rng = np.random.default_rng(2)
        cells, G, M = 6, 3, 4
        ax, ay = rng.uniform(0.2, 3.0, M), rng.uniform(0.2, 3.0, M)
        for log_kappa, straddles in (((-5.0, 1.5), True), ((0.7, 2.0), False)):
            kappa = 10.0 ** rng.uniform(*log_kappa, (cells, G, 1))
            if straddles:
                kappa[0, 0] = 0.0
            small = kappa / (ax + ay) < 1.0e-2
            assert small.any() == straddles and not small.all()
            I_w, I_s, q = (rng.uniform(0.0, 2.0, (cells, G, M)) for _ in range(3))

            inv_ds, e, g1, g2 = characteristic_coefficients(ax, ay, kappa)
            I_in, q_ds = (ax * I_w + ay * I_s) / inv_ds, q / inv_ds
            I_out, I_avg = I_in * e + q_ds * g1, I_in * g1 + q_ds * g2
            for c in range(cells):
                out_c, avg_c = step_characteristic_update(I_w[c], I_s[c], ax, ay, kappa[c], q[c])
                np.testing.assert_array_equal(I_out[c], out_c)
                np.testing.assert_array_equal(I_avg[c], avg_c)
            # The wavefront folds the inflow weights into e once per sweep; a
            # sum of nonnegative terms, it is the same outflow to a few roundings.
            wavefront = (ax / inv_ds) * e * I_w + (ay / inv_ds) * e * I_s + q_ds * g1
            np.testing.assert_allclose(wavefront, I_out, rtol=1e-15, atol=0.0)

    def test_broadcasts(self):
        I_out, I_avg = step_characteristic_update(
            np.zeros((4, 1)), np.zeros((4, 1)), 1.0, 1.0, np.full(3, 2.0), np.ones(3)
        )
        assert I_out.shape == (4, 3)
        assert I_avg.shape == (4, 3)


# ---------------------------------------------------------------------------
# full-mesh sweeps
# ---------------------------------------------------------------------------


def small_setup(nx=5, ny=4, groups=(0.5, 2.0), n_polar=2, n_az=8, lx=2.0, ly=1.6):
    mesh = SpatialMesh(nx, ny, lx, ly)
    quad = build_angular_quadrature(n_polar, n_az)
    fgrid = build_frequency_grid(groups)
    return mesh, quad, fgrid


def steady_sweep(mesh, quad, kappa, source, inflow=BoundaryInflow()):
    """The steady-state sweep: an infinite step from a zero intensity."""
    psi_prev = np.zeros((4, mesh.ny, mesh.nx, quad.n_directions // 4, kappa.shape[0]))
    return sweep(mesh, quad, kappa, source, sweep_step(mesh, quad, psi_prev, np.inf, inflow))


def reference_sweep(mesh, quad, kappa, source, psi_prev, dt, inflow):
    """The sweep done plainly: one direction and one cell at a time in upwind order.

    Each direction keeps its own face intensities, x-faces (G, ny, nx+1) and
    y-faces (G, ny+1, nx), and every moment is read off them afterwards.
    psi_prev and the returned psi are in the sweep's layout; in between the
    intensity is held per direction, (ny, nx, G, M).
    """
    nx, ny, G = mesh.nx, mesh.ny, kappa.shape[0]
    sink = 1.0 / (C * dt)
    psi_prev = by_direction(psi_prev, quad)
    psi = np.zeros((ny, nx, G, quad.n_directions))
    Fx, Fy = np.zeros((G, ny, nx + 1)), np.zeros((G, ny + 1, nx))
    wnI = np.zeros((G, mesh.n_boundary_faces))
    for m, (ox, oy, _) in enumerate(quad.omega):
        w = quad.weight[m]
        Ix, Iy = np.zeros((G, ny, nx + 1)), np.zeros((G, ny + 1, nx))
        Ix[:, :, 0 if ox > 0 else nx] = inflow.value("left" if ox > 0 else "right", G)[:, None]
        Iy[:, 0 if oy > 0 else ny, :] = inflow.value("bottom" if oy > 0 else "top", G)[:, None]
        for j in range(ny) if oy > 0 else reversed(range(ny)):
            for i in range(nx) if ox > 0 else reversed(range(nx)):
                west, east = (i, i + 1) if ox > 0 else (i + 1, i)
                south, north = (j, j + 1) if oy > 0 else (j + 1, j)
                I_out, I_avg = step_characteristic_update(
                    Ix[:, j, west], Iy[:, south, i], abs(ox) / mesh.dx, abs(oy) / mesh.dy,
                    kappa[:, j, i] + sink, source[:, j, i] + sink * psi_prev[j, i, :, m],
                )
                Ix[:, j, east] = Iy[:, north, i] = I_out
                psi[j, i, :, m] = I_avg
        Fx += w * ox * Ix
        Fy += w * oy * Iy
        outgoing = {"left": (ox < 0, Ix[:, :, 0], ox), "right": (ox > 0, Ix[:, :, nx], ox),
                    "bottom": (oy < 0, Iy[:, 0, :], oy), "top": (oy > 0, Iy[:, ny, :], oy)}
        for side, (leaving, I_face, o_n) in outgoing.items():
            if leaving:
                wnI[:, mesh.boundary_slice(side)] += w * abs(o_n) * I_face
    return SimpleNamespace(psi=by_octant(psi, quad), E=direct_energy(psi, quad), Fx=Fx, Fy=Fy, bface_wnI=wnI)


#: Thin, tall and single-cell meshes, where the strided wavefront addressing
#: of each sweep orientation is easiest to get wrong.
THIN_MESHES = [(5, 3), (3, 5), (1, 4), (4, 1), (1, 1)]

def check_matches_reference_sweep(nx, ny, quad):
    """The sweep equals reference_sweep on an nx x ny mesh with dx != dy.

    Distinct inflow on every side and random data: no symmetry hides a
    misplaced tally or a face flipped the wrong way.
    """
    mesh, _, fgrid = small_setup(nx=nx, ny=ny, lx=0.3 * nx, ly=0.4 * ny)
    G = fgrid.n_groups
    rng = np.random.default_rng(11)
    kappa = rng.uniform(0.1, 6.0, (G, mesh.ny, mesh.nx))
    source = rng.uniform(0.0, 2.0, (G, mesh.ny, mesh.nx))
    psi_prev = by_octant(rng.uniform(0.0, 1.5, (mesh.ny, mesh.nx, G, quad.n_directions)), quad)
    inflow = BoundaryInflow(**{side: rng.uniform(0.1, 1.0, G) for side in SIDES})
    res = sweep(mesh, quad, kappa, source, sweep_step(mesh, quad, psi_prev, 0.03, inflow))
    ref = reference_sweep(mesh, quad, kappa, source, psi_prev, 0.03, inflow)
    for name in ("psi", "E", "Fx", "Fy", "bface_wnI"):
        got, expected = getattr(res, name), getattr(ref, name)
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13 * np.abs(expected).max(), err_msg=name)


class TestSweep:
    @pytest.mark.parametrize("nx,ny", THIN_MESHES)
    def test_matches_reference_sweep(self, nx, ny):
        check_matches_reference_sweep(nx, ny, build_angular_quadrature(2, 8))

    @pytest.mark.parametrize(
        "nx,ny,rule", [(nx, ny, rule) for rule in ("3x8", "unfolded") for nx, ny in THIN_MESHES] + [(3, 2, "4x36")]
    )
    def test_matches_reference_sweep_on_other_rules(self, nx, ny, rule):
        check_matches_reference_sweep(nx, ny, OTHER_RULES[rule]())

    def test_directly_built_quadrature_sweeps_the_same(self):
        mesh, quad, fgrid = small_setup()
        G = fgrid.n_groups
        rng = np.random.default_rng(5)
        kappa = rng.uniform(0.2, 2.0, (G, mesh.ny, mesh.nx))
        source = rng.uniform(0.0, 1.0, (G, mesh.ny, mesh.nx))
        inflow = BoundaryInflow(left=np.ones(G), top=np.full(G, 0.4))
        direct = AngularQuadrature(quad.omega, quad.weight)
        res = steady_sweep(mesh, quad, kappa, source, inflow=inflow)
        res_direct = steady_sweep(mesh, direct, kappa, source, inflow=inflow)
        assert res.E.max() > 0.0
        for name in ("psi", "E", "Fx", "Fy", "bface_wnI"):
            np.testing.assert_array_equal(getattr(res_direct, name), getattr(res, name), err_msg=name)

    def test_vacuum_is_zero(self):
        mesh, quad, fgrid = small_setup()
        G = fgrid.n_groups
        zero = np.zeros((G, mesh.ny, mesh.nx))
        res = steady_sweep(mesh, quad, zero + 0.3, zero)
        assert np.all(res.psi == 0.0)
        assert np.all(res.E == 0.0)
        assert np.all(res.Fx == 0.0)

    def test_shapes(self):
        mesh, quad, fgrid = small_setup()
        G = fgrid.n_groups
        res = steady_sweep(mesh, quad, np.full((G, mesh.ny, mesh.nx), 0.5), np.zeros((G, mesh.ny, mesh.nx)))
        assert res.psi.shape == (4, mesh.ny, mesh.nx, quad.n_directions // 4, G)
        assert res.E.shape == (G, mesh.ny, mesh.nx)
        assert res.Fx.shape == (G, mesh.ny, mesh.nx + 1)
        assert res.Fy.shape == (G, mesh.ny + 1, mesh.nx)
        assert res.bface_wnI.shape == (G, mesh.n_boundary_faces)

    def test_bad_inputs_raise(self):
        mesh, quad, fgrid = small_setup()
        G = fgrid.n_groups
        with pytest.raises(ConfigError):
            steady_sweep(mesh, quad, np.zeros((G, mesh.nx, mesh.ny)), np.zeros((G, mesh.nx, mesh.ny)))
        field = np.ones((G, mesh.ny, mesh.nx))
        psi_prev = np.ones((4, mesh.ny, mesh.nx, quad.n_directions // 4, G))
        # A negative step would flip the sink's sign and break positivity; a
        # zero step has no backward-Euler term. inf stays the steady sweep.
        # The step builder checks both, before any sweep.
        for dt in (-0.03, 0.0, -np.inf, np.nan):
            with pytest.raises(ConfigError, match="time step"):
                sweep_step(mesh, quad, psi_prev, dt, BoundaryInflow())
        # psi_prev is refused in any layout but the sweep's: per direction
        # (ny, nx, G, M), an octant axis other than 4, another per-octant
        # direction count, another mesh.
        old_layout = np.ones((mesh.ny, mesh.nx, G, quad.n_directions))
        two_octants = np.ones((2, mesh.ny, mesh.nx, quad.n_directions // 2, G))
        for bad in (old_layout, two_octants, psi_prev[:3], psi_prev[:, :, :, :-1], psi_prev[:, :-1], psi_prev[0]):
            with pytest.raises(ConfigError, match="psi_prev"):
                sweep_step(mesh, quad, bad, 0.03, BoundaryInflow())
        # A step built for another mesh, quadrature or group count is refused.
        step = sweep_step(mesh, quad, psi_prev, 0.03, BoundaryInflow())
        with pytest.raises(ConfigError, match="psi_prev"):
            sweep(SpatialMesh(mesh.nx + 1, mesh.ny, 2.0, 1.6), quad, field, field, step)
        with pytest.raises(ConfigError, match="psi_prev"):
            sweep(mesh, build_angular_quadrature(2, 4), field, field, step)
        with pytest.raises(ConfigError, match="kappa/source"):
            sweep(mesh, quad, field[:1], field[:1], step)
        with pytest.raises(ConfigError, match="inflow"):
            sweep_step(mesh, quad, psi_prev, 0.03, BoundaryInflow(left=np.ones(G + 1)))

    def test_step_for_a_mesh_of_other_widths_is_refused(self):
        # Same cell counts, other extent: the step's chord geometry is not
        # this mesh's.
        quad, G = build_angular_quadrature(2, 8), 2
        wide, narrow = SpatialMesh(4, 4, 6.0, 6.0), SpatialMesh(4, 4, 1.0, 1.0)
        step = sweep_step(wide, quad, np.zeros((4, 4, 4, quad.n_directions // 4, G)), 0.03, BoundaryInflow(left=np.ones(G)))
        field = np.ones((G, 4, 4))
        with pytest.raises(ConfigError, match="another mesh or quadrature"):
            sweep(narrow, quad, field, field, step)
        assert sweep(SpatialMesh(4, 4, 6.0, 6.0), quad, field, field, step).E.max() > 0.0

    def test_step_for_another_rule_of_equal_size_is_refused(self):
        # The 2 x 8 and 4 x 4 rules both sweep 8 directions; a rebuilt rule
        # with the step's directions and weights is accepted.
        mesh, G = SpatialMesh(4, 4, 6.0, 6.0), 2
        quad, other = build_angular_quadrature(2, 8), build_angular_quadrature(4, 4)
        assert other.n_directions == quad.n_directions
        step = sweep_step(mesh, quad, np.zeros((4, 4, 4, quad.n_directions // 4, G)), 0.03, BoundaryInflow(left=np.ones(G)))
        field = np.ones((G, 4, 4))
        with pytest.raises(ConfigError, match="another mesh or quadrature"):
            sweep(mesh, other, field, field, step)
        assert sweep(mesh, build_angular_quadrature(2, 8), field, field, step).E.max() > 0.0

    def test_free_streaming_bounds(self):
        # Transparent medium with a unit drive on the left: intensities stay
        # in [0, 1], and directions moving leftward see only vacuum.
        mesh, quad, fgrid = small_setup(groups=(1.0,))
        zero = np.zeros((1, mesh.ny, mesh.nx))
        res = steady_sweep(mesh, quad, zero, zero, inflow=BoundaryInflow(left=np.ones(1)))
        assert res.psi.min() >= 0.0
        assert res.psi.max() <= 1.0 + 1e-14
        leftward, psi = quad.omega[:, 0] < 0.0, by_direction(res.psi, quad)
        assert np.all(psi[:, :, :, leftward] == 0.0)
        assert psi[:, :, :, ~leftward].min() > 0.0

    def test_equilibrium_fixed_point_steady(self):
        mesh, quad, fgrid = small_setup()
        mat = InverseCubeMaterial(fgrid)
        T = 0.8
        B = group_planck(T, fgrid)
        kappa = mat.emission_terms(np.full((mesh.ny, mesh.nx), T), DEFAULT_CONSTANTS)[0]
        inflow = BoundaryInflow(left=B, right=B, bottom=B, top=B)
        res = steady_sweep(mesh, quad, kappa, kappa * B[:, None, None], inflow=inflow)
        np.testing.assert_allclose(res.psi, np.broadcast_to(B, res.psi.shape), rtol=1e-13)
        np.testing.assert_allclose(res.E, np.broadcast_to((quad.weight.sum() / C) * B[:, None, None], res.E.shape), rtol=1e-12)

    def test_equilibrium_fixed_point_time_dependent(self):
        mesh, quad, fgrid = small_setup()
        mat = InverseCubeMaterial(fgrid)
        T, dt = 0.8, 0.05
        B = group_planck(T, fgrid)
        kappa = mat.emission_terms(np.full((mesh.ny, mesh.nx), T), DEFAULT_CONSTANTS)[0]
        psi_prev = np.broadcast_to(B, (4, mesh.ny, mesh.nx, quad.n_directions // 4, fgrid.n_groups)).copy()
        inflow = BoundaryInflow(left=B, right=B, bottom=B, top=B)
        res = sweep(mesh, quad, kappa, kappa * B[:, None, None], sweep_step(mesh, quad, psi_prev, dt, inflow))
        np.testing.assert_allclose(res.psi, np.broadcast_to(B, res.psi.shape), rtol=1e-13)

    def test_cell_balance_is_exact(self):
        # The scheme is conservative: per cell and group, face outflow plus
        # effective absorption balances the effective source to roundoff.
        mesh, quad, fgrid = small_setup(nx=6, ny=5, lx=1.2, ly=2.0)
        G = fgrid.n_groups
        rng = np.random.default_rng(7)
        kappa = rng.uniform(0.05, 8.0, (G, mesh.ny, mesh.nx))
        source = rng.uniform(0.0, 3.0, (G, mesh.ny, mesh.nx))
        psi_prev = rng.uniform(0.0, 2.0, (mesh.ny, mesh.nx, G, quad.n_directions))
        inflow = BoundaryInflow(left=rng.uniform(0.1, 1.0, G), top=rng.uniform(0.1, 1.0, G))
        dt = 0.04
        res = sweep(mesh, quad, kappa, source, sweep_step(mesh, quad, by_octant(psi_prev, quad), dt, inflow))

        sink = 1.0 / (C * dt)
        E_prev = direct_energy(psi_prev, quad)
        div = (res.Fx[:, :, 1:] - res.Fx[:, :, :-1]) * mesh.dy + (res.Fy[:, 1:, :] - res.Fy[:, :-1, :]) * mesh.dx
        lhs = div + (kappa + sink) * C * res.E * mesh.cell_volume
        rhs = (4.0 * np.pi * source + sink * C * E_prev) * mesh.cell_volume
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_symmetric_problem_gives_symmetric_field(self):
        mesh, quad, fgrid = small_setup(nx=4, ny=4, groups=(1.0,), lx=1.0, ly=1.0)
        kappa = np.full((1, 4, 4), 0.9)
        source = np.full((1, 4, 4), 0.2)
        inflow = BoundaryInflow(*(np.ones(1),) * 4)
        res = steady_sweep(mesh, quad, kappa, source, inflow=inflow)
        E = res.E[0]
        np.testing.assert_allclose(E, E.T, rtol=1e-13)
        np.testing.assert_allclose(E, E[::-1, :], rtol=1e-13)
        np.testing.assert_allclose(E, E[:, ::-1], rtol=1e-13)

    def test_boundary_outgoing_sums_at_equilibrium(self):
        # Isotropic field of magnitude B: every boundary face's outgoing
        # current is B times the quadrature's half-range sum of w |n.Omega|,
        # and the current over the outgoing weight sum, exactly 2 pi B for an
        # isotropic field, sits near one half.
        mesh, quad, fgrid = small_setup(groups=(1.0,))
        B = np.array([0.6])
        kappa = np.full((1, mesh.ny, mesh.nx), 2.0)
        inflow = BoundaryInflow(*(B,) * 4)
        res = steady_sweep(mesh, quad, kappa, kappa * B[:, None, None], inflow=inflow)
        for side, normal in zip(SIDES, ([-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 1.0, 0.0])):
            out = quad.omega @ normal > 0.0
            half_current = quad.weight[out] @ np.abs(quad.omega[out] @ normal)
            np.testing.assert_allclose(res.bface_wnI[:, mesh.boundary_slice(side)], half_current * B[0], rtol=1e-12)
        # The ratio carries the half-range current of the quadrature; the
        # coarse set is ~7% high, a fine set almost exact.
        ratio = res.bface_wnI / (2.0 * np.pi * B[0])
        assert np.all(np.abs(ratio - 0.5) < 0.05)

        fine = build_angular_quadrature(6, 24)
        res_f = steady_sweep(mesh, fine, kappa, kappa * B[:, None, None], inflow=inflow)
        ratio_f = res_f.bface_wnI / (2.0 * np.pi * B[0])
        assert np.all(np.abs(ratio_f - 0.5) < 0.005)
        assert np.abs(ratio_f - 0.5).max() < np.abs(ratio - 0.5).min()

    def test_moments_match_direct_sum(self):
        mesh, quad, fgrid = small_setup()
        G = fgrid.n_groups
        rng = np.random.default_rng(3)
        kappa = rng.uniform(0.2, 2.0, (G, mesh.ny, mesh.nx))
        source = rng.uniform(0.0, 1.0, (G, mesh.ny, mesh.nx))
        res = steady_sweep(mesh, quad, kappa, source, inflow=BoundaryInflow(left=np.ones(G)))
        np.testing.assert_allclose(res.E, direct_energy(by_direction(res.psi, quad), quad), rtol=1e-13)

    def test_energy_is_the_weighted_sum_of_psi(self):
        # E is tallied during the sweep from the octants' summed upwind
        # intensities and sources; psi holds each octant's cell averages,
        # formed on first read.
        mesh, quad, fgrid = small_setup(nx=6, ny=5)
        G = fgrid.n_groups
        rng = np.random.default_rng(23)
        kappa = 10.0 ** rng.uniform(-3.0, 1.0, (G, mesh.ny, mesh.nx))
        source = rng.uniform(0.0, 2.0, (G, mesh.ny, mesh.nx))
        psi_prev = by_octant(rng.uniform(0.0, 1.5, (mesh.ny, mesh.nx, G, quad.n_directions)), quad)
        inflow = BoundaryInflow(**{side: rng.uniform(0.1, 1.0, G) for side in SIDES})
        res = sweep(mesh, quad, kappa, source, sweep_step(mesh, quad, psi_prev, 0.03, inflow))
        np.testing.assert_allclose(res.E, direct_energy(by_direction(res.psi, quad), quad), rtol=1e-14, atol=0.0)

    def test_energy_is_the_weighted_sum_of_psi_where_the_chord_factors_switch_to_series(self):
        # Optically thin cells: g1 and g2 take their series below eps = 1e-2,
        # in the summed energy tally and in the averages alike.
        mesh, quad, fgrid = small_setup(nx=6, ny=5)
        G = fgrid.n_groups
        rng = np.random.default_rng(31)
        kappa = 10.0 ** rng.uniform(-5.0, 1.0, (G, mesh.ny, mesh.nx))
        source = rng.uniform(0.0, 2.0, (G, mesh.ny, mesh.nx))
        inflow = BoundaryInflow(**{side: rng.uniform(0.1, 1.0, G) for side in SIDES})
        inv_ds = np.abs(quad.omega[:, 0]) / mesh.dx + np.abs(quad.omega[:, 1]) / mesh.dy
        eps = kappa[..., None] / inv_ds
        assert (eps < 1.0e-2).any() and (eps > 1.0e-2).any()
        res = steady_sweep(mesh, quad, kappa, source, inflow=inflow)
        np.testing.assert_allclose(res.E, direct_energy(by_direction(res.psi, quad), quad), rtol=1e-14, atol=0.0)

    def test_tallies_are_built_once_and_cached(self, monkeypatch):
        builds = []
        monkeypatch.setattr(transport, "_tally_frames", counted(transport._tally_frames, builds))
        mesh, quad, fgrid = small_setup()
        G = fgrid.n_groups
        res = steady_sweep(mesh, quad, np.ones((G, mesh.ny, mesh.nx)), np.ones((G, mesh.ny, mesh.nx)))
        assert builds == []
        first = [getattr(res, name) for name in ("psi", "Fx", "Fy", "bface_wnI")]
        again = [getattr(res, name) for name in ("psi", "Fx", "Fy", "bface_wnI")]
        assert all(a is b for a, b in zip(first, again))
        assert builds == [1]

    def test_sweeps_of_one_step_keep_their_own_frames(self):
        # A step's passes share its setup but not their frames: a result's
        # tallies, built on first read, are the same whether read before or
        # after a later pass of the step sweeps with another kappa.
        mesh, quad, fgrid = small_setup()
        G = fgrid.n_groups
        rng = np.random.default_rng(29)
        kappa_1, kappa_2 = (rng.uniform(0.1, 6.0, (G, mesh.ny, mesh.nx)) for _ in range(2))
        source = rng.uniform(0.0, 2.0, (G, mesh.ny, mesh.nx))
        psi_prev = by_octant(rng.uniform(0.0, 1.5, (mesh.ny, mesh.nx, G, quad.n_directions)), quad)
        inflow = BoundaryInflow(**{side: rng.uniform(0.1, 1.0, G) for side in SIDES})
        names = ("E", "psi", "Fx", "Fy", "bface_wnI")

        def read_at_once(kappa):
            res = sweep(mesh, quad, kappa, source, sweep_step(mesh, quad, psi_prev, 0.03, inflow))
            return [getattr(res, name).copy() for name in names]

        step = sweep_step(mesh, quad, psi_prev, 0.03, inflow)
        first = sweep(mesh, quad, kappa_1, source, step)
        second = sweep(mesh, quad, kappa_2, source, step)
        for res, kappa in ((first, kappa_1), (second, kappa_2)):
            for name, expected in zip(names, read_at_once(kappa)):
                np.testing.assert_array_equal(getattr(res, name), expected, err_msg=name)

    def test_tallies_read_late_ignore_a_source_changed_after_the_sweep(self):
        # psi is formed on first read from what the result keeps, so the
        # result keeps its own copy of the source, not the caller's array.
        mesh, quad, fgrid = small_setup()
        G = fgrid.n_groups
        rng = np.random.default_rng(37)
        kappa = rng.uniform(0.1, 6.0, (G, mesh.ny, mesh.nx))
        source = rng.uniform(0.0, 2.0, (G, mesh.ny, mesh.nx))
        psi_prev = by_octant(rng.uniform(0.0, 1.5, (mesh.ny, mesh.nx, G, quad.n_directions)), quad)
        step = sweep_step(mesh, quad, psi_prev, 0.03, BoundaryInflow())
        expected = sweep(mesh, quad, kappa, source, step).psi
        late = sweep(mesh, quad, kappa, source, step)
        source[:] = 0.0
        np.testing.assert_array_equal(late.psi, expected)

    def test_folded_rule_sweeps_as_the_full_product_rule(self):
        # The sweep's rule is the Omega_z >= 0 half of the 2 x 8 product
        # rule. With an intensity equal on mirror pairs, sweeping all 16
        # directions gives the same moments, and each mirror the same psi.
        mesh, quad, fgrid = small_setup()
        full, source = unfold(quad)
        assert (quad.n_directions, full.n_directions) == (8, 16)
        G = fgrid.n_groups
        rng = np.random.default_rng(17)
        kappa = rng.uniform(0.1, 6.0, (G, mesh.ny, mesh.nx))
        emission = rng.uniform(0.0, 2.0, (G, mesh.ny, mesh.nx))
        psi_prev = rng.uniform(0.0, 1.5, (mesh.ny, mesh.nx, G, quad.n_directions))
        inflow = BoundaryInflow(**{side: rng.uniform(0.1, 1.0, G) for side in SIDES})
        folded = sweep(mesh, quad, kappa, emission, sweep_step(mesh, quad, by_octant(psi_prev, quad), 0.03, inflow))
        unfolded_step = sweep_step(mesh, full, by_octant(psi_prev[..., source], full), 0.03, inflow)
        unfolded = sweep(mesh, full, kappa, emission, unfolded_step)
        for name in ("E", "Fx", "Fy", "bface_wnI"):
            got, expected = getattr(folded, name), getattr(unfolded, name)
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13 * np.abs(expected).max(), err_msg=name)
        psi_full = by_direction(unfolded.psi, full)
        np.testing.assert_array_equal(psi_full, psi_full[..., source])
        np.testing.assert_allclose(psi_full, by_direction(folded.psi, quad)[..., source], rtol=1e-13)


# ---------------------------------------------------------------------------
# coupled FOM stepping
# ---------------------------------------------------------------------------


def benchmark_like_problem(nx=4, ny=4, n_polar=2, n_az=4, drive_sides=("left",)):
    mesh = SpatialMesh(nx, ny, 6.0, 6.0)
    quad = build_angular_quadrature(n_polar, n_az)
    fgrid = build_frequency_grid()
    mat = InverseCubeMaterial(fgrid)
    eos = MaterialEOS(benchmark_cv(1.0))
    inflow = planckian_inflow(fgrid, 1.0, sides=drive_sides)
    return TransportProblem(mesh, quad, fgrid, mat, eos, inflow)


class TestBoundaryInflow:
    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, "bools"])
    def test_non_finite_or_negative_value_rejected(self, side, bad):
        # Swept, such a value would give a NaN energy or a negative intensity;
        # an array of bools would be swept as intensities of 0 and 1.
        value = np.ones(17, bool) if bad == "bools" else np.array([0.5, bad])
        with pytest.raises(ConfigError, match=side):
            BoundaryInflow(**{side: value})

    def test_problem_with_an_inflow_that_is_not_a_boundary_inflow_rejected(self):
        # A dict of side arrays used to construct and fail on the first step
        # with an AttributeError.
        problem = benchmark_like_problem()
        with pytest.raises(ConfigError, match="BoundaryInflow"):
            replace(problem, inflow={"left": np.ones(problem.fgrid.n_groups)})

    def test_zero_and_vacuum_accepted(self):
        inflow = BoundaryInflow(left=[0.0, 2.0], top=np.zeros(2))
        np.testing.assert_array_equal(inflow.value("left", 2), [0.0, 2.0])
        np.testing.assert_array_equal(inflow.value("right", 2), np.zeros(2))


class TestIncomingCurrents:
    """The incoming current a sweep carries on each boundary face: its
    outgoing current less its outward net flux n.F, the current the VEF's
    boundary tables take in."""

    @staticmethod
    def incoming(quad, inflow, kappa, B):
        mesh = SpatialMesh(5, 4, 2.0, 1.6)
        res = steady_sweep(mesh, quad, kappa, kappa * B[:, None, None], inflow=inflow)
        return mesh, res, res.bface_wnI - boundary_flux(res.Fx, res.Fy)

    @pytest.mark.parametrize("rule", ["2x8"] + list(OTHER_RULES))
    def test_equals_the_outgoing_current_at_equilibrium(self, rule):
        # With the same isotropic B entering on every side the steady sweep
        # is the equilibrium B, so what leaves through a side is what enters,
        # both the quadrature's half-range sum of w |n.Omega| B.
        quad = build_angular_quadrature(2, 8) if rule == "2x8" else OTHER_RULES[rule]()
        B = np.array([0.6, 1.7])
        kappa = np.full((2, 4, 5), 2.0)
        mesh, res, F_in = self.incoming(quad, BoundaryInflow(*(B,) * 4), kappa, B)
        w = quad.weight
        wn_in = [(w * np.abs(o))[mask].sum() for o in quad.omega[:, :2].T for mask in (o > 0.0, o < 0.0)]
        assert np.all(F_in > 0.0)
        for side, wn in zip(SIDES, wn_in):
            faces = mesh.boundary_slice(side)
            expected = np.broadcast_to((wn * B)[:, None], F_in[:, faces].shape)
            np.testing.assert_allclose(F_in[:, faces], expected, rtol=1e-13, atol=0.0, err_msg=side)
            np.testing.assert_allclose(res.bface_wnI[:, faces], expected, rtol=1e-13, atol=0.0, err_msg=side)

    def test_folded_rule_gives_the_product_rule_currents(self):
        quad = build_angular_quadrature(2, 8)
        rng = np.random.default_rng(31)
        inflow = BoundaryInflow(**{side: rng.uniform(0.1, 1.0, 2) for side in SIDES})
        kappa, B = np.full((2, 4, 5), 2.0), np.array([0.6, 1.7])
        mesh, _, folded = self.incoming(quad, inflow, kappa, B)
        full = self.incoming(unfold(quad)[0], inflow, kappa, B)[2]
        np.testing.assert_allclose(folded, full, rtol=1e-13, atol=0.0)
        # Away from equilibrium the net flux is not zero, so this also pins
        # the sign of each side's outward normal: what enters is the
        # half-range sum of w |n.Omega| over the side's isotropic inflow.
        w = quad.weight
        wn_in = [(w * np.abs(o))[mask].sum() for o in quad.omega[:, :2].T for mask in (o > 0.0, o < 0.0)]
        for side, wn in zip(SIDES, wn_in):
            faces = mesh.boundary_slice(side)
            expected = np.broadcast_to((wn * inflow.value(side, 2))[:, None], folded[:, faces].shape)
            np.testing.assert_allclose(folded[:, faces], expected, rtol=1e-13, atol=0.0, err_msg=side)


class TestPlanckianInflow:
    @pytest.mark.parametrize("sides", [("Left",), ("left", "lft")])
    def test_unknown_side_rejected(self, sides):
        with pytest.raises(ConfigError, match=sides[-1]):
            planckian_inflow(build_frequency_grid(), 1.0, sides=sides)

    @pytest.mark.parametrize("T_drive", [-1.0, 0.0, np.nan, np.inf, True, np.True_])
    def test_bad_drive_temperature_rejected(self, T_drive):
        with pytest.raises(ConfigError, match="T_drive"):
            planckian_inflow(build_frequency_grid(), T_drive)


class TestPlanckianIntensity:
    def test_uniform_field_equals_scalar_and_a_field_is_per_cell(self):
        problem = benchmark_like_problem(nx=3, ny=2)
        shape = (4, 2, 3, problem.quad.n_directions // 4, problem.fgrid.n_groups)
        psi = planckian_intensity(problem, 0.7)
        assert psi.shape == shape and psi.flags.c_contiguous
        # Vectorized and scalar evaluation of B may differ in the last bit.
        np.testing.assert_allclose(planckian_intensity(problem, np.full((2, 3), 0.7)), psi, rtol=1e-15, atol=0.0)
        T = np.array([[0.1, 0.5, 1.0], [2.0, 0.3, 0.02]])
        psi = planckian_intensity(problem, T)
        for j, i in np.ndindex(T.shape):
            expected = np.broadcast_to(group_planck(T[j, i], problem.fgrid), (4,) + shape[3:])
            np.testing.assert_allclose(psi[:, j, i], expected, rtol=1e-15, atol=0.0)


class TestFomStep:
    def test_equilibrium_is_preserved(self):
        # Uniform drive temperature on all sides with matching initial
        # condition: nothing may move beyond iteration tolerances.
        problem = benchmark_like_problem(drive_sides=("left", "right", "bottom", "top"))
        state = initial_transport_state(problem, 1.0)
        for _ in range(5):
            state, diag = fom_step(problem, state, 0.1)
        np.testing.assert_allclose(state.T, 1.0, rtol=1e-12)
        B = group_planck(1.0, problem.fgrid)
        np.testing.assert_allclose(state.E, np.broadcast_to((4.0 * np.pi / C) * B[:, None, None], state.E.shape), rtol=1e-11)

    def test_heating_run_is_physical(self):
        problem = benchmark_like_problem()
        state = initial_transport_state(problem, 1e-3)
        prev_T = state.T.copy()
        for _ in range(3):
            state, diag = fom_step(problem, state, 0.1)
            assert diag.balance_residual < 1e-8
            assert diag.change_history[-1] <= iteration.PICARD_TOL
            assert np.all(state.T >= prev_T - 1e-15)  # monotone heating
            prev_T = state.T.copy()
        assert state.psi.min() >= 0.0
        # the drive-side column heats first
        assert state.T[:, 0].min() > state.T[:, -1].max()

    def test_picard_contracts(self):
        problem = benchmark_like_problem()
        state = initial_transport_state(problem, 1e-3)
        _, diag = fom_step(problem, state, 0.1)
        assert diag.picard_iterations >= 2
        assert diag.change_history[-1] < diag.change_history[0]

    def test_tallies_are_built_once_per_step(self, monkeypatch):
        # Every Picard pass sweeps, but only the last pass's psi and face
        # fluxes enter the new state, so only that sweep builds them.
        sweeps, builds = [], []
        monkeypatch.setattr(transport, "sweep", counted(transport.sweep, sweeps))
        monkeypatch.setattr(transport, "_tally_frames", counted(transport._tally_frames, builds))
        problem = benchmark_like_problem()
        state, diag = fom_step(problem, initial_transport_state(problem, 1e-3), 0.1)
        assert len(sweeps) == diag.picard_iterations > 1
        assert len(builds) == 1
        assert state.psi.shape == (4, 4, 4, problem.quad.n_directions // 4, problem.fgrid.n_groups)

    def test_sweep_step_is_built_once_per_step(self, monkeypatch):
        # psi_prev, dt and the inflow are fixed for a step, so its setup is
        # built once and every Picard pass sweeps with it.
        steps, sweeps = [], []
        monkeypatch.setattr(transport, "sweep_step", counted(transport.sweep_step, steps))
        monkeypatch.setattr(transport, "sweep", counted(transport.sweep, sweeps))
        history = run_fom(benchmark_like_problem(), 1e-3, 0.1, 2)
        per_step = [d.picard_iterations for d in history.diagnostics]
        assert len(steps) == 2
        assert len(sweeps) == sum(per_step) and min(per_step) > 1

    @pytest.mark.parametrize("dt", [0.0, -0.02, np.nan, np.inf, True])
    def test_bad_time_step_rejected_before_any_sweep(self, monkeypatch, dt):
        # Without the check inf fails deep in the coupling with a ValueError.
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept with a bad time step")

        monkeypatch.setattr(transport, "sweep", no_sweep)
        problem = benchmark_like_problem()
        with pytest.raises(ConfigError, match="time step"):
            fom_step(problem, initial_transport_state(problem, 1e-3), dt)

    @pytest.mark.parametrize("n_steps", [-3, 2.0, 1.5, "2", True])
    def test_bad_step_count_rejected_before_any_sweep(self, monkeypatch, n_steps):
        # Without the check a negative count returns the initial level
        # alone and a non-integer one fails inside range with a TypeError.
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept with a bad step count")

        monkeypatch.setattr(transport, "sweep", no_sweep)
        with pytest.raises(ConfigError, match="steps"):
            run_fom(benchmark_like_problem(), 1e-3, 0.02, n_steps)

    def test_nonconvergence_raises(self, monkeypatch):
        from ddvef.errors import ConvergenceError

        monkeypatch.setattr(iteration, "PICARD_MAX_ITER", 1)
        problem = benchmark_like_problem()
        state = initial_transport_state(problem, 1e-3)
        with pytest.raises(ConvergenceError):
            fom_step(problem, state, 0.1)

    def test_zero_dimensional_relaxation(self):
        # One huge optically thick cell behaves as the 0-D two-temperature
        # relaxation ODE. The march must land on the scalar backward-Euler
        # sequence; the exact ODE solution sets the physics scale.
        L = 3.0e5
        mesh = SpatialMesh(1, 1, L, L)
        quad = build_angular_quadrature(2, 4)
        fgrid = build_frequency_grid((1.0e7,))
        mat = ConstantOpacity(fgrid, np.array([1.0]))
        eos = MaterialEOS(0.01)
        problem = TransportProblem(mesh, quad, fgrid, mat, eos, BoundaryInflow())

        B_rad = group_planck(0.5, fgrid)  # radiation field starts at 0.5 KeV
        psi = np.broadcast_to(B_rad, (4, 1, 1, quad.n_directions // 4, 1)).copy()
        E0 = direct_energy(by_direction(psi, quad), quad)
        state = TransportState(t=0.0, T=np.ones((1, 1)), E=E0, Fx=np.zeros((1, 1, 2)), Fy=np.zeros((1, 2, 1)), psi=psi)

        for _ in range(20):
            state, _ = fom_step(problem, state, 1.0e-3)

        T = float(state.T[0, 0])
        E = float(state.E[0, 0, 0])
        assert T == pytest.approx(0.75589960386531196, rel=1e-4)  # backward Euler
        assert E == pytest.approx(0.0032985039613468809, rel=1e-4)
        assert T == pytest.approx(0.75201523408319437, rel=8e-3)  # exact ODE
        assert E == pytest.approx(0.0033373476591680639, rel=2e-2)


class TestRunFom:
    def test_history_structure(self):
        problem = benchmark_like_problem(nx=3, ny=2)
        hist = run_fom(problem, 1e-3, 0.1, 4)
        assert hist.times.size == 5
        assert hist.label == "fom"
        np.testing.assert_allclose(hist.times, 0.1 * np.arange(5), atol=1e-15)
        assert hist.T.shape == (5, 2, 3)
        assert hist.E.shape == (5, 17, 2, 3)
        # The face fluxes stay in the stepped state; a history keeps none.
        assert not hasattr(hist, "Fx") and not hasattr(hist, "Fy")
        assert len(hist.diagnostics) == 4

    def test_zero_steps_keep_the_initial_state_only(self):
        hist = run_fom(benchmark_like_problem(nx=3, ny=2), 1e-3, 0.1, 0)
        assert hist.times.size == 1 and hist.diagnostics == []

    def test_folded_rule_marches_as_the_full_product_rule(self):
        problem = benchmark_like_problem()
        full = replace(problem, quad=unfold(problem.quad)[0])
        folded, unfolded = run_fom(problem, 1e-3, 0.1, 3), run_fom(full, 1e-3, 0.1, 3)
        assert [d.picard_iterations for d in folded.diagnostics] == [d.picard_iterations for d in unfolded.diagnostics]
        np.testing.assert_allclose(folded.T, unfolded.T, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(folded.E, unfolded.E, rtol=1e-9, atol=0.0)

    def test_march_keeps_only_the_live_state(self):
        # A FOM state carries its whole intensity psi and its face fluxes; the
        # history keeps each level's t, T and E, so a state is freed once it
        # is stepped past.
        problem = benchmark_like_problem(nx=3, ny=3)
        returned, alive = [], []

        def advance(state, _):
            gc.collect()
            alive.append([ref() is not None for ref in returned])
            new, diag = fom_step(problem, state, 0.1)
            returned.append(weakref.ref(new))
            return new, diag

        hist = march("fom", initial_transport_state(problem, 1e-3), advance, range(4))
        assert alive == [[], [True], [False, True], [False, False, True]]
        reference = run_fom(problem, 1e-3, 0.1, 4)
        for name in ("times", "T", "E"):
            np.testing.assert_array_equal(getattr(hist, name), getattr(reference, name))


class TestEnergyAccounting:
    def test_net_outflow_sign(self):
        mesh, quad, fgrid = small_setup(groups=(1.0,))
        zero = np.zeros((1, mesh.ny, mesh.nx))
        res = steady_sweep(mesh, quad, zero, zero, inflow=BoundaryInflow(left=np.ones(1)))
        # transparent medium, pure inflow from the left: net outflow is the
        # reemerging radiation minus the drive, hence negative (net gain).
        outflow = (res.Fx[:, :, -1] - res.Fx[:, :, 0]).sum() * mesh.dy + (res.Fy[:, -1] - res.Fy[:, 0]).sum() * mesh.dx
        assert outflow < 0.0
        # The energy budget reads the same flow: at unchanged content its
        # defect is dt times the net gain over the content.
        state, dt = SimpleNamespace(T=np.ones((mesh.ny, mesh.nx)), E=res.E, Fx=res.Fx, Fy=res.Fy), 0.1
        content = (res.E.sum() + state.T.sum()) * mesh.cell_volume
        residual = energy_balance_residual(state, state, dt, mesh, MaterialEOS(1.0))
        assert residual == pytest.approx(-dt * outflow / content, rel=1e-12)

    def test_balance_residual_matches_budget(self):
        problem = benchmark_like_problem(nx=3, ny=3)
        s0 = initial_transport_state(problem, 1e-3)
        s1, diag = fom_step(problem, s0, 0.1)
        direct = energy_balance_residual(s0, s1, 0.1, problem.mesh, problem.eos)
        assert diag.balance_residual == pytest.approx(direct, rel=1e-12)
        assert direct < 1e-8
