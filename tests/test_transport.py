"""Tests for the discrete-ordinates sweep and the coupled FOM step."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddvef import iteration
from ddvef.errors import ConfigError
from ddvef.grid import (
    SpatialMesh,
    build_angular_quadrature,
    build_frequency_grid,
)
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
    boundary_net_outflow,
    cell_moments,
    energy_balance_residual,
    fom_step,
    initial_transport_state,
    planckian_inflow,
    run_fom,
    step_characteristic_update,
    sweep,
)

C = DEFAULT_CONSTANTS.c


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

    @given(
        I_w=st.floats(0.0, 1e6),
        I_s=st.floats(0.0, 1e6),
        kappa=st.floats(0.0, 1e8),
        q=st.floats(0.0, 1e8),
        ax=st.floats(1e-3, 1e3),
        ay=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200, deadline=None)
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


class TestSweep:
    def test_vacuum_is_zero(self):
        mesh, quad, fgrid = small_setup()
        G = fgrid.n_groups
        zero = np.zeros((G, mesh.ny, mesh.nx))
        res = sweep(mesh, quad, zero + 0.3, zero)
        assert np.all(res.psi == 0.0)
        assert np.all(res.E == 0.0)
        assert np.all(res.Fx == 0.0)

    def test_shapes(self):
        mesh, quad, fgrid = small_setup()
        G = fgrid.n_groups
        res = sweep(mesh, quad, np.full((G, mesh.ny, mesh.nx), 0.5), np.zeros((G, mesh.ny, mesh.nx)))
        assert res.psi.shape == (mesh.ny, mesh.nx, G, quad.n_directions)
        assert res.E.shape == (G, mesh.ny, mesh.nx)
        assert res.Fx.shape == (G, mesh.ny, mesh.nx + 1)
        assert res.Fy.shape == (G, mesh.ny + 1, mesh.nx)
        assert res.bface_wI.shape == (G, mesh.n_boundary_faces)

    def test_bad_inputs_raise(self):
        mesh, quad, fgrid = small_setup()
        G = fgrid.n_groups
        with pytest.raises(ConfigError):
            sweep(mesh, quad, np.zeros((G, mesh.nx, mesh.ny)), np.zeros((G, mesh.nx, mesh.ny)))
        with pytest.raises(ConfigError):
            sweep(mesh, quad, np.zeros((G, mesh.ny, mesh.nx)), np.zeros((G, mesh.ny, mesh.nx)), dt=0.1)

    def test_free_streaming_bounds(self):
        # Transparent medium with a unit drive on the left: intensities stay
        # in [0, 1], and directions moving leftward see only vacuum.
        mesh, quad, fgrid = small_setup(groups=(1.0,))
        zero = np.zeros((1, mesh.ny, mesh.nx))
        res = sweep(mesh, quad, zero, zero, inflow=BoundaryInflow(left=np.ones(1)))
        assert res.psi.min() >= 0.0
        assert res.psi.max() <= 1.0 + 1e-14
        leftward = quad.omega[:, 0] < 0.0
        assert np.all(res.psi[:, :, :, leftward] == 0.0)
        assert res.psi[:, :, :, ~leftward].min() > 0.0

    def test_equilibrium_fixed_point_steady(self):
        mesh, quad, fgrid = small_setup()
        mat = InverseCubeMaterial(fgrid)
        T = 0.8
        B = group_planck(T, fgrid)
        kappa = mat.group_opacity(np.full((mesh.ny, mesh.nx), T))
        inflow = BoundaryInflow(left=B, right=B, bottom=B, top=B)
        res = sweep(mesh, quad, kappa, kappa * B[:, None, None], inflow=inflow)
        np.testing.assert_allclose(res.psi, np.broadcast_to(B[None, None, :, None], res.psi.shape), rtol=1e-13)
        np.testing.assert_allclose(res.E, np.broadcast_to((quad.weight.sum() / C) * B[:, None, None], res.E.shape), rtol=1e-12)

    def test_equilibrium_fixed_point_time_dependent(self):
        mesh, quad, fgrid = small_setup()
        mat = InverseCubeMaterial(fgrid)
        T, dt = 0.8, 0.05
        B = group_planck(T, fgrid)
        kappa = mat.group_opacity(np.full((mesh.ny, mesh.nx), T))
        psi_prev = np.broadcast_to(B[:, None], (mesh.ny, mesh.nx, fgrid.n_groups, quad.n_directions)).copy()
        inflow = BoundaryInflow(left=B, right=B, bottom=B, top=B)
        res = sweep(mesh, quad, kappa, kappa * B[:, None, None], psi_prev=psi_prev, dt=dt, inflow=inflow)
        np.testing.assert_allclose(res.psi, np.broadcast_to(B[None, None, :, None], res.psi.shape), rtol=1e-13)

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
        res = sweep(mesh, quad, kappa, source, psi_prev=psi_prev, dt=dt, inflow=inflow)

        sink = 1.0 / (C * dt)
        E_prev = np.einsum("yxgm,m->gyx", psi_prev, quad.weight) / C
        div = (res.Fx[:, :, 1:] - res.Fx[:, :, :-1]) * mesh.dy + (res.Fy[:, 1:, :] - res.Fy[:, :-1, :]) * mesh.dx
        lhs = div + (kappa + sink) * C * res.E * mesh.cell_volume
        rhs = (4.0 * np.pi * source + sink * C * E_prev) * mesh.cell_volume
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_symmetric_problem_gives_symmetric_field(self):
        mesh, quad, fgrid = small_setup(nx=4, ny=4, groups=(1.0,), lx=1.0, ly=1.0)
        kappa = np.full((1, 4, 4), 0.9)
        source = np.full((1, 4, 4), 0.2)
        inflow = BoundaryInflow(*(np.ones(1),) * 4)
        res = sweep(mesh, quad, kappa, source, inflow=inflow)
        E = res.E[0]
        np.testing.assert_allclose(E, E.T, rtol=1e-13)
        np.testing.assert_allclose(E, E[::-1, :], rtol=1e-13)
        np.testing.assert_allclose(E, E[:, ::-1], rtol=1e-13)

    def test_boundary_outgoing_sums_at_equilibrium(self):
        # Isotropic field of magnitude B: outgoing weights sum to 2 pi B per
        # boundary face and the flux-to-density ratio sits near one half.
        mesh, quad, fgrid = small_setup(groups=(1.0,))
        B = np.array([0.6])
        kappa = np.full((1, mesh.ny, mesh.nx), 2.0)
        inflow = BoundaryInflow(*(B,) * 4)
        res = sweep(mesh, quad, kappa, kappa * B[:, None, None], inflow=inflow)
        np.testing.assert_allclose(res.bface_wI, 2.0 * np.pi * B[0], rtol=1e-12)
        # The flux-to-density ratio carries the half-range current of the
        # quadrature; the coarse set is ~7% high, a fine set almost exact.
        ratio = res.bface_wnI / res.bface_wI
        assert np.all(np.abs(ratio - 0.5) < 0.05)

        fine = build_angular_quadrature(6, 24)
        res_f = sweep(mesh, fine, kappa, kappa * B[:, None, None], inflow=inflow)
        ratio_f = res_f.bface_wnI / res_f.bface_wI
        assert np.all(np.abs(ratio_f - 0.5) < 0.005)
        assert np.abs(ratio_f - 0.5).max() < np.abs(ratio - 0.5).min()

    def test_moments_match_direct_sum(self):
        mesh, quad, fgrid = small_setup()
        G = fgrid.n_groups
        rng = np.random.default_rng(3)
        kappa = rng.uniform(0.2, 2.0, (G, mesh.ny, mesh.nx))
        source = rng.uniform(0.0, 1.0, (G, mesh.ny, mesh.nx))
        res = sweep(mesh, quad, kappa, source, inflow=BoundaryInflow(left=np.ones(G)))
        E, F = cell_moments(res.psi, quad)
        np.testing.assert_allclose(res.E, E, rtol=1e-13)
        assert F.shape == (2, G, mesh.ny, mesh.nx)


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
        psi = np.broadcast_to(B_rad[:, None], (1, 1, 1, quad.n_directions)).copy()
        E0, _ = cell_moments(psi, quad)
        state = TransportState(0.0, np.ones((1, 1)), psi, E0, np.zeros((1, 1, 2)), np.zeros((1, 2, 1)))

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
        assert hist.n_levels == 5
        assert hist.label == "fom"
        np.testing.assert_allclose(hist.times, 0.1 * np.arange(5), atol=1e-15)
        assert hist.T.shape == (5, 2, 3)
        assert hist.E.shape == (5, 17, 2, 3)
        assert hist.Fx.shape == (5, 17, 2, 4)
        assert hist.Fy.shape == (5, 17, 3, 3)
        assert len(hist.diagnostics) == 4

    def test_callback_fires(self):
        problem = benchmark_like_problem(nx=2, ny=2)
        seen = []
        run_fom(problem, 1e-3, 0.1, 3, callback=lambda n, s, d: seen.append(n))
        assert seen == [0, 1, 2]


class TestEnergyAccounting:
    def test_net_outflow_sign(self):
        mesh, quad, fgrid = small_setup(groups=(1.0,))
        zero = np.zeros((1, mesh.ny, mesh.nx))
        res = sweep(mesh, quad, zero, zero, inflow=BoundaryInflow(left=np.ones(1)))
        # transparent medium, pure inflow from the left: net outflow is the
        # reemerging radiation minus the drive, hence negative (net gain).
        assert boundary_net_outflow(res.Fx, res.Fy, mesh) < 0.0

    def test_balance_residual_matches_budget(self):
        problem = benchmark_like_problem(nx=3, ny=3)
        s0 = initial_transport_state(problem, 1e-3)
        s1, diag = fom_step(problem, s0, 0.1)
        direct = energy_balance_residual(s0, s1, 0.1, problem.mesh, problem.eos)
        assert diag.balance_residual == pytest.approx(direct, rel=1e-12)
        assert direct < 1e-8
