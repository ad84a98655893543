"""Tests for the P1, P1/3, and flux-limited diffusion moment models."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from ddvef.diffusion import (
    BoundaryCondition,
    DiffusionProblem,
    MomentState,
    MomentSystem,
    boundary_cells,
    diffusion_step,
    face_cells,
    first_moment_faces,
    flux_limit_ratio,
    initial_moment_state,
    larsen_coefficient,
    run_diffusion_model,
    standard_boundaries,
)
from ddvef.errors import ConfigError, SolverError
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
# the moment system: cached stencil and one block-diagonal solve
# ---------------------------------------------------------------------------


def moment_tables(mesh, G, vef, seed=0):
    """A MomentSystem with P1 faces (K = 2) or VEF faces (K = 6, non-zero f_xy) and its solve inputs."""
    rng = np.random.default_rng(seed)
    shape = (G, mesh.ny, mesh.nx)
    kappa = rng.uniform(0.1, 10.0, shape)
    state = MomentState(
        0.0, np.ones(shape[1:]), rng.uniform(0.5, 2.0, shape),
        rng.normal(size=(G, mesh.ny, mesh.nx + 1)), rng.normal(size=(G, mesh.ny + 1, mesh.nx)),
    )
    dt, nb = 0.05, mesh.n_boundary_faces
    alpha = 1.0 / (C * dt)
    if vef:
        x, y = first_moment_faces(
            mesh, C, kappa, alpha, state,
            rng.uniform(0.2, 0.5, (G, mesh.ny, mesh.nx - 1)), rng.uniform(0.2, 0.5, (G, mesh.ny - 1, mesh.nx)),
            rng.uniform(-0.1, 0.1, shape),
            rng.normal(size=(G, mesh.ny, mesh.nx - 1)), rng.normal(size=(G, mesh.ny - 1, mesh.nx)),
        )
        b_coef = C * rng.uniform(0.3, 0.6, (G, nb)) * rng.uniform(0.5, 1.5, (G, nb))
    else:
        x, y = first_moment_faces(mesh, C, kappa, alpha, state, 1.0 / 3.0, 1.0 / 3.0)
        b_coef = np.full((G, nb), 0.5 * C)
    system = MomentSystem(mesh, x, y, b_coef, -rng.uniform(0.0, 2.0, (G, nb)))
    return system, (dt, C * kappa, rng.uniform(0.0, 5.0, shape), state.E)


def per_group_systems(system, dt, ckappa, source, E_prev):
    """Reference: the per-group systems (A_g, rhs_g) that were solved one spsolve call each,
    with div0 taken from the fluxes of zero energies."""
    mesh = system.mesh
    G, N = E_prev.shape[0], mesh.n_cells
    Fx0, Fy0 = system.fluxes(np.zeros_like(E_prev))
    div0 = (Fx0[:, :, 1:] - Fx0[:, :, :-1]) / mesh.dx + (Fy0[:, 1:, :] - Fy0[:, :-1, :]) / mesh.dy
    rhs = (E_prev / dt + source - div0).reshape(G, N)
    rows, cols, vals = [np.arange(N)], [np.arange(N)], [1.0 / dt + ckappa.reshape(G, N)]
    for form, cells, width in ((system.x, face_cells(mesh)[0], mesh.dx), (system.y, face_cells(mesh)[1], mesh.dy)):
        K = len(form.coef)
        coef = form.coef.transpose(1, 0, 2).reshape(G, -1) / width
        for owner, sign in ((cells[0], 1.0), (cells[1], -1.0)):
            rows.append(np.tile(owner, K))
            cols.append(cells[:K].ravel())
            vals.append(sign * coef)
    b_cells = boundary_cells(mesh)[0]
    rows.append(b_cells)
    cols.append(b_cells)
    vals.append(system.b_coef / system.b_width)
    keys = np.concatenate(rows) * N + np.concatenate(cols)
    slots, slot_of = np.unique(keys, return_inverse=True)
    gather = sp.csr_matrix((np.ones(keys.size), (np.arange(keys.size), slot_of)), shape=(keys.size, slots.size))
    data = np.asarray(np.concatenate(vals, axis=1) @ gather)
    coupled = np.any(data != 0.0, axis=0)
    slots, data = slots[coupled], data[:, coupled]
    indptr = np.searchsorted(slots // N, np.arange(N + 1))
    return [(sp.csr_matrix((data[g], slots % N, indptr), shape=(N, N)), rhs[g]) for g in range(G)]


def solve_capturing(system, args, monkeypatch):
    """Solve the system and return the energies with the arguments of every spsolve call."""
    calls = []
    solve = spla.spsolve
    monkeypatch.setattr(spla, "spsolve", lambda A, b, **kw: calls.append((A, b)) or solve(A, b, **kw))
    return system.solve(*args), calls


class TestMomentSystem:
    @pytest.mark.parametrize("vef", [False, True])
    @pytest.mark.parametrize("nx, ny", [(8, 8), (6, 5)])
    def test_one_block_solve_matches_per_group_solves(self, monkeypatch, vef, nx, ny):
        system, args = moment_tables(SpatialMesh(nx, ny, 6.0, 6.0), 4, vef)
        assert len(system.x.coef) == len(system.y.coef) == (6 if vef else 2)
        reference = per_group_systems(system, *args)
        E, calls = solve_capturing(system, args, monkeypatch)
        assert len(calls) == 1
        (A, b), N = calls[0], nx * ny
        for g, (A_g, b_g) in enumerate(reference):
            block = slice(g * N, (g + 1) * N)
            assert A[block, block].nnz == A_g.nnz and (A[block, block] != A_g).nnz == 0
            np.testing.assert_array_equal(b[block], b_g)
        E_ref = np.stack([spla.spsolve(A_g, b_g) for A_g, b_g in reference]).reshape(E.shape)
        np.testing.assert_allclose(E, E_ref, rtol=1e-13, atol=0.0)

    def test_p1_block_solve_is_bitwise_on_the_benchmark_mesh(self, monkeypatch):
        # The blocks are the per-group matrices exactly (above); only the
        # factorization's column order can differ, and on the 8 x 8
        # benchmark mesh it does not.
        system, args = moment_tables(SpatialMesh(8, 8, 6.0, 6.0), 17, vef=False)
        E = np.stack([spla.spsolve(A_g, b_g) for A_g, b_g in per_group_systems(system, *args)])
        np.testing.assert_array_equal(system.solve(*args), E.reshape(args[3].shape))

    def test_one_spsolve_per_picard_pass(self, monkeypatch):
        calls = []
        solve = spla.spsolve
        monkeypatch.setattr(spla, "spsolve", lambda *a, **kw: calls.append(1) or solve(*a, **kw))
        prob = benchmark_problem()
        _, diag = diffusion_step(prob, initial_moment_state(prob, 1e-3), 0.1, "p1")
        assert diag.picard_iterations > 1
        assert len(calls) == diag.picard_iterations

    @pytest.mark.parametrize("filter_", ["error", "ignore"])
    @pytest.mark.parametrize("group", [0, 1, 2])
    def test_singular_group_is_named(self, filter_, group):
        # Reflective sides, no time derivative and no absorption leave the
        # group's balance a pure Neumann diffusion operator: singular.
        # Uniform coefficients make the zero pivot exact.
        mesh, G = SpatialMesh(2, 2, 2.0, 2.0), 3
        kappa = np.ones((G, 2, 2))
        state = MomentState(0.0, np.ones((2, 2)), np.ones((G, 2, 2)), np.zeros((G, 2, 3)), np.zeros((G, 3, 2)))
        x, y = first_moment_faces(mesh, C, kappa, 0.0, state, 1.0 / 3.0, 1.0 / 3.0)
        system = MomentSystem(mesh, x, y, np.zeros((G, 8)), np.zeros((G, 8)))
        ckappa = C * kappa
        ckappa[group] = 0.0
        source, E_prev = np.ones((G, 2, 2)), state.E
        with warnings.catch_warnings():
            warnings.simplefilter(filter_, spla.MatrixRankWarning)
            with pytest.raises(SolverError) as info:
                system.solve(np.inf, ckappa, source, E_prev)
        assert info.value.group == group

    def test_cached_stencil_equals_a_fresh_build_and_is_read_only(self):
        mesh = SpatialMesh(5, 4, 5.0, 2.0)
        fx, fy = face_cells(mesh)
        assert face_cells(SpatialMesh(5, 4, 5.0, 2.0))[0] is fx
        face_cells.cache_clear()
        boundary_cells.cache_clear()
        fresh_x, fresh_y = face_cells(mesh)
        np.testing.assert_array_equal(fx, fresh_x)
        np.testing.assert_array_equal(fy, fresh_y)
        idx = np.arange(mesh.n_cells).reshape(mesh.ny, mesh.nx)
        np.testing.assert_array_equal(fx[:2], [idx[:, :-1].ravel(), idx[:, 1:].ravel()])
        cells, sign, width = boundary_cells(mesh)
        np.testing.assert_array_equal(cells, np.concatenate([idx[:, 0], idx[:, -1], idx[0], idx[-1]]))
        np.testing.assert_array_equal(sign, np.repeat([-1.0, 1.0, -1.0, 1.0], [4, 4, 5, 5]))
        np.testing.assert_array_equal(width, np.repeat([1.0, 1.0, 0.5, 0.5], [4, 4, 5, 5]))
        for arr in (fx, fy, cells, sign, width):
            with pytest.raises(ValueError):
                arr[0] = 0


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
