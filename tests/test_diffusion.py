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
    FaceForms,
    MomentState,
    MomentSystem,
    _fld_faces,
    _marshak_boundary,
    _red_black,
    _template,
    diffusion_step,
    first_moment_faces,
    initial_moment_state,
    larsen_coefficient,
    run_diffusion_model,
    standard_boundaries,
)
from ddvef.errors import ConfigError, SolverError
from ddvef.grid import (
    SIDES, SpatialMesh, boundary_cells, boundary_flux, build_frequency_grid, face_cells, face_means, interior_fluxes,
    padded_fluxes,
)
from ddvef.history import energy_balance_residual
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
    @settings(max_examples=200)
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


def fld_fields(seed=0):
    """A 4 x 3 mesh with a diffusive group (kappa 1e3) and a free-streaming
    one (kappa 1e-6), and energies that vary by up to e^6 between cells."""
    rng = np.random.default_rng(seed)
    mesh = SpatialMesh(4, 3, 2.0, 1.5)
    kappa = np.stack([np.full((3, 4), 1.0e3), np.full((3, 4), 1.0e-6)])
    return mesh, kappa, np.exp(rng.uniform(-3.0, 3.0, (2, 3, 4)))


def face_values(mesh, E):
    """(E_lo, E_hi, width) of every interior face, x-faces then y-faces, taken by slicing E: (G, n_faces) each."""
    G = E.shape[0]
    lo = np.concatenate([E[:, :, :-1].reshape(G, -1), E[:, :-1, :].reshape(G, -1)], axis=1)
    hi = np.concatenate([E[:, :, 1:].reshape(G, -1), E[:, 1:, :].reshape(G, -1)], axis=1)
    return lo, hi, np.repeat([mesh.dx, mesh.dy], [mesh.ny * (mesh.nx - 1), (mesh.ny - 1) * mesh.nx])


def kappa_means(mesh, kappa):
    """Arithmetic face means of the opacity, in the order of face_values."""
    lo, hi, _ = face_values(mesh, kappa)
    return 0.5 * (lo + hi)


def limited_flux(kappa_f, E_lo, E_hi, width):
    """-c D g with Larsen's D at the face mean and g = (E_hi - E_lo) / width."""
    g = (E_hi - E_lo) / width
    return -C * larsen_coefficient(kappa_f, 0.5 * (E_lo + E_hi), g) * g


class TestFldNewtonFaces:
    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    def test_form_at_the_lagged_energy_is_the_limited_flux(self, theta):
        mesh, kappa, E = fld_fields()
        form, (E_lo, E_hi, width) = _fld_faces(mesh, kappa, E, theta), face_values(mesh, E)
        assert np.all(form.base == 0.0)
        F = form.coef[0] * E_lo + form.coef[1] * E_hi
        np.testing.assert_array_equal(face_means(mesh, kappa), kappa_means(mesh, kappa))
        reference = limited_flux(kappa_means(mesh, kappa), E_lo, E_hi, width)
        np.testing.assert_allclose(F, reference, rtol=1.0e-13, atol=0.0)
        # group 0 diffuses (|F| well below c E_f), group 1 streams (|F| close to c E_f)
        ratio = np.abs(reference) / (C * 0.5 * (E_lo + E_hi))
        assert ratio[0].max() < 1.0e-2 and ratio[1].min() > 0.5

    def test_newton_coefficients_are_the_jacobian_of_the_limited_flux(self):
        mesh, kappa, E = fld_fields(1)
        h, kf = 1.0e-6, kappa_means(mesh, kappa)
        form, plain = _fld_faces(mesh, kappa, E, 1.0), _fld_faces(mesh, kappa, E, 0.0)
        E_lo, E_hi, width = face_values(mesh, E)
        d_lo = (limited_flux(kf, E_lo * (1 + h), E_hi, width) - limited_flux(kf, E_lo * (1 - h), E_hi, width)) / (2 * h * E_lo)
        d_hi = (limited_flux(kf, E_lo, E_hi * (1 + h), width) - limited_flux(kf, E_lo, E_hi * (1 - h), width)) / (2 * h * E_hi)
        # near-zero coefficients are compared against the Picard scale w
        np.testing.assert_allclose(form.coef[0], d_lo, rtol=1.0e-6, atol=1.0e-8 * np.abs(plain.coef[0]).max())
        np.testing.assert_allclose(form.coef[1], d_hi, rtol=1.0e-6, atol=1.0e-8 * np.abs(plain.coef[0]).max())
        assert not np.allclose(form.coef, plain.coef, rtol=1.0e-3)

    def test_blend_is_linear_in_theta(self):
        mesh, kappa, E = fld_fields(2)
        half, picard, newton = (_fld_faces(mesh, kappa, E, theta) for theta in (0.5, 0.0, 1.0))
        np.testing.assert_allclose(half.coef, 0.5 * (picard.coef + newton.coef), rtol=1.0e-14, atol=0.0)

    def test_faces_on_the_energy_floor_keep_the_picard_coefficient(self):
        # The two left columns sit 1e-40 below the rest, under the limiter's
        # 1e-30 floor, one floor over all faces of the field; their faces
        # keep the Picard form at any theta.
        mesh, kappa, E = fld_fields(3)
        E[:, :, :2] *= 1.0e-40
        form, plain = _fld_faces(mesh, kappa, E, 1.0), _fld_faces(mesh, kappa, E, 0.0)
        E_lo, E_hi, _ = face_values(mesh, E)
        Ef = 0.5 * (E_lo + E_hi)
        floor = 1.0e-30 * Ef.max()
        assert np.all(np.isfinite(form.coef))
        assert np.any(Ef < floor) and np.any(Ef > floor)
        np.testing.assert_array_equal(form.coef[:, Ef < floor], plain.coef[:, Ef < floor])
        assert np.any(form.coef[:, Ef > floor] != plain.coef[:, Ef > floor])


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
        for T_drive in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ConfigError):
                BoundaryCondition("drive", T_drive)

    def test_standard_layout(self):
        bcs = standard_boundaries(1.0)
        assert bcs["left"].kind == "drive"
        assert all(bcs[s].kind == "vacuum" for s in ("right", "bottom", "top"))

    @pytest.mark.parametrize("sides", [("lft",), ("left", "Top")])
    def test_unknown_side_rejected(self, sides):
        with pytest.raises(ConfigError, match=sides[-1]):
            standard_boundaries(1.0, sides)

    def test_missing_side_rejected(self):
        fgrid = build_frequency_grid((1.0,))
        with pytest.raises(ConfigError):
            DiffusionProblem(
                SpatialMesh(2, 2, 1.0, 1.0), fgrid, ConstantOpacity(fgrid, np.ones(1)),
                MaterialEOS(1.0), {"left": BoundaryCondition("vacuum")},
            )

    def test_boundary_entry_that_is_not_a_condition_rejected(self):
        # A kind name in place of its BoundaryCondition used to construct and
        # fail on the first step with an AttributeError.
        fgrid = build_frequency_grid((1.0,))
        for boundaries in ({side: "vacuum" for side in SIDES}, dict(standard_boundaries(1.0), top=None)):
            with pytest.raises(ConfigError, match="top"):
                DiffusionProblem(
                    SpatialMesh(2, 2, 1.0, 1.0), fgrid, ConstantOpacity(fgrid, np.ones(1)), MaterialEOS(1.0), boundaries,
                )

    def test_unknown_side_key_rejected(self):
        fgrid = build_frequency_grid((1.0,))
        with pytest.raises(ConfigError, match="lft"):
            DiffusionProblem(
                SpatialMesh(2, 2, 1.0, 1.0), fgrid, ConstantOpacity(fgrid, np.ones(1)),
                MaterialEOS(1.0), dict(standard_boundaries(1.0), lft=BoundaryCondition("vacuum")),
            )

    def test_inflow_current_is_planckian(self):
        fgrid = build_frequency_grid()
        prob = DiffusionProblem(
            SpatialMesh(2, 2, 1.0, 1.0), fgrid, InverseCubeMaterial(fgrid),
            MaterialEOS(1.0), standard_boundaries(1.0),
        )
        F_in = prob.incoming_currents()
        assert F_in.shape == (4, fgrid.n_groups)
        np.testing.assert_allclose(F_in[0], np.pi * group_planck(1.0, fgrid), rtol=1e-14)
        assert np.all(F_in[1:] == 0.0)


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


def flux_limit_ratio(state: MomentState) -> float:
    """Max |F| / (c E_face) over interior faces: FLD keeps this <= 1."""
    E = state.E
    Efx, Efy = 0.5 * (E[:, :, 1:] + E[:, :, :-1]), 0.5 * (E[:, 1:, :] + E[:, :-1, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        rx = np.abs(state.Fx[:, :, 1:-1]) / (C * Efx)
        ry = np.abs(state.Fy[:, 1:-1, :]) / (C * Efy)
    vals = np.concatenate([rx[np.isfinite(rx)].ravel(), ry[np.isfinite(ry)].ravel()])
    return float(vals.max()) if vals.size else 0.0


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

    @pytest.mark.parametrize("model", ["p1", "fld"])
    @pytest.mark.parametrize("dt", [0.0, -0.02, np.nan])
    def test_bad_time_step_rejected(self, model, dt):
        # Without the check a zero step divides by zero, a negative one
        # fails in the Newton and nan in the factorization.
        prob = benchmark_problem()
        with pytest.raises(ConfigError, match="time step"):
            diffusion_step(prob, initial_moment_state(prob, 1e-3), dt, model)

    @pytest.mark.parametrize("n_steps", [-3, 2.0, 1.5, "2", True])
    def test_bad_step_count_rejected(self, n_steps):
        # Without the check a negative count returns the initial level
        # alone and a non-integer one fails inside range with a TypeError.
        with pytest.raises(ConfigError, match="steps"):
            run_diffusion_model(benchmark_problem(), "p1", 1e-3, 0.02, n_steps)


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


def moment_tables(mesh, G, vef, seed=0, dt=0.05):
    """A MomentSystem, its step's (dt, E_prev) and the (faces, c kappa,
    source) of one pass: P1 faces (vef False), VEF faces (True: random
    factors, remainders and boundary factors) or FLD's Newton faces at
    theta = 1 ("fld", on a random lagged energy)."""
    rng = np.random.default_rng(seed)
    shape = (G, mesh.ny, mesh.nx)
    kappa = rng.uniform(0.1, 10.0, shape)
    state = MomentState(
        0.0, np.ones(shape[1:]), rng.uniform(0.5, 2.0, shape),
        rng.normal(size=(G, mesh.ny, mesh.nx + 1)), rng.normal(size=(G, mesh.ny + 1, mesh.nx)),
    )
    nb, nf = mesh.n_boundary_faces, face_cells(mesh)[1].size
    alpha, F_prev = 1.0 / (C * dt), interior_fluxes(state.Fx, state.Fy)
    b_coef = np.full((G, nb), 0.5 * C)
    if vef == "fld":
        faces = _fld_faces(mesh, kappa, rng.uniform(0.5, 2.0, shape), 1.0)
    elif vef:
        faces = first_moment_faces(mesh, kappa, alpha, F_prev, rng.uniform(0.2, 0.5, (G, nf)), rng.normal(size=(G, nf)))
        b_coef = C * rng.uniform(0.3, 0.6, (G, nb)) * rng.uniform(0.5, 1.5, (G, nb))
    else:
        faces = first_moment_faces(mesh, kappa, alpha, F_prev, 1.0 / 3.0)
    system = MomentSystem(mesh, dt, state.E, b_coef, -rng.uniform(0.0, 2.0, (G, nb)))
    return system, (dt, state.E), (faces, C * kappa, rng.uniform(0.0, 5.0, shape))


def per_group_systems(system, dt, E_prev, faces, ckappa, source):
    """Reference: each group's full balance (A_g, rhs_g) over all cells in flat
    order, with div0 taken from the fluxes of zero energies. Each face's
    coefficients are listed in the rows of its low- then high-side cell,
    over the face table."""
    mesh = system.mesh
    G, N = E_prev.shape[0], mesh.n_cells
    Fx0, Fy0 = system.fluxes(faces, np.zeros_like(E_prev))
    div0 = (Fx0[:, :, 1:] - Fx0[:, :, :-1]) / mesh.dx + (Fy0[:, 1:, :] - Fy0[:, :-1, :]) / mesh.dy
    rhs = (E_prev / dt + source - div0).reshape(G, N)
    rows, cols, vals = [np.arange(N)], [np.arange(N)], [1.0 / dt + ckappa.reshape(G, N)]
    cells, width = face_cells(mesh)
    coef = (faces.coef / width).transpose(1, 0, 2).reshape(G, -1)
    for owner, sign in ((cells[0], 1.0), (cells[1], -1.0)):
        rows.append(np.tile(owner, 2))
        cols.append(cells.ravel())
        vals.append(sign * coef)
    b_cells, b_width = boundary_cells(mesh)
    rows.append(b_cells)
    cols.append(b_cells)
    vals.append(system.b_coef / b_width)
    A = [sp.csr_matrix((v, (np.concatenate(rows), np.concatenate(cols))), shape=(N, N)) for v in np.concatenate(vals, axis=1)]
    return list(zip(A, rhs))


def capture_spsolve(monkeypatch):
    """Record a copy of the matrix and the right-hand side of every spsolve call.

    The matrix is copied at the call, because a step refills one matrix on every pass.
    """
    calls = []
    solve = spla.spsolve
    monkeypatch.setattr(spla, "spsolve", lambda A, b, **kw: calls.append((A.copy(), b.copy())) or solve(A, b, **kw))
    return calls


def solve_capturing(system, args, monkeypatch):
    """Solve one pass of the system and return the energies with the arguments of every spsolve call."""
    calls = capture_spsolve(monkeypatch)
    return system.solve(*args), calls


def black_values(mesh, E):
    """A (G, ny, nx) field on the black cells, (G, n_black), in their reduced-system numbers."""
    rank, n_red = _red_black(mesh)[0], mesh.n_cells - mesh.n_cells // 2
    return E.reshape(E.shape[0], -1)[:, np.argsort(rank)[n_red:]]


def assert_solves_its_own_blocks(E, S, b):
    """The one block-diagonal solve repeats a natural-order spsolve of every group's reduced block bit for bit."""
    G, n = E.shape[0], S.shape[0] // E.shape[0]
    for g in range(G):
        block = slice(g * n, (g + 1) * n)
        np.testing.assert_array_equal(E[g], spla.spsolve(S[block, block], b[block], permc_spec="NATURAL"))


def assert_matches_dense_solves(E, system, step, args, normwise=False):
    """The energies E of a pass equal a dense solve of every group's full
    balance to DENSE_RTOL: elementwise, or relative to the group's largest
    energy (normwise)."""
    for g, (A_g, b_g) in enumerate(per_group_systems(system, *step, *args)):
        exact = np.linalg.solve(A_g.toarray(), b_g)
        atol = DENSE_RTOL * np.abs(exact).max() if normwise else 0.0
        np.testing.assert_allclose(E[g].ravel(), exact, rtol=0.0 if normwise else DENSE_RTOL, atol=atol)


#: Elementwise relative difference allowed between the reduced solve and a
#: dense solve of a group's full balance: the largest seen over 20 seeds of
#: moment_tables on the meshes of test_one_block_solve_matches_per_group_solves
#: was 1.3e-15.
DENSE_RTOL = 1.0e-14


class TestMomentSystem:
    @pytest.mark.parametrize("vef", [False, True, "fld"])
    @pytest.mark.parametrize("nx, ny", [(8, 8), (6, 5), (1, 1), (1, 4), (4, 1)])
    def test_one_block_solve_matches_per_group_solves(self, monkeypatch, vef, nx, ny):
        mesh = SpatialMesh(nx, ny, 6.0, 6.0)
        system, step, args = moment_tables(mesh, 4, vef)
        assert args[0].coef.shape == (2, 4, ny * (nx - 1) + (ny - 1) * nx)
        E, calls = solve_capturing(system, args, monkeypatch)
        assert len(calls) == 1
        (S, b), n_black = calls[0], mesh.n_cells // 2
        assert S.shape == (4 * n_black, 4 * n_black)
        assert_solves_its_own_blocks(black_values(mesh, E), S, b)
        # Against a dense solve of every group's full balance over both colours.
        assert_matches_dense_solves(E, system, step, args)

    @given(
        nx=st.integers(1, 5),
        ny=st.integers(1, 5),
        aspect=st.floats(0.2, 5.0),
        G=st.sampled_from([1, 2, 17]),
        kind=st.sampled_from([False, True, "fld"]),
        dt=st.floats(1.0e-3, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100)
    def test_random_systems_match_dense_solves(self, nx, ny, aspect, G, kind, dt, seed):
        # On small meshes of any cell aspect ratio (dx / dy), any group count,
        # P1, VEF or FLD Newton faces, any dt and random boundary tables, two
        # passes of one step's system each give the energies of a dense
        # solve of every group's full balance; S is bitwise symmetric
        # wherever the faces are (P1 and the VEF). The bound is relative to
        # each group's largest energy: remainders and outward boundary bases
        # of either sign leave some energies near zero or negative, where
        # the dense reference itself is accurate only to rounding of the
        # largest (over 600 draws: 4.6e-14 elementwise, 1.9e-15 normwise).
        mesh = SpatialMesh(nx, ny, 1.5 * nx, 1.5 * ny / aspect)
        _, step, args = moment_tables(mesh, G, kind, seed, dt)
        rng = np.random.default_rng(seed)
        nb = mesh.n_boundary_faces
        system = MomentSystem(mesh, *step, C * rng.uniform(0.0, 0.6, (G, nb)), rng.normal(size=(G, nb)))
        for pass_args in (args, moment_tables(mesh, G, kind, seed + 1, dt)[2]):
            assert_matches_dense_solves(system.solve(*pass_args), system, step, pass_args, normwise=True)
            if kind != "fld":
                assert (system.S != system.S.T).nnz == 0

    @pytest.mark.parametrize("vef", [False, True])
    def test_stored_fluxes_balance_every_cell(self, vef):
        # The fluxes rebuilt from the tables are the ones the solve balanced:
        # E/dt + div F + c kappa E = E_prev/dt + source in every cell and group.
        mesh = SpatialMesh(6, 5, 6.0, 6.0)
        system, (dt, E_prev), (faces, ckappa, source) = moment_tables(mesh, 4, vef)
        E = system.solve(faces, ckappa, source)
        Fx, Fy = system.fluxes(faces, E)
        div = (Fx[:, :, 1:] - Fx[:, :, :-1]) / mesh.dx + (Fy[:, 1:, :] - Fy[:, :-1, :]) / mesh.dy
        np.testing.assert_allclose(E / dt + div + ckappa * E, E_prev / dt + source, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("vef", [False, True])
    @pytest.mark.parametrize("nx, ny", [(1, 1), (1, 4), (4, 1), (6, 5)], ids=["1x1", "1x4", "4x1", "6x5"])
    def test_face_tables_round_trip_through_the_padded_fluxes(self, vef, nx, ny):
        # interior_fluxes and boundary_flux read back from Fx, Fy exactly the
        # interior-face and outward boundary currents the tables give, and
        # padded_fluxes writes them back; on one-cell-wide meshes a table is empty.
        mesh = SpatialMesh(nx, ny, 6.0, 3.0)
        system, (dt, E), (faces, _, _) = moment_tables(mesh, 4, vef)
        Fx, Fy = system.fluxes(faces, E)
        Ef = E.reshape(4, -1)
        cells = face_cells(mesh)[0]
        interior = faces.base + (faces.coef * Ef[:, cells].transpose(1, 0, 2)).sum(axis=0)
        outward = system.b_coef * Ef[:, boundary_cells(mesh)[0]] + system.b_base
        np.testing.assert_array_equal(interior_fluxes(Fx, Fy), interior)
        np.testing.assert_array_equal(boundary_flux(Fx, Fy), outward)
        for padded, flux in zip(padded_fluxes(mesh, interior_fluxes(Fx, Fy), boundary_flux(Fx, Fy)), (Fx, Fy)):
            np.testing.assert_array_equal(padded, flux)
        rng = np.random.default_rng(1)
        interior, outward = rng.normal(size=interior.shape), rng.normal(size=outward.shape)
        Fx, Fy = padded_fluxes(mesh, interior, outward)
        np.testing.assert_array_equal(interior_fluxes(Fx, Fy), interior)
        np.testing.assert_array_equal(boundary_flux(Fx, Fy), outward)
        # the outward current is -Fx on the left and -Fy on the bottom
        np.testing.assert_array_equal(outward[:, mesh.boundary_slice("left")], -Fx[:, :, 0])
        np.testing.assert_array_equal(outward[:, mesh.boundary_slice("bottom")], -Fy[:, 0, :])
        # The energy budget's boundary flow is the padded edge fluxes times
        # the face areas: a material cooling that pays for it exactly
        # leaves no defect, and the flow of the opposite sign a large one.
        flow = (Fx[:, :, -1] - Fx[:, :, 0]).sum() * mesh.dy + (Fy[:, -1] - Fy[:, 0]).sum() * mesh.dx
        new, eos = MomentState(0.0, np.ones((ny, nx)), E, Fx, Fy), MaterialEOS(1.0)
        shift = dt * flow / (mesh.cell_volume * mesh.n_cells)
        paid, reversed_sign = (MomentState(0.0, new.T + sign * shift, E, Fx, Fy) for sign in (1.0, -1.0))
        assert energy_balance_residual(paid, new, dt, mesh, eos) < 1e-14
        assert energy_balance_residual(reversed_sign, new, dt, mesh, eos) > 1e-3

    def test_p1_block_solve_is_bitwise_on_the_benchmark_mesh(self, monkeypatch):
        # Every reduced block is factored in the numbering it is given, so the
        # one solve of all 17 groups repeats the per-group solves bit for bit.
        mesh = SpatialMesh(8, 8, 6.0, 6.0)
        system, _, args = moment_tables(mesh, 17, vef=False)
        E, [(S, b)] = solve_capturing(system, args, monkeypatch)
        assert_solves_its_own_blocks(black_values(mesh, E), S, b)

    def test_one_spsolve_per_picard_pass(self, monkeypatch):
        calls = []
        solve = spla.spsolve
        monkeypatch.setattr(spla, "spsolve", lambda *a, **kw: calls.append(1) or solve(*a, **kw))
        prob = benchmark_problem()
        _, diag = diffusion_step(prob, initial_moment_state(prob, 1e-3), 0.1, "p1")
        assert diag.picard_iterations > 1
        assert len(calls) == diag.picard_iterations

    @pytest.mark.parametrize("model", MODELS)
    def test_each_step_builds_one_system_and_one_matrix(self, monkeypatch, model):
        # The system and its reduced matrix are built once per step; every
        # pass refills that one matrix and hands it to its one spsolve.
        built, matrices = [], []
        init, csr, solve = MomentSystem.__init__, sp.csr_matrix, spla.spsolve
        monkeypatch.setattr(MomentSystem, "__init__", lambda *a, **kw: built.append(1) or init(*a, **kw))
        monkeypatch.setattr(sp, "csr_matrix", lambda *a, **kw: matrices.append(1) or csr(*a, **kw))
        calls = []
        monkeypatch.setattr(spla, "spsolve", lambda A, *a, **kw: calls.append(A) or solve(A, *a, **kw))
        prob = benchmark_problem()
        _, diag = diffusion_step(prob, initial_moment_state(prob, 1e-3), 0.1, model)
        assert diag.picard_iterations > 1
        assert len(calls) == diag.picard_iterations
        assert len(built) == len(matrices) == 1
        assert all(A is calls[0] for A in calls)
        # spsolve left the refilled matrix's structure as the template laid it out
        indices, indptr = _template(prob.mesh, prob.fgrid.n_groups)[:2]
        np.testing.assert_array_equal(calls[0].indices, indices)
        np.testing.assert_array_equal(calls[0].indptr, indptr)

    @pytest.mark.parametrize("model", MODELS)
    def test_refilled_matrix_equals_a_fresh_assembly(self, monkeypatch, model):
        # Every later pass hands spsolve the same CSR matrix, bit for bit in
        # values, indices and row pointers, that a system built afresh for
        # the step assembles from that pass's faces, absorption and source;
        # and spsolve leaves that matrix as it was handed over.
        passes, solve = [], MomentSystem.solve
        monkeypatch.setattr(MomentSystem, "solve", lambda self, *args: passes.append(args) or solve(self, *args))
        calls = capture_spsolve(monkeypatch)
        prob = benchmark_problem()
        state = initial_moment_state(prob, 1e-3)
        _, diag = diffusion_step(prob, state, 0.1, model)
        assert diag.picard_iterations == len(passes) == len(calls) > 2
        boundary = _marshak_boundary(prob, prob.incoming_currents())
        for args, (S, _) in list(zip(passes, calls))[1:]:
            fresh = MomentSystem(prob.mesh, 0.1, state.E, *boundary)
            solve(fresh, *args)
            for got, want in ((S.data, fresh.S.data), (S.indices, fresh.S.indices), (S.indptr, fresh.S.indptr)):
                np.testing.assert_array_equal(got, want)
                assert got.dtype == want.dtype
        # the passes differ, so each refill had something to change
        assert not any(np.array_equal(calls[0][0].data, S.data) for S, _ in calls[1:])

    @pytest.mark.parametrize("filter_", ["error", "ignore"])
    @pytest.mark.parametrize(
        "n, group", [pytest.param(2, g, id=str(g)) for g in range(3)] + [pytest.param(4, g, id=f"4x4-{g}") for g in range(3)],
    )
    def test_singular_group_is_named(self, filter_, n, group):
        # Reflective sides, no time derivative and no absorption leave the
        # group's balance a pure Neumann diffusion operator: singular. On
        # the 2 x 2 mesh the zero pivot is exact; on 4 x 4 the factorization
        # pivots on a rounding remainder instead, which leaves finite
        # energies that only the residual check catches.
        mesh, G = SpatialMesh(n, n, 2.0, 2.0), 3
        kappa = np.ones((G, n, n))
        state = MomentState(0.0, np.ones((n, n)), np.ones((G, n, n)), np.zeros((G, n, n + 1)), np.zeros((G, n + 1, n)))
        faces = first_moment_faces(mesh, kappa, 0.0, interior_fluxes(state.Fx, state.Fy), 1.0 / 3.0)
        nb = mesh.n_boundary_faces
        system = MomentSystem(mesh, np.inf, state.E, np.zeros((G, nb)), np.zeros((G, nb)))
        ckappa = C * kappa
        ckappa[group] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter(filter_, spla.MatrixRankWarning)
            with pytest.raises(SolverError) as info:
                system.solve(faces, ckappa, np.ones((G, n, n)))
        assert info.value.group == group

    @pytest.mark.parametrize("group", range(3))
    def test_zero_red_diagonal_is_named(self, group):
        # A 1 x 1 box with reflective sides has no face: with no time
        # derivative and no absorption its one (red) cell's diagonal is zero.
        mesh, G = SpatialMesh(1, 1, 1.0, 1.0), 3
        faces = FaceForms(np.zeros((2, G, 0)), np.zeros((G, 0)))
        system = MomentSystem(mesh, np.inf, np.ones((G, 1, 1)), np.zeros((G, 4)), np.zeros((G, 4)))
        ckappa = np.ones((G, 1, 1))
        ckappa[group] = 0.0
        with pytest.raises(SolverError, match="zero diagonal") as info:
            system.solve(faces, ckappa, np.ones((G, 1, 1)))
        assert info.value.group == group

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("n", [1, 4])
    def test_non_finite_absorption_is_named(self, bad, n):
        # nan or inf c kappa in one cell of group 1, red or black, fails that group only.
        for cell in [(0, 0), (0, n - 1)]:
            system, _, (faces, ckappa, source) = moment_tables(SpatialMesh(n, n, 2.0, 2.0), 3, vef=False)
            ckappa[(1,) + cell] = bad
            with pytest.raises(SolverError) as info:
                system.solve(faces, ckappa, source)
            assert info.value.group == 1

    def test_cached_stencil_equals_a_fresh_build_and_is_read_only(self):
        mesh = SpatialMesh(5, 4, 5.0, 2.0)
        cells, width = face_cells(mesh)
        assert face_cells(SpatialMesh(5, 4, 5.0, 2.0))[0] is cells
        face_cells.cache_clear()
        boundary_cells.cache_clear()
        fresh_cells, fresh_width = face_cells(mesh)
        np.testing.assert_array_equal(cells, fresh_cells)
        np.testing.assert_array_equal(width, fresh_width)
        idx = np.arange(mesh.n_cells).reshape(mesh.ny, mesh.nx)
        # the 16 x-faces in (ny, nx-1) order, then the 15 y-faces in (ny-1, nx) order
        np.testing.assert_array_equal(cells[:, :16], [idx[:, :-1].ravel(), idx[:, 1:].ravel()])
        np.testing.assert_array_equal(cells[:, 16:], [idx[:-1].ravel(), idx[1:].ravel()])
        np.testing.assert_array_equal(width, np.repeat([1.0, 0.5], [16, 15]))
        b_cells, b_width = boundary_cells(mesh)
        np.testing.assert_array_equal(b_cells, np.concatenate([idx[:, 0], idx[:, -1], idx[0], idx[-1]]))
        np.testing.assert_array_equal(b_width, np.repeat([1.0, 1.0, 0.5, 0.5], [4, 4, 5, 5]))
        numbering, template = _red_black(mesh), _template(mesh, 3)
        assert _red_black(SpatialMesh(5, 4, 5.0, 2.0))[0] is numbering[0]
        assert _template(SpatialMesh(5, 4, 5.0, 2.0), 3)[0] is template[0]
        _red_black.cache_clear()
        _template.cache_clear()
        for cached, fresh in zip(numbering + template, _red_black(mesh) + _template(mesh, 3)):
            np.testing.assert_array_equal(cached, fresh)
        indices, indptr, slot, to_row, to_bound, to_red, to_black = template
        # Each group's block of S holds a slot for every two black cells that
        # share a red neighbour, a black cell with itself included.
        adjacency = np.zeros((mesh.n_cells,) * 2, dtype=int)
        adjacency[cells[0], cells[1]] = adjacency[cells[1], cells[0]] = 1
        red = (idx // mesh.nx + idx % mesh.nx).ravel() % 2 == 0
        assert indices.size == 3 * np.count_nonzero(adjacency[~red][:, red] @ adjacency[red][:, ~red])
        assert indices.dtype == indptr.dtype == np.int32
        assert indptr[-1] == indices.size and slot.max() < indices.size
        assert to_red.max() < 3 * 10 and to_black.max() < 3 * 10
        # A face's red and black rows, and a boundary face's cell, in the
        # numbered (G, N) layout: rank of the face's or the face's cell per group.
        rank, red_low = numbering[:2]
        face_rows = rank[np.where(red_low, cells, cells[::-1])]
        np.testing.assert_array_equal(to_row.reshape(2, 3, -1), face_rows[:, None] + mesh.n_cells * np.arange(3)[:, None])
        np.testing.assert_array_equal(to_bound.reshape(3, -1), rank[b_cells] + mesh.n_cells * np.arange(3)[:, None])
        for arr in (cells, width, b_cells, b_width) + numbering + template:
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("nx, ny", [(5, 4), (4, 5), (1, 1), (1, 6), (7, 1)])
    def test_red_black_numbering_splits_every_face(self, nx, ny):
        mesh = SpatialMesh(nx, ny, 1.0, 1.0)
        rank, red_low, face_red, face_black, pair_faces, pair_red = _red_black(mesh)
        N, cells = mesh.n_cells, face_cells(mesh)[0]
        n_red = N - N // 2
        np.testing.assert_array_equal(np.sort(rank), np.arange(N))
        # the red cells, i + j even, come first in flat order
        i, j = np.divmod(np.arange(N), nx)
        red = (i + j) % 2 == 0
        np.testing.assert_array_equal(rank[red], np.arange(n_red))
        # every interior face joins one red and one black cell
        np.testing.assert_array_equal(red[cells[0]], red_low)
        np.testing.assert_array_equal(red[cells[1]], ~red_low)
        np.testing.assert_array_equal(face_red, rank[np.where(red_low, cells[0], cells[1])])
        np.testing.assert_array_equal(face_black + n_red, rank[np.where(red_low, cells[1], cells[0])])
        # pairs: every ordered pair of faces on a shared red cell, once each
        shared = face_red[:, None] == face_red[None, :]
        assert pair_faces.shape == (2, np.count_nonzero(shared))
        assert np.all(shared[pair_faces[0], pair_faces[1]])
        assert len(set(zip(*pair_faces.tolist()))) == pair_faces.shape[1]
        np.testing.assert_array_equal(pair_red, face_red[pair_faces[1]])

    def test_reduced_blocks_are_symmetric_except_for_fld_newton(self, monkeypatch):
        # P1, P1/3 and the VEF give every face one w for both of its
        # off-diagonal entries, so A is symmetric and, with each pair product
        # formed before its division, so is S, bit for bit. FLD's Newton
        # faces are not symmetric, and neither are their blocks.
        calls = capture_spsolve(monkeypatch)
        prob = benchmark_problem(6, 5)
        for model in MODELS:
            calls.clear()
            diffusion_step(prob, initial_moment_state(prob, 1e-3), 0.02, model)
            assert len(calls) > 1
            asymmetric = [(S != S.T).nnz for S, _ in calls]
            if model == "fld":
                assert max(asymmetric) > 0
            else:
                assert max(asymmetric) == 0, model
        calls.clear()
        system, _, args = moment_tables(SpatialMesh(6, 5, 6.0, 6.0), 4, vef=True)
        system.solve(*args)
        assert (calls[0][0] != calls[0][0].T).nnz == 0


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------


class TestRunDriver:
    def test_history_structure(self):
        prob = benchmark_problem(nx=3, ny=2)
        hist = run_diffusion_model(prob, "fld", 1e-3, 0.1, 3)
        assert hist.label == "fld"
        assert hist.times.size == 4
        assert hist.T.shape == (4, 2, 3)
        assert hist.E.shape == (4, 17, 2, 3)
        np.testing.assert_allclose(hist.times, 0.1 * np.arange(4), atol=1e-15)

    def test_zero_duration_keeps_initial_state_only(self):
        prob = benchmark_problem(nx=3, ny=2)
        hist = run_diffusion_model(prob, "p1", 1e-3, 0.1, 0)
        assert hist.times.size == 1
        assert hist.times[0] == 0.0
