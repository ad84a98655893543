"""Invariants of the data-driven VEF model on a small driven problem."""

import gc
import weakref
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from ddvef import diffusion as diffusion_module
from ddvef import transport as transport_module
from ddvef import vef as vef_module
from ddvef.diffusion import (
    BOUNDARY_KINDS,
    BoundaryCondition,
    DiffusionProblem,
    MomentSystem,
    _marshak_boundary,
    first_moment_faces,
    initial_moment_state,
    run_diffusion_model,
    standard_boundaries,
)
from ddvef.errors import ConfigError
from ddvef.grid import (
    BENCHMARK_GROUP_BOUNDS, SIDES, SpatialMesh, boundary_cells, boundary_flux, build_angular_quadrature,
    build_frequency_grid, interior_fluxes,
)
from ddvef.history import march
from ddvef.iteration import GUARD_FACTOR
from ddvef.physics import DEFAULT_CONSTANTS, InverseCubeMaterial, MaterialEOS, benchmark_cv, group_planck
from ddvef.transport import (
    BoundaryInflow,
    TransportProblem,
    planckian_inflow,
    planckian_intensity,
    run_fom,
    sweep,
    sweep_step,
)
from ddvef.vef import (
    ClosureRecord,
    _check_temperature_data,
    _closures,
    closure_from_sweep,
    eddington_tensor,
    fused_pipeline,
    isotropic_closure,
    vef_step,
)
from product_rule import OTHER_RULES, by_direction, by_octant

T_COLD = 1.0e-3
T_DRIVE = 1.0
DT = 2.0**-6  # ns; a binary step keeps the data grid's differences exact, so dt matches a fixed-step march
N_STEPS = 3
#: Largest normalised energy-budget defect a converged step may leave, as in tests/test_regimes.py.
BALANCE_TOL = 1.0e-7
#: Frequency-group bounds of the random problems, by group count.
GROUP_BOUNDS = {1: (1.0e7,), 2: (3.0, 1.0e7), 17: BENCHMARK_GROUP_BOUNDS}


@pytest.fixture(scope="module")
def problem():
    fgrid = build_frequency_grid()
    return TransportProblem(
        SpatialMesh(5, 5, 6.0, 6.0), build_angular_quadrature(2, 4), fgrid,
        InverseCubeMaterial(fgrid), MaterialEOS(benchmark_cv(1.0)), planckian_inflow(fgrid, T_DRIVE),
    )


@pytest.fixture(scope="module")
def fom(problem):
    return run_fom(problem, T_COLD, DT, N_STEPS)


def relative_error(values, reference):
    return float(np.max(np.abs(values - reference)) / np.max(np.abs(reference)))


def passes(history):
    return [d.picard_iterations for d in history.diagnostics]


def march_records(problem, steps, T0=T_COLD):
    """vef_step over steps of (dt, record) or (dt, record, T_start) from equilibrium at T0 at t = 0."""
    return march("vef", initial_moment_state(problem, T0), lambda state, step: vef_step(problem, state, *step), steps)


def never(what):
    """A stand-in for a sweep or solve that must not be reached."""
    def fail(*args, **kwargs):
        raise AssertionError(what)

    return fail


def test_fused_vef_on_fom_temperatures_reproduces_the_fom(problem, fom):
    vef = fused_pipeline(problem, fom)
    assert relative_error(vef.T, fom.T) <= 1.0e-8
    assert relative_error(vef.E, fom.E) <= 1.0e-8
    assert max(d.balance_residual for d in vef.diagnostics) <= 1.0e-8
    # each step's coupling starts at the FOM's temperature moved by the
    # last step's correction, which is within PICARD_TOL of the fixed point
    assert passes(vef) == [1] * N_STEPS


@settings(max_examples=25)
@given(
    nx=st.integers(1, 4), ny=st.integers(1, 4), rule=st.sampled_from([(2, 4), (2, 8)]), scale=st.floats(0.1, 10.0),
    sides=st.sets(st.sampled_from(SIDES)), dt=st.floats(0.005, 0.05),
)
def test_vef_on_fom_temperatures_reproduces_the_fom_on_random_problems(nx, ny, rule, scale, sides, dt):
    # The module docstring's consistency claim on small problems with a
    # drive on any subset of sides, through the streamed pipeline.
    fgrid = build_frequency_grid()
    problem = TransportProblem(
        SpatialMesh(nx, ny, 1.5 * nx, 1.5 * ny), build_angular_quadrature(*rule), fgrid,
        InverseCubeMaterial(fgrid, 27.0 * scale), MaterialEOS(benchmark_cv(1.0)), planckian_inflow(fgrid, T_DRIVE, sides),
    )
    fom = run_fom(problem, T_COLD, dt, 2)
    assert relative_error(fused_pipeline(problem, fom).T, fom.T) <= 1.0e-8


def test_closure_reproduces_its_sweep():
    # The second of two chained sweeps, closed by its record and fed its own
    # energies, gives back the sweep's face fluxes, boundary faces included.
    fgrid = build_frequency_grid()
    mesh, quad, c = SpatialMesh(6, 5, 6.0, 5.0), build_angular_quadrature(2, 4), DEFAULT_CONSTANTS.c
    problem = TransportProblem(mesh, quad, fgrid, InverseCubeMaterial(fgrid), MaterialEOS(1.0), planckian_inflow(fgrid, T_DRIVE))
    T = np.geomspace(0.9, 0.05, mesh.nx) * np.linspace(1.0, 0.6, mesh.ny)[:, None]
    kappa, _, B, _ = problem.material.emission_terms(T, DEFAULT_CONSTANTS)
    first = sweep(mesh, quad, kappa, kappa * B, sweep_step(mesh, quad, planckian_intensity(problem, T), DT, problem.inflow))
    second = sweep(mesh, quad, kappa, kappa * B, sweep_step(mesh, quad, first.psi, DT, problem.inflow))
    record = closure_from_sweep(second, kappa, first.Fx, first.Fy)

    faces = first_moment_faces(mesh, kappa, 1.0 / (c * DT), interior_fluxes(first.Fx, first.Fy), record.g, record.r)
    system = MomentSystem(mesh, DT, first.E, record.v_out, record.b_base)
    Fx, Fy = system.fluxes(faces, second.E)
    scale = max(np.abs(second.Fx).max(), np.abs(second.Fy).max())
    np.testing.assert_allclose(Fx, second.Fx, rtol=0.0, atol=1.0e-13 * scale)
    np.testing.assert_allclose(Fy, second.Fy, rtol=0.0, atol=1.0e-13 * scale)
    # v_out times the boundary cell's energy is the sweep's outgoing current,
    # and adding b_base gives the sweep's outward boundary flux.
    E_edge = second.E.reshape(second.E.shape[0], -1)[:, boundary_cells(mesh)[0]]
    np.testing.assert_allclose(record.v_out * E_edge, second.bface_wnI, rtol=0.0, atol=1.0e-13 * second.bface_wnI.max())
    outward = boundary_flux(second.Fx, second.Fy)
    np.testing.assert_allclose(record.v_out * E_edge + record.b_base, outward, rtol=0.0, atol=1.0e-13 * np.abs(outward).max())


def test_isotropic_intensity_has_the_isotropic_eddington_tensor():
    # The folded quadrature integrates Omega_x^2 and Omega_y^2 exactly, so an
    # intensity isotropic in every cell gives 1/3 whatever its amplitude.
    quad = build_angular_quadrature(2, 8)
    amplitude = np.random.default_rng(3).uniform(1.0e-3, 1.0e3, (3, 4, 5))
    psi = np.repeat(amplitude[..., None], quad.n_directions, axis=-1)
    fxx, fyy = eddington_tensor(by_octant(psi, quad), quad)
    assert fxx.shape == fyy.shape == (5, 3, 4)
    np.testing.assert_allclose(fxx, 1.0 / 3.0, rtol=1.0e-14, atol=0.0)
    np.testing.assert_allclose(fyy, 1.0 / 3.0, rtol=1.0e-14, atol=0.0)


@pytest.mark.parametrize("rule", ["2x8", *OTHER_RULES])
def test_octant_summed_tensor_is_the_direct_ratio_over_every_direction(rule):
    # eddington_tensor weighs the octants' summed intensity with the first
    # octant's w, Omega_x^2 and Omega_y^2; the octants mirror those bitwise,
    # so on an intensity that differs in every direction this is the ratio
    # summed over all of the rule's directions.
    quad = build_angular_quadrature(2, 8) if rule == "2x8" else OTHER_RULES[rule]()
    psi = np.random.default_rng(41).uniform(0.1, 2.0, (4, 3, 4, quad.n_directions // 4, 5))
    I, w = by_direction(psi, quad), quad.weight
    phi = np.einsum("yxgm,m->gyx", I, w)
    expected = [np.einsum("yxgm,m->gyx", I, w * quad.omega[:, k] ** 2) / phi for k in (0, 1)]
    for got, want in zip(eddington_tensor(psi, quad), expected):
        assert np.abs(want - 1.0 / 3.0).max() > 1.0e-3
        np.testing.assert_allclose(got, want, rtol=1.0e-14, atol=0.0)


def test_dark_cells_get_the_isotropic_fallback():
    # A beam along +x in a lit cell has f_xx > 1/3; a cell with no
    # intensity, or a group dark everywhere, falls back to 1/3.
    quad = build_angular_quadrature(2, 8)
    psi = np.zeros((2, 2, 2, quad.n_directions))
    beam = quad.omega[:, 0] > 0.5
    psi[0, 0, 0, beam] = 1.0
    fxx, fyy = eddington_tensor(by_octant(psi, quad), quad)
    assert fxx[0, 0, 0] > 0.5 and fyy[0, 0, 0] < 1.0 / 3.0
    dark = np.ones((2, 2, 2), dtype=bool)
    dark[0, 0, 0] = False
    assert np.all(fxx[dark] == 1.0 / 3.0) and np.all(fyy[dark] == 1.0 / 3.0)


def test_dark_sweep_gives_a_finite_neutral_closure():
    # No source, no inflow and no history: every moment vanishes, and the
    # record must stay finite with no current and no remainder anywhere.
    fgrid = build_frequency_grid()
    mesh, quad = SpatialMesh(4, 3, 4.0, 3.0), build_angular_quadrature(2, 4)
    G = fgrid.n_groups
    kappa, zero = np.ones((G, mesh.ny, mesh.nx)), np.zeros((G, mesh.ny, mesh.nx))
    dark_step = sweep_step(mesh, quad, np.zeros((4, mesh.ny, mesh.nx, quad.n_directions // 4, G)), DT, BoundaryInflow())
    dark = sweep(mesh, quad, kappa, zero, dark_step)
    Fx, Fy = np.zeros_like(dark.Fx), np.zeros_like(dark.Fy)
    record = closure_from_sweep(dark, kappa, Fx, Fy)
    for f in fields(ClosureRecord):
        assert np.all(np.isfinite(getattr(record, f.name))), f.name
    for name in ("v_out", "r", "b_base"):
        assert np.all(getattr(record, name) == 0.0), name


def test_rejected_faces_fall_back_to_the_normal_tensor_component():
    # A flat intensity that is anisotropic but carries no flux leaves every
    # face factor at 0/0, so every face falls back: to the face mean of f_xx
    # on x-faces and of f_yy on y-faces, which differ here.
    mesh, quad, G, c = SpatialMesh(4, 3, 4.0, 3.0), build_angular_quadrature(2, 8), 2, DEFAULT_CONSTANTS.c
    psi = np.broadcast_to(1.0 + quad.omega[:, 0] ** 2, (mesh.ny, mesh.nx, G, quad.n_directions)).copy()
    Fx, Fy = np.zeros((G, mesh.ny, mesh.nx + 1)), np.zeros((G, mesh.ny + 1, mesh.nx))
    result = SimpleNamespace(
        step=SimpleNamespace(mesh=mesh, quad=quad, sink=1.0 / (c * DT)), psi=by_octant(psi, quad),
        E=np.einsum("yxgm,m->gyx", psi, quad.weight) / c, Fx=Fx, Fy=Fy, bface_wnI=np.zeros((G, mesh.n_boundary_faces)),
    )
    record = closure_from_sweep(result, np.ones((G, mesh.ny, mesh.nx)), Fx, Fy)
    fxx, fyy = (f[0, 0, 0] for f in eddington_tensor(by_octant(psi, quad), quad))
    assert fxx > 1.0 / 3.0 > fyy
    n_x = mesh.ny * (mesh.nx - 1)
    np.testing.assert_array_equal(record.g[:, :n_x], fxx)
    np.testing.assert_array_equal(record.g[:, n_x:], fyy)
    assert np.all(record.r == 0.0)


@pytest.fixture(scope="module")
def diffusion(problem):
    return DiffusionProblem(problem.mesh, problem.fgrid, problem.material, problem.eos, standard_boundaries(T_DRIVE))


@pytest.fixture(scope="module")
def p1(diffusion):
    return run_diffusion_model(diffusion, "p1", T_COLD, DT, N_STEPS)


@pytest.fixture(scope="module")
def first_step(problem, p1):
    """(dt, record, T_prev, T) of the VEF's first step on the P1 data."""
    return next(_closures(problem, p1.times, p1.T))


def test_fused_pipeline_frees_each_record_before_building_the_next(problem, diffusion, monkeypatch):
    # Online step n reads record n alone, so when record n + 1 is built only
    # record n may still be alive; a listed dataset would hold them all.
    alive, records = [], []
    extract = vef_module.closure_from_sweep

    def tracked(*args):
        alive.append(sum(ref() is not None for ref in records))
        record = extract(*args)
        records.append(weakref.ref(record))
        return record

    monkeypatch.setattr(vef_module, "closure_from_sweep", tracked)
    fused_pipeline(problem, run_diffusion_model(diffusion, "p1", T_COLD, DT, 6))
    assert len(alive) == 6 and max(alive) <= 1, alive


@pytest.mark.parametrize("model", ["fom", "p1", "vef"])
def test_a_march_frees_each_level_fluxes_and_keeps_only_t_T_and_E(problem, diffusion, p1, monkeypatch, model):
    # Each state's Fx and Fy are read by the next step (F_prev and the
    # energy budget) and then dropped: when step k starts, only level k's
    # fluxes are alive, and none once the march has returned.
    module, name, run = {
        "fom": (transport_module, "fom_step", lambda: run_fom(problem, T_COLD, DT, N_STEPS)),
        "p1": (diffusion_module, "diffusion_step", lambda: run_diffusion_model(diffusion, "p1", T_COLD, DT, N_STEPS)),
        "vef": (vef_module, "vef_step", lambda: fused_pipeline(problem, p1)),
    }[model]
    step, levels, alive = getattr(module, name), [], []

    def tracked(problem, state, *args):
        if not levels:
            levels.append((weakref.ref(state.Fx), weakref.ref(state.Fy)))
        gc.collect()
        alive.append([tuple(ref() is not None for ref in level) for level in levels])
        new, diag = step(problem, state, *args)
        levels.append((weakref.ref(new.Fx), weakref.ref(new.Fy)))
        return new, diag

    monkeypatch.setattr(module, name, tracked)
    history = run()
    gc.collect()
    dead, live = (False, False), (True, True)
    assert alive == [[dead] * k + [live] for k in range(N_STEPS)]
    assert [tuple(ref() is not None for ref in level) for level in levels] == [dead] * (N_STEPS + 1)
    # A history's arrays are its times and every level's T and E, nothing more.
    G, cells = problem.fgrid.n_groups, problem.mesh.nx * problem.mesh.ny
    held = sum(value.nbytes for value in vars(history).values() if isinstance(value, np.ndarray))
    assert held == 8 * (N_STEPS + 1) * (1 + cells + G * cells)


def test_each_pass_and_each_extraction_builds_its_faces_once(problem, p1, monkeypatch):
    # The stored fluxes reuse the last pass's faces, which depend on kappa alone.
    calls = []
    faces = vef_module.first_moment_faces
    monkeypatch.setattr(vef_module, "first_moment_faces", lambda *a, **kw: calls.append(1) or faces(*a, **kw))
    vef = fused_pipeline(problem, p1)
    assert len(calls) == sum(passes(vef)) + N_STEPS


def test_data_start_reaches_the_previous_level_start_fixed_point(problem, first_step):
    dt, record, _, T_data = first_step
    state = initial_moment_state(problem, T_COLD)
    from_data, _ = vef_step(problem, state, dt, record, T_data)
    from_previous, _ = vef_step(problem, state, dt, record)
    assert relative_error(from_data.T, from_previous.T) <= 1.0e-8
    assert relative_error(from_data.E, from_previous.E) <= 1.0e-8


def test_each_step_builds_one_system_and_refills_its_matrix(problem, first_step, monkeypatch):
    # One MomentSystem and one reduced matrix per step; every pass refills
    # that matrix, bit for bit what a system built afresh for the step
    # assembles from the pass's inputs, and hands it to its one spsolve.
    built, matrices, calls, passes = [], [], [], []
    init, csr, solve, spsolve = MomentSystem.__init__, sp.csr_matrix, MomentSystem.solve, spla.spsolve
    monkeypatch.setattr(MomentSystem, "__init__", lambda *a, **kw: built.append(a[1:]) or init(*a, **kw))
    monkeypatch.setattr(sp, "csr_matrix", lambda *a, **kw: matrices.append(1) or csr(*a, **kw))
    monkeypatch.setattr(MomentSystem, "solve", lambda self, *args: passes.append(args) or solve(self, *args))
    monkeypatch.setattr(spla, "spsolve", lambda A, *a, **kw: calls.append((A, A.copy())) or spsolve(A, *a, **kw))
    dt, record, *_ = first_step
    _, diag = vef_step(problem, initial_moment_state(problem, T_COLD), dt, record)
    assert diag.picard_iterations == len(passes) == len(calls) > 2
    assert len(built) == len(matrices) == 1
    assert all(A is calls[0][0] for A, _ in calls)
    for args, (_, S) in list(zip(passes, calls))[1:]:
        fresh = MomentSystem(*built[0])
        solve(fresh, *args)
        for got, want in ((S.data, fresh.S.data), (S.indices, fresh.S.indices), (S.indptr, fresh.S.indptr)):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dt", [0.0, -0.02, np.nan, np.inf, True])
def test_bad_time_step_rejected_before_any_solve(problem, first_step, monkeypatch, dt):
    # Without the check 0 divides by zero, -0.02 fails to converge, inf
    # raises ValueError and nan SolverError.
    _, record, _, T_data = first_step
    monkeypatch.setattr(vef_module, "coupled_step", never("solved with a bad time step"))
    with pytest.raises(ConfigError, match="time step"):
        vef_step(problem, initial_moment_state(problem, T_COLD), dt, record, T_data)


@pytest.fixture(scope="module")
def hot(p1):
    """Poor data: every level after the cold initial one at 2 KeV, twice the drive."""
    T = np.full_like(p1.T, 2.0 * T_DRIVE)
    T[0] = T_COLD
    return SimpleNamespace(times=p1.times, T=T)


@pytest.mark.parametrize("data", ["p1", "hot"])
def test_each_step_starts_at_its_data_plus_the_last_correction(problem, request, monkeypatch, data):
    # The first step starts at its data bit for bit. Each later step starts
    # at its data plus the last step's VEF - data correction, floored at
    # GUARD_FACTOR of its data: no cell is floored on the P1 data, every
    # cell of steps 2 and 3 on the hot data.
    data = request.getfixturevalue(data)
    starts, step = [], vef_module.vef_step
    monkeypatch.setattr(vef_module, "vef_step", lambda *args: starts.append(args[4]) or step(*args))
    vef, T = fused_pipeline(problem, data), data.T
    np.testing.assert_array_equal(starts[0], T[1])
    for n in range(1, N_STEPS):
        np.testing.assert_array_equal(starts[n], np.maximum(T[n + 1] + (vef.T[n] - T[n]), GUARD_FACTOR * T[n + 1]))


def test_correction_start_saves_passes_over_the_march(problem, p1):
    # 5, 6, 6 passes, against 10, 6, 6 started at the previous level.
    from_correction = fused_pipeline(problem, p1)
    from_previous = march_records(problem, [(dt, record) for dt, record, *_ in _closures(problem, p1.times, p1.T)])
    assert relative_error(from_correction.T, from_previous.T) <= 1.0e-8
    assert sum(passes(from_correction)) < sum(passes(from_previous))


def test_correction_start_saves_passes_over_the_data_start_on_poor_data(problem, hot):
    # 13, 9, 9 passes, against 13, 13, 16 started at the hot data. On the
    # P1 data the two starts take the same passes here.
    from_correction = fused_pipeline(problem, hot)
    from_data = march_records(problem, [(dt, record, T) for dt, record, _, T in _closures(problem, hot.times, hot.T)])
    assert relative_error(from_correction.T, from_data.T) <= 1.0e-8
    assert sum(passes(from_correction)) < sum(passes(from_data))


def test_isotropic_boundary_factor_is_marshak(diffusion):
    record = isotropic_closure(diffusion)
    v_out, b_base = _marshak_boundary(diffusion, diffusion.incoming_currents())
    np.testing.assert_array_equal(record.v_out, v_out)
    np.testing.assert_array_equal(record.b_base, b_base)


def test_isotropic_closure_is_p1(problem, diffusion):
    vef = march_records(problem, [(DT, isotropic_closure(diffusion))] * N_STEPS)
    p1 = run_diffusion_model(diffusion, "p1", T_COLD, DT, N_STEPS)
    np.testing.assert_allclose(vef.times, p1.times, rtol=1e-15)
    assert relative_error(vef.T, p1.T) <= 1.0e-12
    assert relative_error(vef.E, p1.E) <= 1.0e-12


def test_isotropic_closure_is_p1_with_reflective_sides(problem):
    # A Marshak law written on every side would leave the reflective sides
    # open (0.079 off in T here); P1's own tables keep them closed.
    sides = {
        "left": BoundaryCondition("drive", T_DRIVE), "right": BoundaryCondition("vacuum"),
        "bottom": BoundaryCondition("reflective"), "top": BoundaryCondition("reflective"),
    }
    diffusion = DiffusionProblem(problem.mesh, problem.fgrid, problem.material, problem.eos, sides)
    vef = march_records(problem, [(DT, isotropic_closure(diffusion))] * N_STEPS)
    p1 = run_diffusion_model(diffusion, "p1", T_COLD, DT, N_STEPS)
    assert np.array_equal(vef.T, p1.T)
    assert np.array_equal(vef.E, p1.E)


@settings(max_examples=20)
@given(
    nx=st.integers(1, 5), ny=st.integers(1, 5), G=st.sampled_from([1, 2, 17]),
    kinds=st.tuples(*[st.sampled_from(BOUNDARY_KINDS)] * len(SIDES)), dt=st.floats(1.0e-3, 0.05),
    n_steps=st.integers(2, 3),
)
def test_isotropic_closure_is_p1_on_random_problems(nx, ny, G, kinds, dt, n_steps):
    # The isotropic record stepped by vef_step is P1 on small problems with
    # a drive, vacuum or reflective boundary on each side.
    fgrid = build_frequency_grid(GROUP_BOUNDS[G])
    mesh, material, eos = SpatialMesh(nx, ny, 1.5 * nx, 1.5 * ny), InverseCubeMaterial(fgrid), MaterialEOS(benchmark_cv(1.0))
    sides = {side: BoundaryCondition(kind, T_DRIVE if kind == "drive" else None) for side, kind in zip(SIDES, kinds)}
    diffusion = DiffusionProblem(mesh, fgrid, material, eos, sides)
    problem = TransportProblem(mesh, build_angular_quadrature(2, 4), fgrid, material, eos, BoundaryInflow())
    vef = march_records(problem, [(dt, isotropic_closure(diffusion))] * n_steps)
    p1 = run_diffusion_model(diffusion, "p1", T_COLD, dt, n_steps)
    assert relative_error(vef.T, p1.T) <= 1.0e-12
    assert relative_error(vef.E, p1.E) <= 1.0e-12


@settings(max_examples=80)
@given(
    nx=st.integers(1, 5), ny=st.integers(1, 5), aspect=st.floats(0.2, 5.0), G=st.sampled_from([1, 2, 17]),
    T0=st.floats(0.01, 3.0), driven=st.tuples(*[st.booleans()] * len(SIDES)), dt=st.floats(1.0e-3, 1.0),
)
def test_equilibrium_stays_stationary_on_random_problems(nx, ny, aspect, G, T0, driven, dt):
    # Equilibrium at T0 with every side driven at T0 or reflective: P1,
    # P1/3, FLD and the isotropic record stepped by vef_step stay put, and
    # so does the FOM with every side driven. Over 2,000 such problems
    # drawn apart from the test, T moved by at most 3.9e-15 relative and E
    # by at most 2.2e-13 of its group's largest value (FLD). Groups whose
    # largest E underflows below 1e-280 hold a few subnormal digits; they
    # moved by at most 3.2e-295 absolute.
    fgrid = build_frequency_grid(GROUP_BOUNDS[G])
    mesh = SpatialMesh(nx, ny, 1.5 * nx, 1.5 * ny * aspect)
    material, eos = InverseCubeMaterial(fgrid), MaterialEOS(benchmark_cv(1.0))
    sides = {side: BoundaryCondition("drive", T0) if d else BoundaryCondition("reflective") for side, d in zip(SIDES, driven)}
    diffusion = DiffusionProblem(mesh, fgrid, material, eos, sides)
    quad = build_angular_quadrature(2, 4)
    problem = TransportProblem(mesh, quad, fgrid, material, eos, BoundaryInflow())
    histories = [run_diffusion_model(diffusion, model, T0, dt, 2) for model in ("p1", "p13", "fld")] + [
        march_records(problem, [(dt, isotropic_closure(diffusion))] * 2, T0),
        run_fom(TransportProblem(mesh, quad, fgrid, material, eos, planckian_inflow(fgrid, T0, SIDES)), T0, dt, 2),
    ]
    E0 = initial_moment_state(diffusion, T0).E
    E_bound = 1.0e-12 * E0.max(axis=(1, 2), keepdims=True) + 1.0e-290
    for history in histories:
        np.testing.assert_allclose(history.T, T0, rtol=1.0e-13, atol=0.0, err_msg=history.label)
        assert np.all(np.abs(history.E - E0) <= E_bound), history.label


@settings(max_examples=40)
@given(
    nx=st.integers(1, 5), ny=st.integers(1, 5), aspect=st.floats(0.2, 5.0), G=st.sampled_from([1, 2, 17]),
    T0=st.floats(0.01, 3.0), T_drive=st.floats(0.01, 3.0), side=st.sampled_from(SIDES), dt=st.floats(1.0e-3, 1.0),
)
def test_every_step_closes_its_energy_balance_on_random_driven_problems(nx, ny, aspect, G, T0, T_drive, side, dt):
    # The random problems of the equilibrium test above, started at T0 and
    # driven at T_drive on one side with vacuum elsewhere: every step of
    # P1, P1/3, FLD, the isotropic record stepped by vef_step and the FOM
    # closes its energy budget to tests/test_regimes.py's BALANCE_TOL.
    fgrid = build_frequency_grid(GROUP_BOUNDS[G])
    mesh = SpatialMesh(nx, ny, 1.5 * nx, 1.5 * ny * aspect)
    material, eos = InverseCubeMaterial(fgrid), MaterialEOS(benchmark_cv(1.0))
    diffusion = DiffusionProblem(mesh, fgrid, material, eos, standard_boundaries(T_drive, (side,)))
    quad = build_angular_quadrature(2, 4)
    problem = TransportProblem(mesh, quad, fgrid, material, eos, planckian_inflow(fgrid, T_drive, (side,)))
    histories = [run_diffusion_model(diffusion, model, T0, dt, 2) for model in ("p1", "p13", "fld")] + [
        march_records(problem, [(dt, isotropic_closure(diffusion))] * 2, T0), run_fom(problem, T0, dt, 2),
    ]
    for history in histories:
        residuals = [d.balance_residual for d in history.diagnostics]
        assert max(residuals) <= BALANCE_TOL, (history.label, residuals)


@pytest.mark.parametrize("T_eq", [0.3, 1.0])
@pytest.mark.parametrize("rule", [(2, 4), (3, 8)], ids=["2x4", "3x8"])
def test_equilibrium_drive_stays_stationary_through_the_vef(T_eq, rule, monkeypatch):
    # Every side driven at the data temperature: the sweep's boundary tables
    # carry the quadrature's own incoming currents, so nothing moves. The
    # history keeps no fluxes, so every level's state is captured as
    # vef_step receives (the first) or returns it.
    levels = []

    def capture(problem, state, *args):
        if not levels:
            levels.append(state)
        new, diag = original(problem, state, *args)
        levels.append(new)
        return new, diag

    original = vef_module.vef_step
    monkeypatch.setattr(vef_module, "vef_step", capture)
    fgrid = build_frequency_grid()
    mesh, c = SpatialMesh(5, 4, 5.0, 4.0), DEFAULT_CONSTANTS.c
    problem = TransportProblem(
        mesh, build_angular_quadrature(*rule), fgrid, InverseCubeMaterial(fgrid), MaterialEOS(benchmark_cv(1.0)),
        planckian_inflow(fgrid, T_eq, sides=SIDES),
    )
    data = SimpleNamespace(times=DT * np.arange(N_STEPS + 1), T=np.full((N_STEPS + 1, mesh.ny, mesh.nx), T_eq))
    vef = fused_pipeline(problem, data)
    E_eq = 4.0 * np.pi * group_planck(T_eq, fgrid) / c
    np.testing.assert_allclose(vef.T, T_eq, rtol=1.0e-14, atol=0.0)
    np.testing.assert_allclose(vef.E, np.broadcast_to(E_eq[:, None, None], vef.E.shape), rtol=1.0e-14, atol=0.0)
    flux_bound = 1.0e-15 * c * E_eq.sum()
    assert [state.t for state in levels] == list(vef.times)
    for state in levels:
        assert np.abs(state.Fx).max() <= flux_bound and np.abs(state.Fy).max() <= flux_bound
    assert passes(vef) == [1] * N_STEPS


# Each case: the field broken and its wrong shape from (its right shape, mesh).
# Every field gets a truncated last axis; the x and y cases give a face table
# one direction's faces alone, the per-direction layout it replaces. One
# group's factors would broadcast over every group and converge unnoticed.
WRONG_SHAPES = {f.name: (f.name, lambda shape, mesh: shape[:-1] + (1,)) for f in fields(ClosureRecord)}
for _face in ("g", "r"):
    WRONG_SHAPES[_face + "x"] = (_face, lambda shape, mesh: shape[:-1] + (mesh.ny, mesh.nx - 1))
    WRONG_SHAPES[_face + "y"] = (_face, lambda shape, mesh: shape[:-1] + (mesh.ny - 1, mesh.nx))
WRONG_SHAPES["g_one_group"] = ("g", lambda shape, mesh: (1,) + shape[1:])


@pytest.mark.parametrize("case", list(WRONG_SHAPES))
def test_validate_rejects_a_wrong_shaped_field(problem, diffusion, monkeypatch, case):
    # vef_step checks every record it steps, streamed or built by hand.
    name, wrong_shape = WRONG_SHAPES[case]
    record = isotropic_closure(diffusion)
    broken = replace(record, **{name: np.zeros(wrong_shape(getattr(record, name).shape, problem.mesh))})
    monkeypatch.setattr(vef_module, "coupled_step", never("solved with a wrong-shaped record"))
    with pytest.raises(ConfigError, match=f"closure {name} has shape"):
        vef_step(problem, initial_moment_state(problem, T_COLD), DT, broken)


BAD_T_START = {
    "2x2": (np.full((2, 2), T_DRIVE), "T_start has shape"),
    "flat": (np.full(25, T_DRIVE), "T_start has shape"),
    "nan": (np.full((5, 5), np.nan), "T_start must be finite and positive"),
    "-1": (np.full((5, 5), -1.0), "T_start must be finite and positive"),
    "0": (np.zeros((5, 5)), "T_start must be finite and positive"),
    "inf": (np.full((5, 5), np.inf), "T_start must be finite and positive"),
    "bool": (np.ones((5, 5), dtype=bool), "T_start must be a number, not a bool"),
}


@pytest.mark.parametrize("case", list(BAD_T_START))
def test_bad_start_temperature_raises_before_any_solve(problem, diffusion, monkeypatch, case):
    # A (2, 2) start on this 5 x 5 mesh failed in a bare reshape, a flat one
    # and a bool one (read as 1 KeV) were accepted and converged, and a nan,
    # zero, infinite or negative one failed in the group physics with a
    # ValueError; each is refused as the record's shapes are.
    T_start, message = BAD_T_START[case]
    monkeypatch.setattr(vef_module, "coupled_step", never("solved from a bad start temperature"))
    with pytest.raises(ConfigError, match=message):
        vef_step(problem, initial_moment_state(problem, T_COLD), DT, isotropic_closure(diffusion), T_start)


def test_temperature_data_is_checked(problem, fom):
    with pytest.raises(ConfigError, match="at least one step"):
        _check_temperature_data(problem, SimpleNamespace(times=fom.times[:1], T=fom.T[:1]))
    with pytest.raises(ConfigError, match="shape"):
        _check_temperature_data(problem, SimpleNamespace(times=fom.times, T=fom.T[:, :-1]))
    with pytest.raises(ConfigError, match="increasing"):
        _check_temperature_data(problem, SimpleNamespace(times=fom.times[::-1], T=fom.T))


def test_fused_pipeline_builds_one_sweep_step_per_data_step(problem, fom, monkeypatch):
    calls = {"sweep_step": 0, "sweep": 0}

    def counted(name):
        original = getattr(vef_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(vef_module, name, counted(name))
    assert fused_pipeline(problem, fom).times.size == N_STEPS + 1
    assert calls == {"sweep_step": N_STEPS, "sweep": N_STEPS}


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_bad_temperature_data_raises_before_any_sweep(problem, fom, monkeypatch, bad):
    T = fom.T.copy()
    T[-1, 2, 2] = bad
    monkeypatch.setattr(vef_module, "sweep", never("swept bad temperature data"))
    with pytest.raises(ConfigError, match="finite and positive"):
        fused_pipeline(problem, SimpleNamespace(times=fom.times, T=T))


def test_validate_rejects_bad_data_temperatures(problem, p1):
    _check_temperature_data(problem, p1)
    with pytest.raises(ConfigError, match="data temperature field has shape"):
        _check_temperature_data(problem, SimpleNamespace(times=p1.times, T=p1.T[:-1]))
    for bad in (0.0, np.nan):
        with pytest.raises(ConfigError, match="finite and positive"):
            _check_temperature_data(problem, SimpleNamespace(times=p1.times, T=np.full_like(p1.T, bad)))
    # Bool data would otherwise be read as 1 KeV everywhere.
    with pytest.raises(ConfigError, match="data temperature field must be a number, not a bool"):
        _check_temperature_data(problem, SimpleNamespace(times=p1.times, T=np.ones_like(p1.T, dtype=bool)))


def time_grid_refused(problem, fom, monkeypatch, times, message):
    monkeypatch.setattr(vef_module, "sweep", never("swept on a bad time grid"))
    with pytest.raises(ConfigError, match=message):
        fused_pipeline(problem, SimpleNamespace(times=times, T=fom.T))


@pytest.mark.parametrize("level, bad", [(-1, np.inf), (1, np.nan)], ids=["inf", "nan"])
def test_non_finite_time_level_raises_before_any_sweep(problem, fom, monkeypatch, level, bad):
    # An infinite last level would be swept as a steady state (dt = inf).
    times = fom.times.copy()
    times[level] = bad
    time_grid_refused(problem, fom, monkeypatch, times, "time grid must be a finite 1-D array")


@pytest.mark.parametrize("t0", [np.nan, np.inf])
def test_non_finite_initial_time_rejected(problem, fom, monkeypatch, t0):
    # Level 0 is the initial time, the t of the march's first level.
    times = fom.times.copy()
    times[0] = t0
    time_grid_refused(problem, fom, monkeypatch, times, "time grid must be a finite 1-D array")


@pytest.mark.parametrize(
    "case, message",
    [("1x3", "a finite 1-D array"), ("3x1", "a finite 1-D array"), ("reversed", "strictly increasing"),
     ("repeated", "strictly increasing")],
)
def test_bad_time_grid_raises_before_any_sweep(problem, fom, monkeypatch, case, message):
    # A 2-D grid is refused as a grid, before its number of levels is read.
    times = {
        "1x3": fom.times[:3].reshape(1, 3), "3x1": fom.times[:3].reshape(3, 1),
        "reversed": fom.times[::-1], "repeated": np.concatenate([fom.times[:1], fom.times[:-1]]),
    }[case]
    time_grid_refused(problem, fom, monkeypatch, times, f"time grid must be {message}")


BAD_T0 = {"0": 0.0, "-1": -1.0, "nan": np.nan, "inf": np.inf, "2x2": np.ones((2, 2))}


# The VEF's T0 is its float data's level 0, where a bool cannot stand.
@pytest.mark.parametrize(
    "entry, T0",
    [pytest.param(entry, T0, id=f"{entry}-{name}") for entry in ("fom", "p1", "vef") for name, T0 in BAD_T0.items()]
    + [pytest.param(entry, True, id=f"{entry}-True") for entry in ("fom", "p1")],
)
def test_bad_initial_temperature_raises_before_any_sweep_or_solve(problem, diffusion, monkeypatch, entry, T0):
    calls = []

    def called(name):
        def wrapper(*args, **kwargs):
            calls.append(name)

        return wrapper

    for module in (transport_module, vef_module):
        monkeypatch.setattr(module, "sweep", called("sweep"))
    monkeypatch.setattr(MomentSystem, "solve", called("solve"))
    # The VEF starts at its data's level 0, so a bad T0 there is bad data.
    T_data = np.full((2,) + (np.shape(T0) or (problem.mesh.ny, problem.mesh.nx)), T_COLD)
    T_data[0] = T0
    run, message = {
        "fom": (lambda: run_fom(problem, T0, DT, 1), "initial temperature"),
        "p1": (lambda: run_diffusion_model(diffusion, "p1", T0, DT, 1), "initial temperature"),
        "vef": (lambda: fused_pipeline(problem, SimpleNamespace(times=np.array([0.0, DT]), T=T_data)), "data temperature field"),
    }[entry]
    with pytest.raises(ConfigError, match=message):
        run()
    assert calls == []


@pytest.mark.slow
def test_online_march_stays_positive_on_a_finer_mesh():
    # With an f_xy cross term in the moment stencil, the VEF on P1 data of
    # this 16 x 16 problem read min E / max E = -2.6e-4 at level 42, -7e-2
    # by level 49, and failed to converge before level 80. The 5-point
    # stencil with factors in [0, 1] stays positive.
    fgrid = build_frequency_grid()
    mesh = SpatialMesh(16, 16, 6.0, 6.0)
    material, eos = InverseCubeMaterial(fgrid), MaterialEOS(benchmark_cv(1.0))
    transport_problem = TransportProblem(
        mesh, build_angular_quadrature(2, 8), fgrid, material, eos, planckian_inflow(fgrid, T_DRIVE)
    )
    p1 = run_diffusion_model(
        DiffusionProblem(mesh, fgrid, material, eos, standard_boundaries(T_DRIVE)), "p1", T_COLD, 0.02, 50
    )
    vef = fused_pipeline(transport_problem, p1)
    assert vef.times.size == 51
    lowest = vef.E.min(axis=(1, 2, 3)) / vef.E.max(axis=(1, 2, 3))
    below = np.flatnonzero(lowest < -1.0e-8)
    assert below.size == 0, f"min E / max E = {lowest[below[0]]:.3g} first at level {below[0]}"
