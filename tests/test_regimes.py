"""Convergence and energy balance of every model away from the benchmark regime.

The Fleck-Cummings-type problem on a 4 x 4 mesh (17 groups, 16
directions, 2 steps from 1e-3 KeV) is run with one knob moved at a time
from the benchmark's opacity coefficient, 1 KeV drive and 0.02 ns step.
The VEF is also run on poor temperature data at the benchmark regime,
since its coupling starts at the data, and the FOM and the moment models
on the grey (one-group) version of the problem. At the benchmark regime,
the inexact material Newton of each coupling pass is checked for its
cost (emission evaluations per pass) and its result (the step of a fully
converged Newton), and so are FLD's Newton faces (passes against P1's;
the step of the Picard faces) and the start each step takes on the
temperature extrapolated from the last (its floor, its passes against
the previous level's, and the step of that start).
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from ddvef import diffusion, iteration, physics
from ddvef.diffusion import DiffusionProblem, diffusion_step, initial_moment_state, run_diffusion_model, standard_boundaries
from ddvef.grid import SpatialMesh, build_angular_quadrature, build_frequency_grid
from ddvef.physics import InverseCubeMaterial, MaterialEOS, benchmark_cv
from ddvef.transport import TransportProblem, fom_step, initial_transport_state, planckian_inflow, run_fom
from ddvef.vef import fused_pipeline

T_COLD = 1.0e-3
N_STEPS = 2

#: (opacity coefficient scale, drive temperature [KeV], dt [ns]) per regime.
REGIMES = {
    "opacity_x0.1": (0.1, 1.0, 0.02),
    "opacity_x100": (100.0, 1.0, 0.02),
    "drive_0.3": (1.0, 0.3, 0.02),
    "drive_3": (1.0, 3.0, 0.02),
    "dt_1ns": (1.0, 1.0, 1.0),
}

#: Picard passes any one step may take. The most measured is 51 (FLD's
#: first step at dt = 1 ns, where the back-off weight and with it FLD's
#: Newton share fall to 1/32; 43 with the Picard limiter alone; FOM 31,
#: P1 30, P1/3 32, VEF(P1) 20 there), so the bound leaves a margin of
#: 18 % over it.
MAX_PASSES = 60

#: The energy-balance bound the benchmark applies to every march. The
#: largest measured here is 4.3e-8 (VEF(P1) at 100x opacity).
BALANCE_TOL = 1.0e-7

#: Uniform data temperatures [KeV] after the cold initial level: the
#: whole history at the initial 1e-3 KeV, and 2 KeV, twice the drive.
#: Both are far from the driven solution, so each VEF step's coupling
#: starts far from its fixed point. Measured passes per step: 10, 13
#: (cold) and 13, 14 (hot); started where P1 starts instead (the previous
#: level extrapolated by its rate), the same steps take 10, 5 and 10, 5.
POOR_DATA = {"cold": T_COLD, "hot": 2.0}


def problems(scale=1.0, T_drive=1.0, fgrid=None):
    """The transport and diffusion problems of one regime, on the benchmark groups unless fgrid is given."""
    fgrid = fgrid or build_frequency_grid()
    mesh = SpatialMesh(4, 4, 6.0, 6.0)
    material = InverseCubeMaterial(fgrid, 27.0 * scale)
    eos = MaterialEOS(benchmark_cv(1.0))
    transport = TransportProblem(mesh, build_angular_quadrature(2, 8), fgrid, material, eos, planckian_inflow(fgrid, T_drive))
    return transport, DiffusionProblem(mesh, fgrid, material, eos, standard_boundaries(T_drive))


def run(model, regime):
    scale, T_drive, dt = REGIMES[regime]
    transport, diffusion = problems(scale, T_drive)
    if model == "fom":
        return run_fom(transport, T_COLD, dt, N_STEPS)
    if model == "vef_p1":
        return fused_pipeline(transport, run_diffusion_model(diffusion, "p1", T_COLD, dt, N_STEPS))
    return run_diffusion_model(diffusion, model, T_COLD, dt, N_STEPS)


def assert_converged_within_bounds(history, max_passes=MAX_PASSES):
    assert np.all(np.isfinite(history.T)) and np.all(history.T > 0.0)
    for diag in history.diagnostics:
        assert diag.change_history[-1] <= iteration.PICARD_TOL
        assert diag.picard_iterations <= max_passes
        assert diag.balance_residual <= BALANCE_TOL


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("model", ["fom", "p1", "fld", "vef_p1"])
def test_every_model_converges_within_bounds(model, regime):
    assert_converged_within_bounds(run(model, regime))


@pytest.mark.parametrize("T_data", POOR_DATA.values(), ids=POOR_DATA)
def test_vef_on_poor_data_converges_within_bounds(T_data):
    transport, _ = problems()
    T = np.full((N_STEPS + 1, 4, 4), T_data)
    T[0] = T_COLD
    data = SimpleNamespace(times=0.02 * np.arange(N_STEPS + 1), T=T)
    assert_converged_within_bounds(fused_pipeline(transport, data))


@pytest.mark.parametrize("model", ["fom", "p1", "p13", "fld"])
def test_grey_cold_start_converges(model):
    # One group spanning the spectrum. The first step takes 117-149
    # passes: within PICARD_MAX_ITER, but over the multigroup MAX_PASSES.
    transport, diffusion = problems(fgrid=build_frequency_grid([1.0e3]))
    if model == "fom":
        history = run_fom(transport, T_COLD, 0.02, N_STEPS)
    else:
        history = run_diffusion_model(diffusion, model, T_COLD, 0.02, N_STEPS)
    assert_converged_within_bounds(history, max_passes=iteration.PICARD_MAX_ITER)


class CountingMaterial:
    """A material that counts its emission_terms calls."""

    def __init__(self, material):
        self.material, self.calls = material, 0

    def emission_terms(self, T, constants):
        self.calls += 1
        return self.material.emission_terms(T, constants)


@pytest.mark.parametrize("model", ["fom", "p1"])
def test_a_pass_evaluates_the_emission_terms_about_once(model):
    # The pass's own evaluation seeds the material Newton, which then
    # mostly stops after one step instead of converging: 1.07 evaluations
    # per pass for both models (1.25 and 1.29 with the Newton stopped at
    # a relative step of 1e-2 and each step started at the previous level).
    problem = problems()[0 if model == "fom" else 1]
    material = CountingMaterial(problem.material)
    problem = dataclasses.replace(problem, material=material)
    if model == "fom":
        history = run_fom(problem, T_COLD, 0.02, 4)
    else:
        history = run_diffusion_model(problem, model, T_COLD, 0.02, 4)
    passes = sum(diag.picard_iterations for diag in history.diagnostics)
    assert material.calls <= 1.15 * passes


@pytest.mark.parametrize("model", ["fom", "p1"])
def test_inexact_pass_newton_keeps_the_step(monkeypatch, model):
    transport, diffusion = problems()

    def step():
        if model == "fom":
            return fom_step(transport, initial_transport_state(transport, T_COLD), 0.02)[0]
        return diffusion_step(diffusion, initial_moment_state(diffusion, T_COLD), 0.02, model)[0]

    inexact = step()
    monkeypatch.setattr(iteration, "PASS_NEWTON_TOL", physics.NEWTON_TOL)
    exact = step()
    np.testing.assert_allclose(inexact.T, exact.T, rtol=1.0e-8, atol=0.0)
    # E relative to each group's largest value: ahead of the front the
    # high groups fall to 1e-100 and below, where T's 1e-10 tolerance
    # does not fix every digit.
    scale = np.max(np.abs(exact.E), axis=(1, 2))
    assert np.all(np.max(np.abs(inexact.E - exact.E), axis=(1, 2)) <= 1.0e-8 * scale)


def test_fld_newton_faces_keep_the_step(monkeypatch):
    # theta blends FLD's Newton faces into the Picard ones; every blend has
    # the same fixed point, so forcing the Picard faces moves only the
    # pass count.
    _, problem = problems()

    def step():
        return diffusion_step(problem, initial_moment_state(problem, T_COLD), 0.02, "fld")

    newton, newton_diag = step()
    picard_faces = diffusion._fld_faces
    monkeypatch.setattr(diffusion, "_fld_faces", lambda mesh, kappa, E, theta: picard_faces(mesh, kappa, E, 0.0))
    picard, picard_diag = step()
    assert newton_diag.picard_iterations < picard_diag.picard_iterations
    np.testing.assert_allclose(newton.T, picard.T, rtol=1.0e-8, atol=0.0)
    scale = np.max(np.abs(picard.E), axis=(1, 2))
    assert np.all(np.max(np.abs(newton.E - picard.E), axis=(1, 2)) <= 1.0e-8 * scale)


def test_fld_coupling_converges_in_about_p1_passes():
    # At the benchmark's drive and step over 4 steps, FLD takes 50 passes
    # against P1's 31 with the Picard limiter and 32 with the Newton faces.
    _, problem = problems()
    passes = {
        model: sum(d.picard_iterations for d in run_diffusion_model(problem, model, T_COLD, 0.02, 4).diagnostics)
        for model in ("p1", "fld")
    }
    assert passes["fld"] <= 1.15 * passes["p1"]


def stepper(model, transport, diffusion):
    """(step, initial state) of a model at the benchmark's step; step(state) -> (state, diagnostics)."""
    if model == "fom":
        return (lambda state: fom_step(transport, state, 0.02)), initial_transport_state(transport, T_COLD)
    return (lambda state: diffusion_step(diffusion, state, 0.02, model)), initial_moment_state(diffusion, T_COLD)


@pytest.mark.parametrize("model", ["fom", "p1", "fld"])
def test_predicted_start_keeps_the_step(model):
    # Step 2 from the level the march reaches, started on the temperature
    # extrapolated by step 1's rate or, with the rate dropped, at that level.
    step, start = stepper(model, *problems())
    state = step(start)[0]
    predicted = step(state)[0]
    plain = step(dataclasses.replace(state, dTdt=None))[0]
    np.testing.assert_allclose(predicted.T, plain.T, rtol=1.0e-8, atol=0.0)
    scale = np.max(np.abs(plain.E), axis=(1, 2))
    assert np.all(np.max(np.abs(predicted.E - plain.E), axis=(1, 2)) <= 1.0e-8 * scale)


class FirstCall(Exception):
    """Raised by RecordingMaterial to stop a step at its first pass."""


class RecordingMaterial:
    """A material that records the temperature of its first emission_terms call, then stops the step."""

    T = None

    def emission_terms(self, T, constants):
        self.T = T.copy()
        raise FirstCall


@pytest.mark.parametrize("model", ["fom", "p1"])
def test_predicted_start_is_floored(model):
    # A rate that extrapolates to -T in every other cell and to T / 2 in
    # the rest: the first pass freezes the former at GUARD_FACTOR T and
    # the latter on the extrapolation.
    transport, diffusion = problems()
    step, start = stepper(model, transport, diffusion)
    state = step(start)[0]
    drop = np.where(np.arange(state.T.size).reshape(state.T.shape) % 2 == 0, 2.0, 0.5)
    state = dataclasses.replace(state, dTdt=-drop * state.T / 0.02)
    recording = RecordingMaterial()
    step, _ = stepper(model, *(dataclasses.replace(p, material=recording) for p in (transport, diffusion)))
    with pytest.raises(FirstCall):
        step(state)
    expected = np.where(drop > 1.0, iteration.GUARD_FACTOR * state.T, state.T + 0.02 * state.dTdt)
    np.testing.assert_array_equal(recording.T, expected)


@pytest.mark.parametrize("model", ["fom", "p1"])
def test_predicted_start_saves_passes(model):
    # Steps 2-4 take 5, 6, 6 passes (FOM) and 6, 6, 6 (P1) started on the
    # extrapolated temperature, and 6, 7, 7 and 7, 7, 7 started at the
    # previous level.
    step, start = stepper(model, *problems())
    passes = {}
    for name, restart in (("predicted", lambda state: state), ("previous", lambda state: dataclasses.replace(state, dTdt=None))):
        state, passes[name] = start, []
        for _ in range(4):
            state, diag = step(restart(state))
            passes[name].append(diag.picard_iterations)
    assert all(p < q for p, q in zip(passes["predicted"][1:], passes["previous"][1:]))
