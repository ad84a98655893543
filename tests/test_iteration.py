"""Tests for the coupling's accelerated fixed-point loop on linear maps."""

import numpy as np
import pytest

from ddvef import iteration
from ddvef.diffusion import BoundaryCondition, DiffusionProblem, FaceForms, MomentSystem, _marshak_boundary
from ddvef.errors import ConvergenceError
from ddvef.grid import SIDES, SpatialMesh, build_frequency_grid
from ddvef.iteration import _LSTSQ_RCOND, AndersonAccelerator, exchange_sensitivity, fixed_point_solve
from ddvef.physics import DEFAULT_CONSTANTS, ConstantOpacity, MaterialEOS, benchmark_cv, group_planck, update_temperature


def linear_map(rho: float, n: int = 6, seed: int = 0, exchange: float = 0.0):
    """A coupling pass x -> (A x + b, exchange) with spectral radius rho, and its fixed point.

    A and b are positive. The pass ignores the back-off weight and reports
    the same exchange sensitivity in every cell, so the preconditioner
    scales each step by 1 / (1 - exchange).
    """
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.1, 1.0, (n, n))
    A *= rho / np.max(np.abs(np.linalg.eigvals(A)))
    b = rng.uniform(1.0, 2.0, n)
    return (lambda x, _: (A @ x + b, np.full(n, exchange))), np.linalg.solve(np.eye(n) - A, b)


def recording(coupled_pass, inputs, outputs):
    """The same pass, appending copies of every iterate and output."""

    def recorded(x, theta):
        gx, exchange = coupled_pass(x, theta)
        inputs.append(x.copy())
        outputs.append(gx.copy())
        return gx, exchange

    return recorded


def test_anderson_converges_to_the_fixed_point_faster_than_plain_iteration(monkeypatch):
    monkeypatch.setattr(iteration, "PICARD_TOL", 1e-12)
    monkeypatch.setattr(iteration, "PICARD_MAX_ITER", 1000)
    G, x_star = linear_map(0.95)
    x0 = np.ones_like(x_star)
    monkeypatch.setattr(iteration, "ANDERSON_MEMORY", 5)
    x, history = fixed_point_solve(G, x0, x0.size, "mixed")
    np.testing.assert_allclose(x, x_star, rtol=1e-10)
    monkeypatch.setattr(iteration, "ANDERSON_MEMORY", 0)
    _, plain = fixed_point_solve(G, x0, x0.size, "plain")
    assert len(history) < 20 < len(plain)


def test_anderson_proposal_is_exact_for_a_scalar_linear_map():
    # two pairs fix the secant of a 1-D affine map, so the third proposal is its root
    accel = AndersonAccelerator(memory=3)
    G = lambda x: 0.5 * x + 1.0  # noqa: E731
    x = np.array([0.0])
    for _ in range(2):
        x = accel.propose(x, G(x))
    np.testing.assert_allclose(x, [2.0], rtol=1e-14)


def test_nonconvergence_raises_with_the_residual_history(monkeypatch):
    monkeypatch.setattr(iteration, "PICARD_TOL", 1e-12)
    monkeypatch.setattr(iteration, "PICARD_MAX_ITER", 4)
    monkeypatch.setattr(iteration, "ANDERSON_MEMORY", 0)
    G, _ = linear_map(0.99)
    with pytest.raises(ConvergenceError) as info:
        fixed_point_solve(G, np.ones(6), 6, "slow map")
    err = info.value
    assert len(err.history) == 4
    assert err.residual == err.history[-1] > 1e-12
    assert "slow map" in str(err)


def test_damping_backs_off_an_overshooting_preconditioner(monkeypatch):
    # The ideal rescale for contraction 1/2 is 2; exchange 0.9 rescales by
    # 10, which makes every full step diverge (error factor -4). Without
    # mixing memory only halving the damping weight restores a contraction;
    # the mixing cancels the overshoot from its stored pairs far sooner.
    monkeypatch.setattr(iteration, "PICARD_TOL", 1e-10)
    monkeypatch.setattr(iteration, "PICARD_MAX_ITER", 1000)
    G, x_star = linear_map(0.5, exchange=0.9)
    monkeypatch.setattr(iteration, "ANDERSON_MEMORY", 0)
    x, plain = fixed_point_solve(G, np.ones(6), 6, "plain")
    np.testing.assert_allclose(x, x_star, rtol=1e-9)
    assert max(plain[1:4]) > plain[0]  # the overshoot really happened
    monkeypatch.setattr(iteration, "ANDERSON_MEMORY", 20)
    x, mixed = fixed_point_solve(G, np.ones(6), 6, "mixed")
    np.testing.assert_allclose(x, x_star, rtol=1e-9)
    assert len(mixed) < 20 < len(plain)


def back_off_schedule(coupled_pass, x0, monkeypatch):
    """The theta handed to every pass, the change of every pass, and the
    passes before which the mixing memory was cleared; a run that does
    not converge is read from its ConvergenceError."""
    thetas, resets = [], []
    reset = iteration.AndersonAccelerator.reset
    monkeypatch.setattr(iteration.AndersonAccelerator, "reset", lambda self: resets.append(len(thetas)) or reset(self))

    def recorded(x, theta):
        thetas.append(theta)
        return coupled_pass(x, theta)

    try:
        _, history = fixed_point_solve(recorded, x0, x0.size, "back-off")
    except ConvergenceError as err:
        history = err.history
    return thetas, history, resets


def lowered_by_the_rule(history):
    """The passes whose theta the documented rule lowers: each pass after the
    second consecutive pass, counted since the last change, whose change is
    above the best change so far, up to the ninth change, at which 1/256
    snaps to zero."""
    lowered, best, stalled = [], np.inf, 0
    for k, change in enumerate(history):
        stalled = stalled + 1 if change > best else 0
        best = min(best, change)
        if stalled == 2 and len(lowered) < 9:
            lowered.append(k + 1)
            stalled = 0
    return lowered


def check_back_off(thetas, history, resets):
    """theta never rises, and it changes, with the memory cleared, exactly where the rule says."""
    assert all(later <= earlier for earlier, later in zip(thetas, thetas[1:]))
    changed = [k for k in range(1, len(thetas)) if thetas[k] != thetas[k - 1]]
    assert changed == resets == [k for k in lowered_by_the_rule(history) if k < len(thetas)]


def test_back_off_halves_theta_after_two_passes_without_improvement(monkeypatch):
    # The overshooting preconditioner of the test above, without mixing:
    # only the halvings restore a contraction, and the first weight that
    # does, 1/32, is kept to convergence.
    monkeypatch.setattr(iteration, "PICARD_TOL", 1e-10)
    monkeypatch.setattr(iteration, "PICARD_MAX_ITER", 1000)
    monkeypatch.setattr(iteration, "ANDERSON_MEMORY", 0)
    G, _ = linear_map(0.5, exchange=0.9)
    thetas, history, resets = back_off_schedule(G, np.ones(6), monkeypatch)
    assert len(thetas) == len(history) == 37 and history[-1] <= 1e-10
    assert sorted(set(thetas), reverse=True) == [2.0**-k for k in range(6)]
    check_back_off(thetas, history, resets)


def test_back_off_snaps_to_plain_passes_below_a_256th(monkeypatch):
    # After its second pass a diverging map never improves on its best
    # change, so theta halves every second pass, through 1/256, and then
    # snaps to zero for the rest of the run.
    monkeypatch.setattr(iteration, "PICARD_MAX_ITER", 60)
    monkeypatch.setattr(iteration, "ANDERSON_MEMORY", 20)
    thetas, history, resets = back_off_schedule(lambda x, _: (2.0 * x + 1.0, np.zeros(x.size)), np.ones(3), monkeypatch)
    assert len(thetas) == len(history) == 60
    assert sorted(set(thetas), reverse=True) == [2.0**-k for k in range(9)] + [0.0]
    assert thetas.index(0.0) == 20 and set(thetas[20:]) == {0.0}
    check_back_off(thetas, history, resets)


def test_every_iterate_is_floored_at_a_tenth_of_the_previous_pass_output():
    # Started ten times above the fixed point, the map cools every cell, and
    # the exchange preconditioner's scale of 10 throws the first proposal
    # far below zero: only the floor keeps the iterates positive.
    G, x_star = linear_map(0.5, exchange=0.9)
    inputs, outputs = [], []
    x, _ = fixed_point_solve(recording(G, inputs, outputs), 10.0 * x_star, x_star.size, "cooling")
    np.testing.assert_allclose(x, x_star, rtol=1e-9)
    floors = [iteration.GUARD_FACTOR * g for g in outputs[:-1]]
    assert all(np.all(x_k >= floor) for x_k, floor in zip(inputs[1:], floors))
    assert np.any(inputs[1] == floors[0])  # the floor really acted


def test_joint_change_is_relative_in_T_and_absolute_in_the_energy_block():
    # The energy block e -> e_star - (e - e_star) / 2 lands on exactly zero
    # in every entry on the first pass and converges to an entry that is
    # zero, so a relative measure on it would divide by zero; the change
    # recorded is the relative T change joined with the absolute E change.
    G_T, T_star = linear_map(0.5)
    n_T = T_star.size
    e_star = np.array([0.0, 1.0, 2.0])

    def joint_pass(x, theta):
        gT, exchange = G_T(x[:n_T], theta)
        return np.concatenate([gT, e_star - 0.5 * (x[n_T:] - e_star)]), exchange

    inputs, outputs = [], []
    x0 = np.concatenate([np.ones(n_T), 3.0 * e_star])
    x, history = fixed_point_solve(recording(joint_pass, inputs, outputs), x0, n_T, "joint")
    np.testing.assert_array_equal(outputs[0][n_T:], 0.0)
    np.testing.assert_allclose(x, np.concatenate([T_star, e_star]), rtol=1e-9, atol=1e-10)
    expected = [
        max(np.max(np.abs(g[:n_T] - xi[:n_T]) / np.abs(g[:n_T])), np.max(np.abs(g[n_T:] - xi[n_T:])))
        for xi, g in zip(inputs, outputs)
    ]
    assert history == expected
    assert history[0] == 6.0  # the energy block's absolute change leads


class RestackingAnderson:
    """Reference mixer: keeps the pairs themselves and restacks every difference on each call."""

    def __init__(self, memory):
        self.memory = memory
        self._x, self._g = [], []
        self._last_rnorm = np.inf

    def reset(self):
        self._x.clear()
        self._g.clear()
        self._last_rnorm = np.inf

    def propose(self, x, gx):
        x, gx = x.ravel(), gx.ravel()
        r = gx - x
        rnorm = float(np.linalg.norm(r))
        if rnorm > 1.0e2 * self._last_rnorm:
            self._x.clear()
            self._g.clear()
        self._last_rnorm = min(rnorm, self._last_rnorm)
        self._x.append(x.copy())
        self._g.append(gx.copy())
        if len(self._x) > self.memory + 1:
            self._x.pop(0)
            self._g.pop(0)
        if len(self._x) == 1:
            return gx.copy()
        R = np.stack([g - xi for g, xi in zip(self._g, self._x)], axis=1)
        dR = R[:, 1:] - R[:, :-1]
        norms = np.linalg.norm(dR, axis=0)
        norms[norms == 0.0] = 1.0
        try:
            gamma, *_ = np.linalg.lstsq(dR / norms, r, rcond=_LSTSQ_RCOND)
            gamma /= norms
            solved = bool(np.all(np.isfinite(gamma)))
        except np.linalg.LinAlgError:
            solved = False
        if not solved:
            self._x, self._g = self._x[-1:], self._g[-1:]
            return gx.copy()
        G = np.stack(self._g, axis=1)
        return gx - (G[:, 1:] - G[:, :-1]) @ gamma


@pytest.mark.parametrize("memory", [0, 1, 5, 20])
@pytest.mark.parametrize("n", [7, 1152])
def test_incremental_differences_propose_what_restacking_proposes(memory, n):
    # 60 pairs with shrinking residuals overflow every memory; pair 25 repeats
    # pair 24 (a zero difference column), pair 30 jumps 1e3 above the
    # smallest residual (the 100x reset), and both mixers are reset before
    # pair 45. Every proposal must agree bit for bit.
    rng = np.random.default_rng(memory + n)
    new, ref = AndersonAccelerator(memory), RestackingAnderson(memory)
    x = rng.uniform(1.0, 2.0, n)
    for k in range(60):
        if k == 45:
            new.reset()
            ref.reset()
        if k != 25:
            scale = 1.0e3 if k == 30 else 0.7**k
            gx = x + scale * rng.normal(size=n)
        proposed = new.propose(x, gx)
        np.testing.assert_array_equal(proposed, ref.propose(x, gx))
        if k in (29, 30):
            # full memory just before the jump, one pair right after it
            assert len(ref._x) == (memory + 1 if k == 29 else 1)
        if k != 24:
            x = proposed + 0.1 * rng.normal(size=n)


def test_exchange_sensitivity_is_the_derivative_of_the_zero_d_coupling_map():
    # One reflective cell at equilibrium (T_prev = T~, E_prev = 4 pi B / c):
    # a pass solves the moment system at the frozen T~ and converges the
    # material Newton. Its derivative in T~ there is the exchange
    # sensitivity exactly, which rises toward one as the cell thickens
    # (0.378, 0.870, 0.985 and 0.99985 here).
    c, T0, dt, h = DEFAULT_CONSTANTS.c, 1.0, 0.01, 1.0e-6
    fgrid = build_frequency_grid([0.3, 1.0, 3.0, 100.0])
    mesh, eos, G = SpatialMesh(1, 1, 1.0, 1.0), MaterialEOS(benchmark_cv(1.0)), fgrid.n_groups
    T_prev = np.full((1, 1), T0)
    E_prev = 4.0 * np.pi * group_planck(T_prev, fgrid) / c
    sensitivities = []
    for scale in (0.1, 1.0, 10.0, 1000.0):
        material = ConstantOpacity(fgrid, scale * np.array([1.0, 3.0, 10.0, 30.0]))
        problem = DiffusionProblem(mesh, fgrid, material, eos, {side: BoundaryCondition("reflective") for side in SIDES})
        no_faces = FaceForms(np.zeros((2, G, 0)), np.zeros((G, 0)))
        system = MomentSystem(mesh, dt, E_prev, *_marshak_boundary(problem, problem.incoming_currents()))

        def coupling_map(T_freeze):
            kappa, _, B, _ = material.emission_terms(np.full((1, 1), T_freeze), DEFAULT_CONSTANTS)
            E = system.solve(no_faces, c * kappa, 4.0 * np.pi * kappa * B)
            return update_temperature(T_prev, E, dt, material, eos)[0, 0]

        kappa, _, _, dB = material.emission_terms(T_prev, DEFAULT_CONSTANTS)
        exchange = exchange_sensitivity(kappa, dB, eos.cv, dt)[0, 0]
        assert (coupling_map(T0 + h) - coupling_map(T0 - h)) / (2.0 * h) == pytest.approx(exchange, rel=0.0, abs=1.0e-8)
        sensitivities.append(exchange)
    assert np.all(np.diff(sensitivities) > 0.0)
    assert sensitivities[0] < 0.5 and sensitivities[-1] > 0.999
