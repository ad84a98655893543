"""The one radiation/material coupling loop and its accelerated fixed point.

Every model - the transport FOM, P1, P1/3, FLD and the data-driven VEF -
advances the temperature through couple(): freeze T, solve the radiation
field, update T by the material-energy Newton. The loop is a fixed-point
map whose contraction degrades toward one in optically thick, strongly
heated cells: the per-step energy exchange locks radiation to the lagged
emission, so plain iteration crawls. Anderson mixing over a short residual
history, driven through the exchange preconditioner, removes that slow
mode while keeping the same fixed point, the same relative-change
convergence test, and the same failure behavior.

The solver settings are the module constants below; couple() reads them
at call time.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError
from .physics import update_temperature

#: Relative max-norm change at which the coupling iteration stops.
PICARD_TOL = 1.0e-10
PICARD_MAX_ITER = 200
#: Relative change at which the per-cell material Newton stops.
NEWTON_TOL = 1.0e-10
NEWTON_MAX_ITER = 200
#: Iterate/value pairs the Anderson mixer keeps.
ANDERSON_MEMORY = 20


def exchange_sensitivity(kappa, dB, cv: float, dt: float, c: float):
    """Thick-limit sensitivity of the coupling map, per cell.

    Estimates how strongly the updated temperature tracks the frozen one
    through the in-cell absorption/emission exchange: the radiation field
    relaxes toward 4 pi B(T~) with rate kappa c dt / (1 + kappa c dt), and
    the material update divides by the emission stiffness. Values approach
    one in optically thick, strongly radiating cells — exactly the modes
    that stall plain iteration.
    """
    fourpi_kb = 4.0 * np.pi * kappa * dB
    chi = np.sum(kappa * fourpi_kb * (c * dt) / (1.0 + kappa * c * dt), axis=0)
    return chi / (cv / dt + np.sum(fourpi_kb, axis=0))


def exchange_preconditioner(exchange_getter):
    """Residual rescale by 1/(1 - exchange), reading the field lazily.

    exchange_getter() returns the sensitivity field of the latest coupled
    pass; dividing the temperature residual by (1 - exchange) relaxes the
    slow local mode exactly in the 0-D limit, leaving only the spatial
    coupling for the Anderson mixer.
    """

    def precondition(x, gx):
        scale = 1.0 / (1.0 - np.clip(exchange_getter(), 0.0, 1.0 - 1.0e-4))
        return x + scale * (gx - x)

    return precondition


class AndersonAccelerator:
    """Anderson mixing for x_{k+1} = G(x_k) on flattened arrays.

    Keeps the last `memory` iterate/value pairs and proposes the residual
    least-squares combination of the stored G values. The memory is dropped
    when the residual norm blows up (100x growth) or the normal system
    degenerates, which falls back to a plain fixed-point step. Transient
    growth is tolerated: the stored pairs are exactly what lets the mixing
    cancel an overshooting inner map, so clearing on every uptick would
    lock oscillations in place.
    """

    def __init__(self, memory: int):
        self.memory = memory
        self._x: list[np.ndarray] = []
        self._g: list[np.ndarray] = []
        self._last_rnorm = np.inf

    def reset(self) -> None:
        """Forget all stored pairs (the map being mixed has changed)."""
        self._x.clear()
        self._g.clear()
        self._last_rnorm = np.inf

    def propose(self, x: np.ndarray, gx: np.ndarray) -> np.ndarray:
        x = x.ravel()
        gx = gx.ravel()
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

        m = len(self._x) - 1
        if m == 0:
            return gx.copy()
        R = np.stack([g - xi for g, xi in zip(self._g, self._x)], axis=1)
        dR = R[:, 1:] - R[:, :-1]
        try:
            gamma, *_ = np.linalg.lstsq(dR, r, rcond=None)
            solved = bool(np.all(np.isfinite(gamma)))
        except np.linalg.LinAlgError:
            solved = False
        if not solved:
            self._x = self._x[-1:]
            self._g = self._g[-1:]
            return gx.copy()
        G = np.stack(self._g, axis=1)
        dG = G[:, 1:] - G[:, :-1]
        return gx - dG @ gamma


def fixed_point_solve(
    G,
    x0: np.ndarray,
    tol: float,
    max_iter: int,
    memory: int,
    guard_factor: float | None = 0.1,
    precondition=None,
    change_measure=None,
    label: str = "fixed-point iteration",
):
    """Iterate x -> G(x) to a relative max-norm change below tol.

    G maps an array to an array of the same shape; convergence is
    max |G(x) - x| / |G(x)| <= tol (or a caller-supplied
    change_measure(x, gx)), evaluated on the raw map so the returned value
    is always an actual G output (consistent state). An optional
    precondition(x, gx) -> target replaces the plain target gx with a
    corrected one (same fixed point); Anderson mixing then runs on the
    preconditioned map. With guard_factor, proposals are floored at
    guard_factor * G(x) elementwise, which keeps positive quantities
    positive under extrapolation.

    The preconditioned correction is applied through a damping weight that
    starts at one and is halved — with the mixing memory cleared — after
    two consecutive iterations that fail to improve on the best change so
    far; it never increases again within a solve, and below 1/256 it snaps
    to zero (plain map). A well-calibrated correction keeps the residual
    shrinking, so the weight stays at one. When the linearization
    overestimates the coupling (for example in optically thick cells,
    where leakage to neighbours damps the local exchange mode), a full
    correction step diverges; backing off to a fixed smaller weight
    restores a contraction the mixing can accelerate. The weight must stay
    piecewise constant with the memory cleared at each change because the
    mixing builds a secant model of the damped map: pairs sampled at
    different weights describe different maps and poison the model.

    Returns (x, history) where history lists the relative change of every
    iteration. Raises ConvergenceError after max_iter.
    """
    accel = AndersonAccelerator(memory)
    x = np.asarray(x0, dtype=float)
    history: list[float] = []
    damping = 1.0
    best = np.inf
    stalled = 0
    for _ in range(max_iter):
        gx = G(x)
        if change_measure is None:
            change = float(np.max(np.abs(gx - x) / np.abs(gx)))
        else:
            change = float(change_measure(x, gx))
        history.append(change)
        if change <= tol:
            return gx, history
        if precondition is None or damping == 0.0:
            target = gx
        else:
            if change > best:
                stalled += 1
                if stalled >= 2:
                    damping = 0.5 * damping if damping >= 1.0 / 128.0 else 0.0
                    stalled = 0
                    accel.reset()
            else:
                stalled = 0
            target = gx if damping == 0.0 else gx + damping * (precondition(x, gx) - gx)
        best = min(best, change)
        x_next = accel.propose(x, target).reshape(x.shape)
        if guard_factor is not None:
            x_next = np.maximum(x_next, guard_factor * gx)
        x = x_next
    raise ConvergenceError(f"{label} did not converge", residual=history[-1], history=history)


def couple(problem, state, dt: float, radiate, label: str, e_scale: float | None = None):
    """Converge one backward-Euler step's radiation/material coupling.

    Each pass evaluates problem.material.emission_terms at the frozen
    temperature, solves the radiation field E = radiate(kappa, B, E_lag),
    estimates the exchange sensitivity and updates T from state.T by the
    material Newton started at the frozen T, which takes the pass's
    emission terms as its first evaluation instead of repeating it.
    Anderson mixing with the exchange preconditioner drives the passes to
    a relative change below PICARD_TOL. radiate keeps whatever else of its
    last solve the caller needs; the last pass is the one whose T is
    returned.

    The unknown is T alone, with E_lag the previous step's state.E. When
    the radiation solve depends on E as well (FLD's limiter), the caller
    passes e_scale, the problem's energy magnitude, and the unknown becomes
    the joint (T, E / e_scale) so the lagged coefficient converges together
    with the temperature; the E block converges below PICARD_TOL of the
    global scale even where the field underflows to zero, and the
    preconditioner acts on the T block only.

    Returns (T, history) with history the relative change of every pass.
    """
    n_T = state.T.size
    last = {}

    def pack(T, E):
        return np.concatenate([T.ravel(), E.ravel() / e_scale]) if e_scale is not None else T.ravel()

    def coupled_pass(x):
        T_freeze = x[:n_T].reshape(state.T.shape)
        E_lag = x[n_T:].reshape(state.E.shape) * e_scale if e_scale is not None else state.E
        terms = problem.material.emission_terms(T_freeze, problem.constants)
        kappa, _, B, dB = terms
        E = radiate(kappa, B, E_lag)
        last["exchange"] = exchange_sensitivity(kappa, dB, problem.eos.cv, dt, problem.constants.c).ravel()
        T = update_temperature(
            state.T, E, dt, problem.material, problem.eos, problem.constants,
            T_start=T_freeze, terms=terms, tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER,
        )
        return pack(T, E)

    relax_T = exchange_preconditioner(lambda: last["exchange"])

    def precondition(x, gx):
        return np.concatenate([relax_T(x[:n_T], gx[:n_T]), gx[n_T:]])

    def change_measure(x, gx):
        t_change = np.max(np.abs(gx[:n_T] - x[:n_T]) / np.abs(gx[:n_T]))
        return max(t_change, np.max(np.abs(gx[n_T:] - x[n_T:]), initial=0.0))

    x, history = fixed_point_solve(
        coupled_pass, pack(state.T, state.E), tol=PICARD_TOL, max_iter=PICARD_MAX_ITER,
        memory=ANDERSON_MEMORY, precondition=precondition, change_measure=change_measure, label=label,
    )
    return x[:n_T].reshape(state.T.shape), history
