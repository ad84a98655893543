"""The one radiation/material coupling loop and its accelerated fixed point.

Every model - the transport FOM, P1, P1/3, FLD and the data-driven VEF -
advances the temperature through couple(): freeze T, solve the radiation
field, update T by the material-energy Newton. The loop is a fixed-point
map whose contraction degrades toward one in optically thick, strongly
heated cells: the per-step energy exchange locks radiation to the lagged
emission, so plain iteration crawls. fixed_point_solve, couple's own loop,
removes that slow mode with the exchange preconditioner and Anderson
mixing over a short history, keeping the same fixed point, the same
change test and the same failure behavior.

A step starts on the temperature extrapolated from the last one,
T + dt dT/dt, floored at GUARD_FACTOR T; an initial level, which has no
rate, starts at its own T. The start sets only how many passes the step
takes, not where they converge.

Each pass's material Newton is inexact: it stops at a relative step of
PASS_NEWTON_TOL instead of converging. The outer loop enforces the
material balance at its fixed point anyway, since there the Newton starts
at its own root and its first step is zero, so converging it fully on
every pass only repeats emission evaluations (an inexact inner solve in
the sense of Eisenstat and Walker). The mixing solves its least squares
on unit-norm residual differences with a relative cutoff: over a memory
of 20 passes the residuals shrink by up to ten orders, and the unscaled
fit let the grey cold start stall and took the FOM at dt = 1 ns from 30
to 44 passes (tests/test_regimes.py).

The coupling settings are the module values below; fixed_point_solve
reads them at call time. The fully converged Newton's settings live with
the Newton, as physics.NEWTON_TOL and physics.NEWTON_MAX_ITER.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError
from .physics import DEFAULT_CONSTANTS, update_temperature

#: Relative max-norm change at which the coupling iteration stops.
PICARD_TOL = 1.0e-10
PICARD_MAX_ITER = 200
#: Relative max-norm step at which each coupling pass's material Newton
#: stops. On the benchmark's P1, P1/3 and FLD marches 0.3 takes 119 passes
#: and 125 emission evaluations, against 125 and 154 at 1e-2; one Newton
#: step per pass (an infinite tolerance) lets a FOM step at 0.1x opacity
#: take 74 passes (tests/test_regimes.py).
PASS_NEWTON_TOL = 0.3
#: Iterate/value pairs the Anderson mixer keeps.
ANDERSON_MEMORY = 20
#: Each proposal is floored at this fraction of the pass output it mixes.
GUARD_FACTOR = 0.1
#: Singular values of the scaled mixing least squares below this fraction
#: of the largest are cut off.
_LSTSQ_RCOND = 1.0e-8


def exchange_sensitivity(kappa, dB, cv: float, dt: float):
    """Thick-limit sensitivity of the coupling map, per cell.

    Estimates how strongly the updated temperature tracks the frozen one
    through the in-cell absorption/emission exchange: the radiation field
    relaxes toward 4 pi B(T~) with rate kappa c dt / (1 + kappa c dt), and
    the material update divides by the emission stiffness. Values approach
    one in optically thick, strongly radiating cells — exactly the modes
    that stall plain iteration.
    """
    c = DEFAULT_CONSTANTS.c
    fourpi_kb = 4.0 * np.pi * kappa * dB
    chi = np.sum(kappa * fourpi_kb * (c * dt) / (1.0 + kappa * c * dt), axis=0)
    return chi / (cv / dt + np.sum(fourpi_kb, axis=0))


class AndersonAccelerator:
    """Anderson mixing for x_{k+1} = G(x_k) on flattened arrays.

    Keeps the differences of the last `memory` + 1 iterate/value pairs and
    proposes the residual least-squares combination of the stored G values.
    The residual and value differences live in preallocated n x memory
    arrays, oldest column first: each proposal writes one new column from
    the previous pair, shifting the others left once the memory is full, so
    no call restacks the history. The least squares is solved by lstsq on
    the residual differences scaled to unit norm, with singular values
    below _LSTSQ_RCOND of the largest cut off, and the coefficients are
    scaled back. The memory is dropped when the residual norm blows up
    (100x growth) or lstsq fails or returns non-finite coefficients, which
    falls back to a plain fixed-point step. Transient growth is tolerated:
    the stored pairs are exactly what lets the mixing cancel an
    overshooting inner map, so clearing on every uptick would lock
    oscillations in place.
    """

    def __init__(self, memory: int):
        self.memory = memory
        self._dR: np.ndarray | None = None  # (n, memory) residual differences
        self._dG: np.ndarray | None = None  # (n, memory) value differences
        self._k = 0  # columns in use
        self._r: np.ndarray | None = None  # last pair's residual, None before the first
        self._g: np.ndarray | None = None  # last pair's value
        self._last_rnorm = np.inf

    def reset(self) -> None:
        """Forget all stored pairs (the map being mixed has changed)."""
        self._k = 0
        self._r = self._g = None
        self._last_rnorm = np.inf

    def propose(self, x: np.ndarray, gx: np.ndarray) -> np.ndarray:
        x = x.ravel()
        gx = gx.ravel()
        r = gx - x
        rnorm = float(np.linalg.norm(r))
        if rnorm > 1.0e2 * self._last_rnorm:
            self._k, self._r = 0, None
        self._last_rnorm = min(rnorm, self._last_rnorm)

        if self._r is not None and self.memory > 0:
            if self._dR is None:
                self._dR, self._dG = np.empty((r.size, self.memory)), np.empty((r.size, self.memory))
            if self._k == self.memory:
                self._dR[:, :-1] = self._dR[:, 1:]
                self._dG[:, :-1] = self._dG[:, 1:]
            else:
                self._k += 1
            np.subtract(r, self._r, out=self._dR[:, self._k - 1])
            np.subtract(gx, self._g, out=self._dG[:, self._k - 1])
        self._r, self._g = r, gx.copy()

        if self._k == 0:
            return gx.copy()
        dR = self._dR[:, : self._k]
        norms = np.linalg.norm(dR, axis=0)
        norms[norms == 0.0] = 1.0
        try:
            gamma, *_ = np.linalg.lstsq(dR / norms, r, rcond=_LSTSQ_RCOND)
            gamma /= norms
            solved = bool(np.all(np.isfinite(gamma)))
        except np.linalg.LinAlgError:
            solved = False
        if not solved:
            self._k = 0
            return gx.copy()
        return gx - self._dG[:, : self._k] @ gamma


def fixed_point_solve(coupled_pass, x0: np.ndarray, n_T: int, label: str):
    """Drive the coupling passes x -> coupled_pass(x, theta) to their fixed point.

    The unknown x holds the frozen temperature in x[:n_T], followed by the
    scaled FLD energy when the coupling is joint (see couple). A pass
    returns (gx, exchange): its new unknown and the exchange sensitivity
    of its T block. The change of a pass is the relative max-norm change
    of the T block joined with the absolute max-norm change of the energy
    block, which is already scaled and may pass through zero; the loop
    stops once it is at most PICARD_TOL, returning the last pass's gx, so
    the result is always an actual pass output (consistent state).

    Otherwise the next iterate is the Anderson proposal (ANDERSON_MEMORY
    pairs) on the preconditioned target: the T block of the step gx - x is
    divided by (1 - exchange), which relaxes the slow local mode exactly in
    the 0-D limit and leaves only the spatial coupling for the mixing; the
    energy block is left as the pass returned it. The proposal is floored
    at GUARD_FACTOR * gx elementwise, which keeps the temperature and the
    energy positive under extrapolation.

    The correction is applied through a back-off weight theta that starts
    at one and is halved, with the mixing memory cleared, after two
    consecutive passes that fail to improve on the best change so far; it
    never rises again within a step, and below 1/256 it snaps to zero
    (plain passes). A well-calibrated correction keeps the change
    shrinking, so the weight stays at one. When the linearization
    overestimates the coupling (in optically thick cells, where leakage to
    neighbours damps the local exchange mode), a full correction diverges;
    backing off to a fixed smaller weight restores a contraction the
    mixing can accelerate. The weight stays piecewise constant with the
    memory cleared at each change because the mixing builds a secant model
    of the damped map: pairs sampled at different weights describe
    different maps and poison the model. The pass reads theta too, which
    leaves its fixed point alone: FLD scales the Newton part of its
    limiter linearization by it, so the back-off that damps the correction
    also falls back toward FLD's Picard faces.

    PICARD_TOL, PICARD_MAX_ITER and ANDERSON_MEMORY are read at call time.
    Returns (x, history) where history lists the change of every pass.
    Raises ConvergenceError, carrying that history, after PICARD_MAX_ITER
    passes.
    """
    accel = AndersonAccelerator(ANDERSON_MEMORY)
    x = np.asarray(x0, dtype=float)
    history: list[float] = []
    theta = 1.0
    best = np.inf
    stalled = 0
    for _ in range(PICARD_MAX_ITER):
        gx, exchange = coupled_pass(x, theta)
        t_change = np.max(np.abs(gx[:n_T] - x[:n_T]) / np.abs(gx[:n_T]))
        change = float(max(t_change, np.max(np.abs(gx[n_T:] - x[n_T:]), initial=0.0)))
        history.append(change)
        if change <= PICARD_TOL:
            return gx, history
        if theta > 0.0:
            stalled = stalled + 1 if change > best else 0
            if stalled >= 2:
                theta = 0.5 * theta if theta >= 1.0 / 128.0 else 0.0
                stalled = 0
                accel.reset()
        best = min(best, change)
        target = gx
        if theta > 0.0:
            scale = 1.0 / (1.0 - np.clip(exchange, 0.0, 1.0 - 1.0e-4))
            target = gx.copy()
            target[:n_T] += theta * (x[:n_T] + scale * (gx[:n_T] - x[:n_T]) - gx[:n_T])
        x = np.maximum(accel.propose(x, target), GUARD_FACTOR * gx)
    raise ConvergenceError(f"{label} did not converge", residual=history[-1], history=history)


def couple(problem, state, dt: float, radiate, label: str, T_start, e_scale: float | None = None):
    """Converge one backward-Euler step's radiation/material coupling.

    The first pass freezes the temperature at T_start: the data-driven VEF
    passes the data temperature at which its closure was frozen, and
    T_start=None, which the FOM and the diffusion models pass, predicts it
    from the last step as max(T + dt dTdt, GUARD_FACTOR T) with T and dTdt
    the state's, or takes state.T on a level without a rate. The fixed
    point does not depend on the start, only the number of passes does.
    Each pass evaluates problem.material.emission_terms at the frozen
    temperature, solves the radiation field E = radiate(kappa, B, E_lag, theta),
    estimates the exchange sensitivity and updates T from state.T by the
    material Newton started at the frozen T, which takes the pass's
    emission terms as its first evaluation instead of repeating it. That
    Newton stops at a relative step of PASS_NEWTON_TOL, usually after its
    first step: the fixed point is the same as with a converged Newton,
    because there the frozen T is the Newton's root and its first step is
    zero. fixed_point_solve drives the passes to a change below
    PICARD_TOL. radiate keeps whatever else of its last solve the caller
    needs; the last pass is the one whose T is returned.

    The unknown is T alone, with E_lag the previous step's state.E. When
    the radiation solve depends on E as well (FLD's limiter), the caller
    passes e_scale, the problem's energy magnitude, and the unknown becomes
    the joint (T, E / e_scale) so the lagged coefficient converges together
    with the temperature; the E block converges below PICARD_TOL of the
    global scale even where the field underflows to zero, and the
    preconditioner acts on the T block only. Each pass hands radiate
    fixed_point_solve's back-off weight theta: FLD scales the Newton part
    of its limiter linearization by it (diffusion._fld_faces), and the
    other models ignore it.

    Returns (T, history) with history the change of every pass.
    """
    n_T = state.T.size
    if T_start is None:
        T_start = state.T if state.dTdt is None else np.maximum(state.T + dt * state.dTdt, GUARD_FACTOR * state.T)

    def pack(T, E):
        return np.concatenate([T.ravel(), E.ravel() / e_scale]) if e_scale is not None else T.ravel()

    def coupled_pass(x, theta):
        T_freeze = x[:n_T].reshape(state.T.shape)
        E_lag = x[n_T:].reshape(state.E.shape) * e_scale if e_scale is not None else state.E
        terms = problem.material.emission_terms(T_freeze, DEFAULT_CONSTANTS)
        kappa, _, B, dB = terms
        E = radiate(kappa, B, E_lag, theta)
        T = update_temperature(
            state.T, E, dt, problem.material, problem.eos, T_start=T_freeze, terms=terms, tol=PASS_NEWTON_TOL,
        )
        return pack(T, E), exchange_sensitivity(kappa, dB, problem.eos.cv, dt).ravel()

    x, history = fixed_point_solve(coupled_pass, pack(T_start, state.E), n_T, label)
    return x[:n_T].reshape(state.T.shape), history
