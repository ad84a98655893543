"""Time-series containers shared by the transport and moment models.

A history stores every time level including the initial condition, so a run
of N steps holds N+1 levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass
class SolutionHistory:
    """Stacked time levels of one model run.

    times: (N+1,); T: (N+1, ny, nx); E: (N+1, G, ny, nx);
    Fx: (N+1, G, ny, nx+1); Fy: (N+1, G, ny+1, nx).
    """

    label: str
    times: np.ndarray
    T: np.ndarray
    E: np.ndarray
    Fx: np.ndarray
    Fy: np.ndarray
    diagnostics: list = field(default_factory=list)

    def __post_init__(self):
        n = self.times.shape[0]
        for name in ("T", "E", "Fx", "Fy"):
            arr = getattr(self, name)
            if arr.shape[0] != n:
                raise ConfigError(f"history field {name} has {arr.shape[0]} levels, expected {n}")

    @property
    def n_levels(self) -> int:
        return int(self.times.shape[0])


def march(label: str, state, advance, steps, callback=None) -> SolutionHistory:
    """Advance state once per item of steps and stack every level.

    advance(state, step) -> (state, diagnostics) is called in order with
    each item of steps; the optional callback(n, state, diagnostics) fires
    after step n. Every model's time loop is this one: the FOM and the
    diffusion models step over a range, the VEF over per-step closure data.
    """
    states = [state]
    diagnostics = []
    for n, step in enumerate(steps):
        state, diag = advance(state, step)
        states.append(state)
        diagnostics.append(diag)
        if callback is not None:
            callback(n, state, diag)
    return stack_history(label, states, diagnostics)


def stack_history(label: str, states, diagnostics=None) -> SolutionHistory:
    """Build a history from an ordered sequence of per-level states."""
    return SolutionHistory(
        label=label,
        times=np.array([s.t for s in states]),
        T=np.stack([s.T for s in states]),
        E=np.stack([s.E for s in states]),
        Fx=np.stack([s.Fx for s in states]),
        Fy=np.stack([s.Fy for s in states]),
        diagnostics=list(diagnostics) if diagnostics is not None else [],
    )
