"""Time levels and time series shared by the transport and moment models.

A history stores every time level including the initial condition, so a run
of N steps holds N+1 levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .physics import DEFAULT_CONSTANTS, group_planck


@dataclass
class MomentState:
    """Moment-model state at one time level: the transport state without its intensity."""

    t: float
    T: np.ndarray   # (ny, nx)
    E: np.ndarray   # (G, ny, nx)
    Fx: np.ndarray  # (G, ny, nx+1)
    Fy: np.ndarray  # (G, ny+1, nx)


def check_time_step(dt: float) -> None:
    """Raise ConfigError unless dt is positive and finite; every model's
    step calls this before its first sweep or solve. The check is written
    so that nan, which fails every comparison, is rejected too."""
    if not 0.0 < dt < np.inf:
        raise ConfigError(f"a backward-Euler step requires a positive finite time step, got {dt}")


def initial_moment_state(problem, T0, t0: float = 0.0) -> MomentState:
    """Equilibrium radiation at the initial temperature (scalar or (ny, nx) field), zero flux.

    problem is any problem with a mesh and a frequency grid, moment or
    transport.
    """
    mesh = problem.mesh
    T = np.broadcast_to(np.asarray(T0, dtype=float), (mesh.ny, mesh.nx)).copy()
    E = (4.0 * np.pi / DEFAULT_CONSTANTS.c) * group_planck(T, problem.fgrid)
    G = E.shape[0]
    return MomentState(float(t0), T, E, np.zeros((G, mesh.ny, mesh.nx + 1)), np.zeros((G, mesh.ny + 1, mesh.nx)))


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


def march(label: str, state, advance, steps) -> SolutionHistory:
    """Advance state once per item of steps and stack every level.

    advance(state, step) -> (state, diagnostics) is called in order with
    each item of steps. Every model's time loop is this one: the FOM and
    the diffusion models step over a range, the VEF over per-step closure
    data.
    """
    states = [state]
    diagnostics = []
    for step in steps:
        state, diag = advance(state, step)
        states.append(state)
        diagnostics.append(diag)
    return SolutionHistory(
        label=label,
        times=np.array([s.t for s in states]),
        T=np.stack([s.T for s in states]),
        E=np.stack([s.E for s in states]),
        Fx=np.stack([s.Fx for s in states]),
        Fy=np.stack([s.Fy for s in states]),
        diagnostics=diagnostics,
    )
