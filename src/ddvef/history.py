"""Time levels, time series and step records shared by the transport and moment models.

A history stores every time level including the initial condition, so a run
of N steps holds N+1 levels. Each step of every model leaves a
StepDiagnostics: its coupling's pass changes and the defect of the global
energy budget (energy_balance_residual).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grid import SpatialMesh, boundary_cells, boundary_flux
from .physics import DEFAULT_CONSTANTS, MaterialEOS, group_planck


@dataclass
class MomentState:
    """Moment-model state at one time level: the transport state without its intensity.

    dTdt is the rate (T - T_prev) / dt of the step that made this level,
    None on an initial level. The next step's coupling starts on the
    temperature it extrapolates to (iteration.couple); it moves only the
    number of passes, never the step's result.
    """

    t: float
    T: np.ndarray   # (ny, nx)
    E: np.ndarray   # (G, ny, nx)
    Fx: np.ndarray  # (G, ny, nx+1)
    Fy: np.ndarray  # (G, ny+1, nx)
    dTdt: np.ndarray | None = field(default=None, kw_only=True)  # (ny, nx)


@dataclass
class StepDiagnostics:
    """One step's coupling record: the change of every pass and the energy budget's defect."""

    change_history: list[float]
    balance_residual: float

    @property
    def picard_iterations(self) -> int:
        return len(self.change_history)

def check_time_step(dt: float) -> None:
    """Raise ConfigError unless dt is positive and finite and not a bool;
    every model's step calls this before its first sweep or solve. The
    check is written so that nan, which fails every comparison, is
    rejected too."""
    if isinstance(dt, (bool, np.bool_)) or not 0.0 < dt < np.inf:
        raise ConfigError(f"a backward-Euler step requires a positive finite time step, got {dt}")


def check_step_count(n_steps) -> None:
    """Raise ConfigError unless n_steps is a whole number (not a bool) of at
    least zero; every model's run calls this before it builds its initial
    state. Zero steps is a run of the initial level alone."""
    if not (isinstance(n_steps, (int, np.integer)) and not isinstance(n_steps, bool) and n_steps >= 0):
        raise ConfigError(f"a run needs a whole number of at least zero steps, got {n_steps!r}")


def initial_moment_state(problem, T0, t0: float = 0.0) -> MomentState:
    """Equilibrium radiation at the initial temperature (scalar or (ny, nx) field), zero flux.

    problem is any problem with a mesh and a frequency grid, moment or
    transport. A T0 that is neither a scalar nor an (ny, nx) field, holds
    bools, or is not finite and positive everywhere, raises ConfigError;
    every model's run builds this state before its first sweep or solve.
    """
    mesh = problem.mesh
    if np.asarray(T0).dtype == bool:
        raise ConfigError(f"initial temperature must be a number, not a bool, got {T0!r}")
    T = np.asarray(T0, dtype=float)
    if T.shape not in ((), (mesh.ny, mesh.nx)):
        raise ConfigError(f"initial temperature has shape {T.shape}, expected a scalar or {(mesh.ny, mesh.nx)}")
    # Written so that nan, which fails every comparison, is rejected too.
    if not np.all((T > 0.0) & (T < np.inf)):
        raise ConfigError("initial temperature must be finite and positive")
    T = np.broadcast_to(T, (mesh.ny, mesh.nx)).copy()
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
    data. Only the live state is kept whole; of every level the march
    keeps t, T, E, Fx and Fy as they come, so a FOM state's intensity is
    freed once the next step has been taken.
    """
    levels = [(state.t, state.T, state.E, state.Fx, state.Fy)]
    diagnostics = []
    for step in steps:
        state, diag = advance(state, step)
        levels.append((state.t, state.T, state.E, state.Fx, state.Fy))
        diagnostics.append(diag)
    times, T, E, Fx, Fy = zip(*levels)
    return SolutionHistory(label, np.array(times), np.stack(T), np.stack(E), np.stack(Fx), np.stack(Fy), diagnostics)


def total_energy(T: np.ndarray, E: np.ndarray, mesh: SpatialMesh, eos: MaterialEOS) -> float:
    """Radiation plus material energy content [Jerk]."""
    return float((E.sum() + eos.cv * T.sum()) * mesh.cell_volume)


def energy_balance_residual(prev, new, dt: float, mesh: SpatialMesh, eos: MaterialEOS) -> float:
    """Normalized defect of the global backward-Euler energy budget.

    |Delta(E_rad + E_mat) + dt * net_outflow| / total energy, with the net
    outflow the end-of-step outward currents times the boundary face areas.
    Accepts any pair of states exposing T, E, Fx, Fy.
    """
    d_energy = total_energy(new.T, new.E, mesh, eos) - total_energy(prev.T, prev.E, mesh, eos)
    flow = float((boundary_flux(new.Fx, new.Fy) * (mesh.cell_volume / boundary_cells(mesh)[1])).sum())
    return abs(d_energy + dt * flow) / abs(total_energy(new.T, new.E, mesh, eos))
