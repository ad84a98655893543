"""Discrete-ordinates transport: positivity-preserving sweeps and the
fully coupled full-order model (FOM) time step.

The backward-Euler multigroup transport equation is folded into a steady
sweep per step: the effective absorption is kappa* = kappa_g + 1/(c dt) and
the effective source gains I_prev/(c dt). Each cell update integrates the
attenuation exponential along the single effective chord
ds = 1 / (|Omega_x|/dx + |Omega_y|/dy), mixing the two upwind faces with
flux weights; both outflow faces receive the chord exit value. The scheme
preserves constants (an isotropic equilibrium is a fixed point to roundoff),
keeps intensities nonnegative, and satisfies the finite-volume balance
exactly, so the global energy budget telescopes to the boundary fluxes.

Intensity arrays are laid out (ny, nx, G, M): cell row, cell column, group,
direction. Face-normal fluxes live on faces: Fx (G, ny, nx+1), Fy
(G, ny+1, nx).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grid import SIDES, AngularQuadrature, FrequencyGrid, SpatialMesh
from .history import march
from .iteration import couple
from .physics import (
    DEFAULT_CONSTANTS,
    MaterialEOS,
    PhysicalConstants,
    group_planck,
)


@dataclass(frozen=True)
class BoundaryInflow:
    """Isotropic incoming intensity per side, (G,) arrays; None = vacuum."""

    left: np.ndarray | None = None
    right: np.ndarray | None = None
    bottom: np.ndarray | None = None
    top: np.ndarray | None = None

    def value(self, side: str, n_groups: int) -> np.ndarray:
        v = getattr(self, side)
        if v is None:
            return np.zeros(n_groups)
        v = np.asarray(v, dtype=float)
        if v.shape != (n_groups,):
            raise ConfigError(f"inflow for side {side!r} has shape {v.shape}, expected ({n_groups},)")
        return v


def planckian_inflow(fgrid: FrequencyGrid, T_drive: float, sides=("left",), constants: PhysicalConstants = DEFAULT_CONSTANTS) -> BoundaryInflow:
    """Blackbody drive at T_drive on the given sides, vacuum elsewhere."""
    B = group_planck(T_drive, fgrid, constants)
    values = {side: (B.copy() if side in sides else None) for side in SIDES}
    return BoundaryInflow(**values)


def step_characteristic_update(I_w, I_s, ax, ay, kappa_eff, source):
    """One chord-based step-characteristic cell update.

    I_w, I_s are the upwind x/y face intensities, ax = |Omega_x|/dx,
    ay = |Omega_y|/dy, kappa_eff the effective absorption and source the
    effective isotropic source (per steradian). Returns (I_out, I_avg):
    the shared outflow-face value and the cell average. All arguments
    broadcast together.
    """
    inv_ds = ax + ay
    I_in = (ax * I_w + ay * I_s) / inv_ds
    eps = kappa_eff / inv_ds
    e = np.exp(-eps)
    small = eps < 1.0e-2
    eps_s = np.where(small, eps, 1.0)  # keep the series arm finite
    g1_series = 1.0 - eps_s / 2.0 + eps_s**2 / 6.0 - eps_s**3 / 24.0 + eps_s**4 / 120.0 - eps_s**5 / 720.0
    g2_series = 0.5 - eps_s / 6.0 + eps_s**2 / 24.0 - eps_s**3 / 120.0 + eps_s**4 / 720.0 - eps_s**5 / 5040.0
    with np.errstate(divide="ignore", invalid="ignore"):
        g1_direct = -np.expm1(-eps) / eps
        g2_direct = (1.0 - g1_direct) / eps
    g1 = np.where(small, g1_series, g1_direct)
    g2 = np.where(small, g2_series, g2_direct)
    q_ds = source / inv_ds
    I_out = I_in * e + q_ds * g1
    I_avg = I_in * g1 + q_ds * g2
    return I_out, I_avg


@dataclass
class SweepResult:
    """Intensity and its accumulated moments from one full sweep."""

    psi: np.ndarray        # (ny, nx, G, M)
    E: np.ndarray          # (G, ny, nx)
    Fx: np.ndarray         # (G, ny, nx+1) face-normal x-flux
    Fy: np.ndarray         # (G, ny+1, nx)
    bface_wI: np.ndarray   # (G, 2(nx+ny)) outgoing sum w I at boundary faces
    bface_wnI: np.ndarray  # (G, 2(nx+ny)) outgoing sum w (n.Omega) I


def sweep(
    mesh: SpatialMesh,
    quad: AngularQuadrature,
    kappa: np.ndarray,
    source: np.ndarray,
    psi_prev: np.ndarray | None = None,
    dt: float | None = None,
    inflow: BoundaryInflow | None = None,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> SweepResult:
    """Sweep all groups and directions across the mesh in upwind order.

    kappa and source are the physical absorption and isotropic emission
    source (G, ny, nx); when dt is given the backward-Euler terms are folded
    in and psi_prev (ny, nx, G, M) is required. Octants are processed one at
    a time; within an octant, cells on an anti-diagonal are independent and
    updated together across all groups and octant directions.
    """
    nx, ny = mesh.nx, mesh.ny
    G = kappa.shape[0]
    M = quad.n_directions
    if kappa.shape != (G, ny, nx) or source.shape != (G, ny, nx):
        raise ConfigError("kappa/source must have shape (G, ny, nx)")
    if dt is not None:
        if psi_prev is None:
            raise ConfigError("time-dependent sweep requires psi_prev")
        sink = 1.0 / (constants.c * dt)
        kappa_eff = kappa + sink
    else:
        sink = 0.0
        kappa_eff = kappa
    inflow = inflow or BoundaryInflow()
    bc = {side: inflow.value(side, G) for side in SIDES}

    psi = np.empty((ny, nx, G, M))
    E = np.zeros((G, ny, nx))
    Fx = np.zeros((G, ny, nx + 1))
    Fy = np.zeros((G, ny + 1, nx))
    bface_wI = np.zeros((G, mesh.n_boundary_faces))
    bface_wnI = np.zeros((G, mesh.n_boundary_faces))
    sl = {side: mesh.boundary_slice(side) for side in SIDES}

    kap_t = np.ascontiguousarray(kappa_eff.transpose(1, 2, 0))  # (ny, nx, G)
    src_t = np.ascontiguousarray(source.transpose(1, 2, 0))

    for sx, sy, idx in quad.octants:
        w = quad.weight[idx]
        ox = quad.omega[idx, 0]
        oy = quad.omega[idx, 1]
        ax = np.abs(ox) / mesh.dx
        ay = np.abs(oy) / mesh.dy
        wox = w * ox
        woy = w * oy
        Moct = idx.size

        x_side = "left" if sx > 0 else "right"
        y_side = "bottom" if sy > 0 else "top"
        # Upwind front values, refreshed as the sweep advances.
        FX = np.broadcast_to(bc[x_side][:, None], (G, Moct)).copy()
        FX = np.broadcast_to(FX, (ny, G, Moct)).copy()
        FY = np.broadcast_to(bc[y_side][:, None], (G, Moct)).copy()
        FY = np.broadcast_to(FY, (nx, G, Moct)).copy()

        # Inflow faces contribute boundary-condition values to the face flux.
        Fx[:, :, 0 if sx > 0 else nx] += wox.sum() * bc[x_side][:, None]
        Fy[:, 0 if sy > 0 else ny, :] += woy.sum() * bc[y_side][:, None]

        for d in range(nx + ny - 1):
            p0 = max(0, d - (ny - 1))
            p1 = min(d, nx - 1)
            ii = np.arange(p0, p1 + 1)
            jj = d - ii
            i_arr = ii if sx > 0 else nx - 1 - ii
            j_arr = jj if sy > 0 else ny - 1 - jj

            I_w = FX[j_arr]  # (nd, G, Moct)
            I_s = FY[i_arr]
            kap = kap_t[j_arr, i_arr][:, :, None]
            q = src_t[j_arr, i_arr][:, :, None]
            if sink:
                q = q + psi_prev[j_arr, i_arr][:, :, idx] * sink
            I_out, I_avg = step_characteristic_update(I_w, I_s, ax, ay, kap, q)

            FX[j_arr] = I_out
            FY[i_arr] = I_out
            psi[j_arr[:, None, None], i_arr[:, None, None], np.arange(G)[None, :, None], idx[None, None, :]] = I_avg

            E[:, j_arr, i_arr] += (I_avg @ w).T
            Fx[:, j_arr, i_arr + (1 if sx > 0 else 0)] += (I_out @ wox).T
            Fy[:, j_arr + (1 if sy > 0 else 0), i_arr] += (I_out @ woy).T

            # Outflow faces that lie on the domain boundary feed the
            # half-range sums used by closure factors.
            bx = i_arr == (nx - 1 if sx > 0 else 0)
            if bx.any():
                faces = sl["right" if sx > 0 else "left"].start + j_arr[bx]
                bface_wI[:, faces] += (I_out[bx] @ w).T
                bface_wnI[:, faces] += (I_out[bx] @ (w * np.abs(ox))).T
            by = j_arr == (ny - 1 if sy > 0 else 0)
            if by.any():
                faces = sl["top" if sy > 0 else "bottom"].start + i_arr[by]
                bface_wI[:, faces] += (I_out[by] @ w).T
                bface_wnI[:, faces] += (I_out[by] @ (w * np.abs(oy))).T

    E /= constants.c
    return SweepResult(psi, E, Fx, Fy, bface_wI, bface_wnI)


def cell_moments(psi: np.ndarray, quad: AngularQuadrature, constants: PhysicalConstants = DEFAULT_CONSTANTS):
    """Cell-centered (E, F) by direct angular summation of the intensity.

    E = (1/c) sum_m w I, F = sum_m w Omega I. Returns E (G, ny, nx) and
    F (2, G, ny, nx) with components (x, y).
    """
    w = quad.weight
    E = np.einsum("yxgm,m->gyx", psi, w) / constants.c
    F = np.stack([
        np.einsum("yxgm,m->gyx", psi, w * quad.omega[:, 0]),
        np.einsum("yxgm,m->gyx", psi, w * quad.omega[:, 1]),
    ])
    return E, F


@dataclass(frozen=True)
class TransportProblem:
    """Static description of a transport run."""

    mesh: SpatialMesh
    quad: AngularQuadrature
    fgrid: FrequencyGrid
    material: object          # provides emission_terms()
    eos: MaterialEOS
    inflow: BoundaryInflow
    constants: PhysicalConstants = DEFAULT_CONSTANTS


@dataclass
class TransportState:
    """Full-order model state at one time level."""

    t: float
    T: np.ndarray    # (ny, nx)
    psi: np.ndarray  # (ny, nx, G, M)
    E: np.ndarray    # (G, ny, nx)
    Fx: np.ndarray   # (G, ny, nx+1)
    Fy: np.ndarray   # (G, ny+1, nx)


@dataclass
class StepDiagnostics:
    picard_iterations: int
    change_history: list[float] = field(default_factory=list)
    balance_residual: float = np.nan


def initial_transport_state(problem: TransportProblem, T0: float) -> TransportState:
    """Isotropic Planckian intensity at the uniform initial temperature."""
    mesh, quad = problem.mesh, problem.quad
    B = group_planck(T0, problem.fgrid, problem.constants)
    psi = np.broadcast_to(B[:, None], (mesh.ny, mesh.nx, B.size, quad.n_directions)).copy()
    E, _ = cell_moments(psi, quad, problem.constants)
    # Face fluxes of an isotropic field vanish by the first-moment identity;
    # evaluate them through the quadrature anyway for discrete consistency.
    fx_sum = float(quad.weight @ quad.omega[:, 0])
    Fx = np.full((B.size, mesh.ny, mesh.nx + 1), fx_sum) * B[:, None, None]
    fy_sum = float(quad.weight @ quad.omega[:, 1])
    Fy = np.full((B.size, mesh.ny + 1, mesh.nx), fy_sum) * B[:, None, None]
    T = np.full((mesh.ny, mesh.nx), float(T0))
    return TransportState(0.0, T, psi, E, Fx, Fy)


def fom_step(problem: TransportProblem, state: TransportState, dt: float) -> tuple[TransportState, StepDiagnostics]:
    """Advance the coupled transport / material-energy system one step.

    The step is iteration.couple with a sweep as its radiation solve: sweep
    with frozen kappa_g(T~), B_g(T~), then update T from the material
    energy balance by per-cell Newton, fully implicit in both kappa and B.
    The previous-step intensity stays fixed at time level n-1 throughout.
    """
    result = None

    def radiate(kappa, B, _):
        nonlocal result
        result = sweep(problem.mesh, problem.quad, kappa, kappa * B, psi_prev=state.psi, dt=dt, inflow=problem.inflow, constants=problem.constants)
        return result.E

    T_new, history = couple(problem, state, dt, radiate, "transport/material coupling")

    new_state = TransportState(state.t + dt, T_new, result.psi, result.E, result.Fx, result.Fy)
    diag = StepDiagnostics(picard_iterations=len(history), change_history=history)
    diag.balance_residual = energy_balance_residual(state, new_state, dt, problem.mesh, problem.eos)
    return new_state, diag


def run_fom(problem: TransportProblem, T0: float, dt: float, n_steps: int, label: str = "fom", callback=None):
    """March the full-order model n_steps from a uniform initial state.

    Returns a SolutionHistory with n_steps + 1 time levels. The optional
    callback(step_index, state, diagnostics) fires after every step; the
    data-driven closure harvester hooks in here.
    """
    return march(label, initial_transport_state(problem, T0), lambda s, _: fom_step(problem, s, dt), range(n_steps), callback)


def boundary_net_outflow(Fx: np.ndarray, Fy: np.ndarray, mesh: SpatialMesh) -> float:
    """Net radiative power leaving the domain [Jerk/ns], all groups."""
    out = (Fx[:, :, -1].sum() - Fx[:, :, 0].sum()) * mesh.dy
    out += (Fy[:, -1, :].sum() - Fy[:, 0, :].sum()) * mesh.dx
    return float(out)


def total_energy(T: np.ndarray, E: np.ndarray, mesh: SpatialMesh, eos: MaterialEOS) -> float:
    """Radiation plus material energy content [Jerk]."""
    return float((E.sum() + eos.cv * T.sum()) * mesh.cell_volume)


def energy_balance_residual(prev, new, dt: float, mesh: SpatialMesh, eos: MaterialEOS) -> float:
    """Normalized defect of the global backward-Euler energy budget.

    |Delta(E_rad + E_mat) + dt * net_outflow| / total energy, with the
    boundary flow evaluated from the end-of-step face fluxes. Accepts any
    pair of states exposing T, E, Fx, Fy.
    """
    d_energy = total_energy(new.T, new.E, mesh, eos) - total_energy(prev.T, prev.E, mesh, eos)
    flow = boundary_net_outflow(new.Fx, new.Fy, mesh)
    return abs(d_energy + dt * flow) / abs(total_energy(new.T, new.E, mesh, eos))
