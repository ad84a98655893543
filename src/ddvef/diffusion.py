"""Moment models: P1, P1/3, flux-limited diffusion, and the shared moment system.

All four reduced models - P1, P1/3 and FLD here, and the data-driven VEF of
vef.py - close the zeroth-moment balance
    dE_g/dt + div F_g + c kappa_g E_g = 4 pi kappa_g B_g
with a face-flux relation and share the material coupling of the transport
model. P1 carries the backward-Euler first moment with the full 1/c flux
time derivative, P1/3 replaces it by 1/(3c) to restore the vacuum signal
speed c, and FLD drops the memory entirely in favor of F = -c D grad E with
Larsen's limited coefficient. The VEF replaces the 1/3 of P1 by closure
factors from a transport sweep and adds the f_xy cross term.

The models differ only in their coefficients: each writes every interior
face flux as a linear form in cell energies and every boundary face's
outward current as coef E_cell + base. MomentSystem, the one assembler all
four share, gathers those tables into the eliminated cell-centered system
of every group on a sparsity pattern built once per mesh stencil, solves
all groups with one sparse direct solve of the block-diagonal system, and
reconstructs the face fluxes from the same tables; the nonlinear
temperature coupling is iteration.couple, the one loop the transport model
uses too.

Boundaries of P1, P1/3 and FLD are Marshak-type per side: n.F = (c/2) E -
2 F_in with E taken from the adjacent cell and F_in the incoming partial
current (pi B at the drive temperature, zero for vacuum), or reflective
(n.F = 0).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, SolverError
from .grid import SIDES, FrequencyGrid, SpatialMesh
from .history import march
from .iteration import couple
from .physics import (
    DEFAULT_CONSTANTS,
    MaterialEOS,
    PhysicalConstants,
    group_planck,
)
from .transport import StepDiagnostics, energy_balance_residual

MODEL_KINDS = ("p1", "p13", "fld")
BOUNDARY_KINDS = ("drive", "vacuum", "reflective")


@dataclass(frozen=True)
class BoundaryCondition:
    """One side of the domain: Planckian drive, vacuum, or reflective."""

    kind: str
    T_drive: float | None = None

    def __post_init__(self):
        if self.kind not in BOUNDARY_KINDS:
            raise ConfigError(f"unknown boundary kind {self.kind!r}, expected one of {BOUNDARY_KINDS}")
        if self.kind == "drive" and (self.T_drive is None or self.T_drive <= 0.0):
            raise ConfigError("drive boundary requires a positive T_drive")


def standard_boundaries(T_drive: float, drive_sides=("left",)) -> dict:
    """Drive on the given sides, vacuum elsewhere."""
    return {
        side: BoundaryCondition("drive", T_drive) if side in drive_sides else BoundaryCondition("vacuum")
        for side in SIDES
    }


@dataclass(frozen=True)
class DiffusionProblem:
    """Static description of a moment-model run."""

    mesh: SpatialMesh
    fgrid: FrequencyGrid
    material: object
    eos: MaterialEOS
    boundaries: Mapping[str, BoundaryCondition]
    constants: PhysicalConstants = DEFAULT_CONSTANTS

    def __post_init__(self):
        missing = [s for s in SIDES if s not in self.boundaries]
        if missing:
            raise ConfigError(f"boundaries missing for sides {missing}")

    def inflow_current(self, side: str) -> np.ndarray:
        """Incoming partial current F_in per group on one side [Jerk/cm^2/ns]."""
        bc = self.boundaries[side]
        if bc.kind == "drive":
            return np.pi * group_planck(bc.T_drive, self.fgrid, self.constants)
        return np.zeros(self.fgrid.n_groups)


@dataclass
class MomentState:
    """Moment-model state at one time level (same layout as transport)."""

    t: float
    T: np.ndarray   # (ny, nx)
    E: np.ndarray   # (G, ny, nx)
    Fx: np.ndarray  # (G, ny, nx+1)
    Fy: np.ndarray  # (G, ny+1, nx)


def initial_moment_state(problem, T0, t0: float = 0.0) -> MomentState:
    """Equilibrium radiation at the initial temperature (scalar or (ny, nx) field), zero flux.

    problem is any moment-model problem (mesh, fgrid, constants).
    """
    mesh = problem.mesh
    T = np.broadcast_to(np.asarray(T0, dtype=float), (mesh.ny, mesh.nx)).copy()
    E = (4.0 * np.pi / problem.constants.c) * group_planck(T, problem.fgrid, problem.constants)
    G = E.shape[0]
    return MomentState(float(t0), T, E, np.zeros((G, mesh.ny, mesh.nx + 1)), np.zeros((G, mesh.ny + 1, mesh.nx)))


def larsen_coefficient(kappa, E, gradE):
    """Flux-limited diffusion coefficient D = [(3 kappa)^2 + (|grad E|/E)^2]^(-1/2).

    Reduces to 1/(3 kappa) for flat fields and to E/|grad E| for kappa -> 0,
    which caps the flux magnitude at c E. E is floored at 1e-30 of its
    largest value (and an absolute tiny) so vanishing fields stay finite.
    """
    kappa = np.asarray(kappa, dtype=float)
    E = np.asarray(E, dtype=float)
    grad = np.abs(np.asarray(gradE, dtype=float))
    floor = max(1.0e-30 * float(E.max(initial=0.0)), 1.0e-290)
    ratio = grad / np.maximum(E, floor)
    return 1.0 / np.maximum(np.hypot(3.0 * kappa, ratio), 1.0e-290)


def face_means(field):
    """Arithmetic means on interior x-faces and y-faces of (G, ny, nx)."""
    fx = 0.5 * (field[:, :, 1:] + field[:, :, :-1])
    fy = 0.5 * (field[:, 1:, :] + field[:, :-1, :])
    return fx, fy


def _read_only(*arrays):
    """The arrays, marked read-only so cached stencils cannot be changed by a caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=16)
def face_cells(mesh: SpatialMesh):
    """Flat cell indices of the interior-face stencils, (6, n) for x- then y-faces.

    Faces are ordered as the (ny, nx-1) and (ny-1, nx) face arrays. Rows 0
    and 1 are each face's low- and high-side cells; rows 2-3 and 4-5 are
    the same pair for the next face along the face, one cell forward (up
    for x-faces, right for y-faces) and one cell back, clipped at the domain
    edges so the clipped pair is the face's own. Built once per mesh; the
    arrays are shared and read-only.
    """
    idx = np.arange(mesh.n_cells).reshape(mesh.ny, mesh.nx)
    up, down = np.minimum(np.arange(mesh.ny) + 1, mesh.ny - 1), np.maximum(np.arange(mesh.ny) - 1, 0)
    right, left = np.minimum(np.arange(mesh.nx) + 1, mesh.nx - 1), np.maximum(np.arange(mesh.nx) - 1, 0)
    x = np.stack([idx[:, :-1], idx[:, 1:], idx[up, :-1], idx[up, 1:], idx[down, :-1], idx[down, 1:]])
    y = np.stack([idx[:-1], idx[1:], idx[:-1, right], idx[1:, right], idx[:-1, left], idx[1:, left]])
    return _read_only(x.reshape(6, -1), y.reshape(6, -1))


@functools.lru_cache(maxsize=16)
def boundary_cells(mesh: SpatialMesh):
    """Per boundary face in canonical order: the flat index of the cell
    behind it, the sign of its outward normal along its axis, and the
    cell width across it. Built once per mesh; the arrays are shared and
    read-only."""
    idx = np.arange(mesh.n_cells).reshape(mesh.ny, mesh.nx)
    counts = [mesh.ny, mesh.ny, mesh.nx, mesh.nx]
    cells = np.concatenate([idx[:, 0], idx[:, -1], idx[0, :], idx[-1, :]])
    return _read_only(cells, np.repeat([-1.0, 1.0, -1.0, 1.0], counts), np.repeat([mesh.dx, mesh.dx, mesh.dy, mesh.dy], counts))


@functools.lru_cache(maxsize=16)
def _stencil(mesh: SpatialMesh, kx: int, ky: int):
    """Sparsity pattern of the balance matrix for faces of kx and ky cells.

    Returns the row and column of every sorted unique (row, col) slot and
    the gather matrix that sums the contributions solve() lists - the
    diagonal, each face's coefficients on its low- then high-side cell,
    the boundary faces - into their slots.
    """
    N = mesh.n_cells
    rows, cols = [np.arange(N)], [np.arange(N)]
    for cells, K in zip(face_cells(mesh), (kx, ky)):
        cells = cells[:K]
        for owner in cells[:2]:
            rows.append(np.tile(owner, len(cells)))
            cols.append(cells.ravel())
    b_cells = boundary_cells(mesh)[0]
    rows.append(b_cells)
    cols.append(b_cells)
    keys = np.concatenate(rows) * N + np.concatenate(cols)
    slots, slot_of = np.unique(keys, return_inverse=True)
    gather = sp.csr_matrix((np.ones(keys.size), (np.arange(keys.size), slot_of)), shape=(keys.size, slots.size))
    return _read_only(slots // N, slots % N) + (gather,)


def _failing_group(A, rhs: np.ndarray, N: int) -> int:
    """Group whose diagonal block of the block system, solved on its own,
    fails worst: a singular or non-finite solve, else the largest relative
    residual."""
    residuals = []
    for g in range(rhs.size // N):
        block = slice(g * N, (g + 1) * N)
        A_g, b_g = A[block, block], rhs[block]
        try:
            x = spla.spsolve(A_g, b_g)
        except spla.MatrixRankWarning:
            x = np.full(N, np.nan)
        r = np.linalg.norm(A_g @ x - b_g) / max(np.linalg.norm(b_g), 1.0e-300)
        residuals.append(r if np.isfinite(r) else np.inf)
    return int(np.argmax(residuals))


def boundary_flux(Fx: np.ndarray, Fy: np.ndarray) -> np.ndarray:
    """Face-normal flux on the boundary faces in canonical order, (G, n_boundary_faces)."""
    return np.concatenate([Fx[:, :, 0], Fx[:, :, -1], Fy[:, 0, :], Fy[:, -1, :]], axis=1)


def on_boundary_faces(mesh: SpatialMesh, per_side) -> np.ndarray:
    """Spread per-side values (4, G) onto the canonical boundary faces, (G, n_boundary_faces)."""
    return np.repeat(np.asarray(per_side, dtype=float).T, [mesh.ny, mesh.ny, mesh.nx, mesh.nx], axis=1)


class FaceForms(NamedTuple):
    """Interior-face fluxes F = sum_k coef[k] E[cells[k]] + base.

    cells are the first K rows of the mesh's face_cells stencil, rows 0
    and 1 being each face's low- and high-side cells (the flux is positive
    toward the high side); coef is (K, G, n) and base, the part
    independent of the unknown energies, (G, n).
    """

    coef: np.ndarray
    base: np.ndarray


class MomentSystem:
    """Face-eliminated zeroth-moment balance of every group for one pass.

    x and y are the FaceForms of the interior x- and y-faces; b_coef and
    b_base (G, n_boundary_faces) give each boundary face's outward current
    n.F = b_coef E_cell + b_base in canonical order. The balance matrix,
    its right-hand side and the reconstructed fluxes all come from these
    tables, so the stored fluxes are exactly those the solve balanced and
    the global energy budget telescopes to the boundary flow.

    All groups are solved together: one sparse direct solve of the
    block-diagonal system of G*N unknowns, group g's block at offset g*N.
    The sparsity pattern depends only on the mesh and the stencil widths
    K, so it is built once per (mesh, K_x, K_y) and each pass only gathers
    its values into it.
    """

    def __init__(self, mesh: SpatialMesh, x: FaceForms, y: FaceForms, b_coef: np.ndarray, b_base: np.ndarray):
        self.mesh = mesh
        self.x, self.y = x, y
        self.b_coef, self.b_base = b_coef, b_base
        self.b_cells, self.b_sign, self.b_width = boundary_cells(mesh)

    def _place(self, x_flux: np.ndarray, y_flux: np.ndarray, b_out: np.ndarray):
        """Fx (G, ny, nx+1) and Fy (G, ny+1, nx) from interior-face fluxes and boundary outward currents."""
        ny, nx = self.mesh.ny, self.mesh.nx
        G = b_out.shape[0]
        Fx = np.empty((G, ny, nx + 1))
        Fy = np.empty((G, ny + 1, nx))
        Fx[:, :, 1:-1] = x_flux.reshape(G, ny, nx - 1)
        Fy[:, 1:-1, :] = y_flux.reshape(G, ny - 1, nx)
        signed = self.b_sign * b_out
        Fx[:, :, 0], Fx[:, :, -1], Fy[:, 0, :], Fy[:, -1, :] = np.split(signed, [ny, 2 * ny, 2 * ny + nx], axis=1)
        return Fx, Fy

    def fluxes(self, E: np.ndarray):
        """Face-normal fluxes Fx (G, ny, nx+1) and Fy (G, ny+1, nx) of the energies E."""
        Ef = E.reshape(E.shape[0], -1)
        interior = [
            form.base + (form.coef * Ef[:, cells[: len(form.coef)]].transpose(1, 0, 2)).sum(axis=0)
            for form, cells in zip((self.x, self.y), face_cells(self.mesh))
        ]
        return self._place(*interior, self.b_coef * Ef[:, self.b_cells] + self.b_base)

    def solve(self, dt: float, ckappa: np.ndarray, source: np.ndarray, E_prev: np.ndarray) -> np.ndarray:
        """Energies of every group from E/dt + div F(E) + c kappa E = E_prev/dt + source.

        ckappa is c kappa and source the emission 4 pi kappa B, both (G, ny, nx).
        """
        mesh = self.mesh
        G, N = E_prev.shape[0], mesh.n_cells
        Fx0, Fy0 = self._place(self.x.base, self.y.base, self.b_base)
        div0 = (Fx0[:, :, 1:] - Fx0[:, :, :-1]) / mesh.dx + (Fy0[:, 1:, :] - Fy0[:, :-1, :]) / mesh.dy
        rhs = (E_prev / dt + source - div0).ravel()

        # A face flux leaves its low-side cell and enters its high-side one;
        # the order of these blocks is the order _stencil gathers.
        vals = [1.0 / dt + ckappa.reshape(G, N)]
        for form, width in ((self.x, mesh.dx), (self.y, mesh.dy)):
            coef = form.coef.transpose(1, 0, 2).reshape(G, -1) / width
            vals += [coef, -coef]
        vals.append(self.b_coef / self.b_width)
        rows, cols, gather = _stencil(mesh, len(self.x.coef), len(self.y.coef))
        data = np.asarray(np.concatenate(vals, axis=1) @ gather)

        # Slots that vanish in every group (a zero cross term) are dropped,
        # so the factorization sees the couplings actually present and a
        # closure that reduces to P1 solves P1's very matrix.
        coupled = np.any(data != 0.0, axis=0)
        rows, cols, data = rows[coupled], cols[coupled], data[:, coupled]
        nnz, group = rows.size, np.arange(G)[:, None]
        indptr = np.append((np.searchsorted(rows, np.arange(N)) + nnz * group).ravel(), G * nnz)
        A = sp.csr_matrix((data.ravel(), (cols + N * group).ravel(), indptr), shape=(G * N, G * N))
        try:
            E = spla.spsolve(A, rhs)
        except spla.MatrixRankWarning as exc:  # a singular block, with warnings raised as errors
            raise SolverError(f"moment system solve failed: {exc}", group=_failing_group(A, rhs, N)) from exc
        if not np.all(np.isfinite(E)):
            raise SolverError("moment system produced non-finite energies", group=_failing_group(A, rhs, N))
        return E.reshape(E_prev.shape)


def first_moment_faces(mesh: SpatialMesh, c: float, kappa, alpha: float, state: MomentState, gx, gy, fxy=None, rx=0.0, ry=0.0):
    """Backward-Euler first-moment face fluxes, (x, y) FaceForms.

    With kappa_f the arithmetic face mean of the opacity,

        F_face = [alpha F_prev - c D(E)] / (kappa_f + alpha) + r,

    where D(E) is the face-normal factor g times the central density
    difference (1/3 for P1 and P1/3; gx, gy on x- and y-faces for the VEF),
    plus, given the cell tensor component fxy, the cross term: its face
    mean times the central difference of the face density along the face,
    realized through the four cells of the neighbouring faces with quarter
    weights. alpha is 1/(c dt) for P1 and the VEF and 1/(3 c dt) for P1/3;
    r is the VEF's consistency remainder, a known part that never enters
    the matrix.
    """
    G = kappa.shape[0]
    kfx, kfy = face_means(kappa)
    fxy_x, fxy_y = face_means(fxy) if fxy is not None else (None, None)
    forms = []
    for kf, g, F_prev, r, fm, width, along in (
        (kfx, gx, state.Fx[:, :, 1:-1], rx, fxy_x, mesh.dx, mesh.dy),
        (kfy, gy, state.Fy[:, 1:-1, :], ry, fxy_y, mesh.dy, mesh.dx),
    ):
        den = kf + alpha
        cc = c / den
        coef = [cc * g / width, -cc * g / width]
        if fm is not None:
            q = cc * fm / (4.0 * along)
            coef += [-q, -q, q, q]
        forms.append(FaceForms(np.stack(coef).reshape(len(coef), G, -1), ((alpha / den) * F_prev + r).reshape(G, -1)))
    return tuple(forms)


def _fld_faces(mesh: SpatialMesh, c: float, kappa, E):
    """Limited diffusion faces F = -c D dE/dn with D from the lagged E, no memory."""
    G = kappa.shape[0]
    (kfx, kfy), (Efx, Efy) = face_means(kappa), face_means(E)
    forms = []
    for kf, Ef, dE, width in (
        (kfx, Efx, E[:, :, 1:] - E[:, :, :-1], mesh.dx),
        (kfy, Efy, E[:, 1:, :] - E[:, :-1, :], mesh.dy),
    ):
        w = (c * larsen_coefficient(kf, Ef, dE / width) / width).reshape(G, -1)
        forms.append(FaceForms(np.stack([w, -w]), np.zeros_like(w)))
    return tuple(forms)


def _marshak_boundary(problem: DiffusionProblem):
    """Outward current n.F = (c/2) E - 2 F_in on open sides, zero on reflective ones."""
    G = problem.fgrid.n_groups
    is_open = np.array([problem.boundaries[s].kind != "reflective" for s in SIDES], dtype=float)
    inflow = np.stack([problem.inflow_current(s) for s in SIDES])
    coef = on_boundary_faces(problem.mesh, np.outer(0.5 * problem.constants.c * is_open, np.ones(G)))
    return coef, on_boundary_faces(problem.mesh, -2.0 * inflow)


def coupled_step(problem, state: MomentState, dt: float, faces, boundary, label: str, e_scale: float | None = None):
    """Advance a moment model one backward-Euler step; shared by all four models.

    faces(kappa, E_lag) gives the interior FaceForms of one pass and
    boundary the fixed (b_coef, b_base) tables. The step is
    iteration.couple with the per-group moment solve as its radiation
    solve; FLD, whose faces depend on E, passes e_scale so the coupling
    iterates on the joint (T, E) unknown. The stored fluxes come from
    faces rebuilt on the converged E, so FLD's satisfy the limiter bound
    against their own E exactly.
    """
    c = problem.constants.c
    last = {}

    def radiate(kappa, B, E_lag):
        system = MomentSystem(problem.mesh, *faces(kappa, E_lag), *boundary)
        last["kappa"], last["E"] = kappa, system.solve(dt, c * kappa, 4.0 * np.pi * kappa * B, state.E)
        return last["E"]

    T_new, history = couple(problem, state, dt, radiate, label, e_scale)
    E_new = last["E"]
    Fx, Fy = MomentSystem(problem.mesh, *faces(last["kappa"], E_new), *boundary).fluxes(E_new)
    new_state = MomentState(state.t + dt, T_new, E_new, Fx, Fy)
    diag = StepDiagnostics(picard_iterations=len(history), change_history=history)
    diag.balance_residual = energy_balance_residual(state, new_state, dt, problem.mesh, problem.eos)
    return new_state, diag


def diffusion_step(problem: DiffusionProblem, state: MomentState, dt: float, model: str) -> tuple[MomentState, StepDiagnostics]:
    """Advance one moment model a single backward-Euler step.

    For P1 and P1/3 the face coefficients depend on T alone, so the
    coupling iterates on the temperature field; FLD's diffusion
    coefficient depends on E as well and iterates on the joint (T, E)
    unknown (see coupled_step).
    """
    if model not in MODEL_KINDS:
        raise ConfigError(f"unknown diffusion model {model!r}, expected one of {MODEL_KINDS}")
    mesh, c = problem.mesh, problem.constants.c
    boundary = _marshak_boundary(problem)
    label = f"{model} moment/material coupling"
    if model == "fld":
        inflow = np.stack([problem.inflow_current(s) for s in SIDES])
        e_scale = max(float(state.E.max()), 4.0 * float(inflow.max()) / c, 1.0e-290)
        return coupled_step(problem, state, dt, lambda kappa, E: _fld_faces(mesh, c, kappa, E), boundary, label, e_scale)
    alpha = 1.0 / (c * dt) if model == "p1" else 1.0 / (3.0 * c * dt)
    return coupled_step(
        problem, state, dt,
        lambda kappa, E: first_moment_faces(mesh, c, kappa, alpha, state, 1.0 / 3.0, 1.0 / 3.0),
        boundary, label,
    )


def flux_limit_ratio(state: MomentState, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Max |F| / (c E_face) over interior faces: FLD keeps this <= 1."""
    c = constants.c
    Efx, Efy = face_means(state.E)
    with np.errstate(divide="ignore", invalid="ignore"):
        rx = np.abs(state.Fx[:, :, 1:-1]) / (c * Efx)
        ry = np.abs(state.Fy[:, 1:-1, :]) / (c * Efy)
    vals = np.concatenate([rx[np.isfinite(rx)].ravel(), ry[np.isfinite(ry)].ravel()])
    return float(vals.max()) if vals.size else 0.0


def run_diffusion_model(
    problem: DiffusionProblem,
    model: str,
    T0: float,
    dt: float,
    n_steps: int,
    label: str | None = None,
    initial: MomentState | None = None,
    callback=None,
):
    """March one moment model n_steps and return its SolutionHistory.

    A zero-step run returns a history holding only the initial state.
    """
    state = initial if initial is not None else initial_moment_state(problem, T0)
    return march(
        label if label is not None else model, state,
        lambda s, _: diffusion_step(problem, s, dt, model), range(n_steps), callback,
    )
