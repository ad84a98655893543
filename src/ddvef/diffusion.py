"""Moment models: P1, P1/3, flux-limited diffusion, and the shared moment system.

All four reduced models - P1, P1/3 and FLD here, and the data-driven VEF of
vef.py - close the zeroth-moment balance
    dE_g/dt + div F_g + c kappa_g E_g = 4 pi kappa_g B_g
with a face-flux relation and share the material coupling of the transport
model. P1 carries the backward-Euler first moment with the full 1/c flux
time derivative, P1/3 replaces it by 1/(3c) to restore the vacuum signal
speed c, and FLD drops the memory entirely in favor of F = -c D grad E with
Larsen's limited coefficient. The VEF replaces the 1/3 of P1 by closure
factors from a transport sweep and adds known face-flux remainders, so
every model writes a face flux from its two adjacent cells alone and
assembles the same 5-point stencil.

FLD's flux is nonlinear in E, so its coupling iterates on the joint
(T, E) unknown, and each pass writes the limited flux linearized at the
lagged E: a blend of the frozen-coefficient (Picard) form and the exact
Jacobian (Newton) form, weighted by the coupling's back-off weight. The
limited flux is homogeneous of degree one in E, so both forms give the
limited flux itself at the lagged E and the fixed point is the same for
every weight; the Newton part lets the E block converge in about P1's
pass count instead of linearly.

The models differ only in their coefficients: every interior face flux
is a linear form in its two cell energies and every boundary outward
current coef E_cell + base, two tables over grid's face tables.
MomentSystem, the one assembler all four share, sums them into the
eliminated cell-centered system of every group through a block-CSR
template built once per mesh and group count, solves all groups with one
sparse direct solve of the block-diagonal system, and reconstructs the
face fluxes from the same tables; the nonlinear temperature coupling is
iteration.couple, the one loop the transport model uses too.

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
from .grid import (
    SIDES, FrequencyGrid, SpatialMesh, _read_only, boundary_cells, check_sides, face_cells, face_means, interior_fluxes,
    on_boundary_faces, padded_fluxes,
)
from .history import (
    MomentState, StepDiagnostics, check_step_count, check_time_step, energy_balance_residual, initial_moment_state, march,
)
from .iteration import couple
from .physics import DEFAULT_CONSTANTS, MaterialEOS, group_planck

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
        # Written so that nan, which fails every comparison, is rejected too.
        if self.kind == "drive" and not (self.T_drive is not None and 0.0 < self.T_drive < np.inf):
            raise ConfigError(f"drive boundary requires a positive finite T_drive, got {self.T_drive}")


def standard_boundaries(T_drive: float, drive_sides=("left",)) -> dict:
    """Drive on the given sides, vacuum elsewhere; an unknown side raises ConfigError."""
    check_sides(drive_sides)
    return {
        side: BoundaryCondition("drive", T_drive) if side in drive_sides else BoundaryCondition("vacuum")
        for side in SIDES
    }


@dataclass(frozen=True)
class DiffusionProblem:
    """Static description of a moment-model run; a side without a BoundaryCondition raises ConfigError."""

    mesh: SpatialMesh
    fgrid: FrequencyGrid
    material: object
    eos: MaterialEOS
    boundaries: Mapping[str, BoundaryCondition]

    def __post_init__(self):
        check_sides(self.boundaries)
        wrong = [s for s in SIDES if not isinstance(self.boundaries.get(s), BoundaryCondition)]
        if wrong:
            raise ConfigError(f"sides {wrong} need a BoundaryCondition, got {[self.boundaries.get(s) for s in wrong]}")

    def incoming_currents(self) -> np.ndarray:
        """Incoming partial current per side and group (4, G) [Jerk/cm^2/ns]:
        pi B at the drive temperature on driven sides, zero elsewhere."""
        F_in = np.zeros((4, self.fgrid.n_groups))
        for s, side in enumerate(SIDES):
            bc = self.boundaries[side]
            if bc.kind == "drive":
                F_in[s] = np.pi * group_planck(bc.T_drive, self.fgrid)
        return F_in


def larsen_coefficient(kappa, E, gradE):
    """Flux-limited diffusion coefficient D = [(3 kappa)^2 + (|grad E|/E)^2]^(-1/2).

    Reduces to 1/(3 kappa) for flat fields and to E/|grad E| for kappa -> 0,
    which caps the flux magnitude at c E. E is floored at 1e-30 of its
    largest value (and an absolute tiny) so vanishing fields stay finite.
    """
    kappa = np.asarray(kappa, dtype=float)
    E = np.asarray(E, dtype=float)
    grad = np.abs(np.asarray(gradE, dtype=float))
    ratio = grad / np.maximum(E, _energy_floor(E))
    return 1.0 / np.maximum(np.hypot(3.0 * kappa, ratio), 1.0e-290)


def _energy_floor(E) -> float:
    """The floor larsen_coefficient puts under E: 1e-30 of its largest value, at least 1e-290."""
    return max(1.0e-30 * float(np.max(E, initial=0.0)), 1.0e-290)


#: Largest block of cells that nested dissection numbers row by row.
_LEAF_CELLS = 16


@functools.lru_cache(maxsize=16)
def cell_order(mesh: SpatialMesh):
    """Nested-dissection numbering of the cells, (order, rank).

    order[k] is the flat index of the cell numbered k and rank, its
    inverse, the number of every flat cell index. A block of more than
    _LEAF_CELLS cells is cut across its longer side (across x on a tie) by
    a one-cell separator line; the two parts are numbered first, each by
    the same rule, and the separator last. Smaller blocks are numbered row
    by row. On a 2-D grid, eliminating in this order keeps the factor's
    fill at O(N log N) against the O(N^1.5) of a band order (George, SIAM
    J. Numer. Anal. 10, 1973). Built once per mesh; the arrays are shared
    and read-only.
    """

    def dissect(block):
        ny, nx = block.shape
        if ny * nx <= _LEAF_CELLS:
            return [block.ravel()]
        if nx >= ny:
            m = nx // 2
            return dissect(block[:, :m]) + dissect(block[:, m + 1:]) + [block[:, m]]
        m = ny // 2
        return dissect(block[:m]) + dissect(block[m + 1:]) + [block[m]]

    order = np.concatenate(dissect(np.arange(mesh.n_cells).reshape(mesh.ny, mesh.nx)))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return _read_only(order, rank)


@functools.lru_cache(maxsize=16)
def _template(mesh: SpatialMesh, G: int):
    """Block-CSR template of the G-group balance matrix of the 5-point stencil.

    Rows and columns are cell numbers of cell_order(mesh), group g's block
    at offset g*N; a block's slots are the sorted unique (row, col) pairs
    the contributions reach. Returns the int32 indices and indptr of the
    block-diagonal CSR matrix and slot, the flat index into its data array
    of every contribution solve() lists, in (G, M) order: per group the
    diagonal in flat cell order, the interior faces' coefficients in the
    rows of their low- then high-side cells, the boundary faces. Built once
    per (mesh, G); the arrays are shared and read-only.
    """
    N = mesh.n_cells
    rank = cell_order(mesh)[1]
    cells = rank[face_cells(mesh)[0]]
    rows = [rank, np.tile(cells[0], 2), np.tile(cells[1], 2)]
    cols = [rank, cells.ravel(), cells.ravel()]
    b_cells = rank[boundary_cells(mesh)[0]]
    rows.append(b_cells)
    cols.append(b_cells)
    slots, slot_of = np.unique(np.concatenate(rows) * N + np.concatenate(cols), return_inverse=True)
    S, group = slots.size, np.arange(G)[:, None]
    indices = (slots % N + N * group).ravel().astype(np.int32)
    indptr = np.append((np.searchsorted(slots // N, np.arange(N)) + S * group).ravel(), G * S).astype(np.int32)
    return _read_only(indices, indptr, (slot_of + S * group).ravel())


#: Largest relative residual ||A_g E_g - b_g|| / ||b_g|| a group's solved
#: block may keep. Healthy solves leave rounding (below 1e-14 on the
#: benchmark); a numerically singular block, which the factorization
#: pivots through on a rounding-level remainder, leaves O(1) and more.
_RESIDUAL_TOL = 1.0e-8


def _group_residuals(A, x: np.ndarray, rhs: np.ndarray, G: int) -> np.ndarray:
    """Relative residual of every group's block of the block-diagonal system, inf where not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.linalg.norm((A @ x - rhs).reshape(G, -1), axis=1)
        r /= np.maximum(np.linalg.norm(rhs.reshape(G, -1), axis=1), 1.0e-300)
    return np.where(np.isfinite(r), r, np.inf)


def _failing_group(A, rhs: np.ndarray, G: int) -> int:
    """Group whose diagonal block, solved on its own, fails worst: a
    singular or non-finite solve, else the largest relative residual."""
    N = rhs.size // G
    x = np.full(rhs.size, np.nan)
    for g in range(G):
        block = slice(g * N, (g + 1) * N)
        try:
            x[block] = spla.spsolve(A[block, block], rhs[block])
        except spla.MatrixRankWarning:
            pass
    return int(np.argmax(_group_residuals(A, x, rhs, G)))


class FaceForms(NamedTuple):
    """Interior-face fluxes F = coef[0] E[cells[0]] + coef[1] E[cells[1]] + base.

    One table over the mesh's interior faces (grid.face_cells): cells are
    each face's low- and high-side cells, coef is (2, G, n_faces) and
    base, the part independent of the unknown energies, (G, n_faces).
    """

    coef: np.ndarray
    base: np.ndarray


class MomentSystem:
    """Face-eliminated zeroth-moment balance of every group for one pass.

    faces are the FaceForms of the interior faces; b_coef and b_base
    (G, n_boundary_faces) give each boundary face's outward current
    n.F = b_coef E_cell + b_base. The balance matrix, its right-hand side
    and the reconstructed fluxes all come from these two tables, so the
    stored fluxes are exactly those the solve balanced and the global
    energy budget telescopes to the boundary flow.

    All groups are solved together: one sparse direct solve of the
    block-diagonal system of G*N unknowns, group g's block at offset g*N.
    Within a block the cells are numbered by cell_order(mesh), a nested
    dissection of the mesh, and the solve keeps that order
    (permc_spec="NATURAL") instead of computing a fill-reducing one on
    every pass; the right-hand side is permuted into it and the solution
    back. Every model's faces couple only their two adjacent cells, so
    the block-CSR structure is the 5-point stencil's and depends only on
    the mesh and the group count: its indices, its row pointers and the
    data slot of every listed contribution are built once per (mesh, G)
    (_template); a pass only sums its values into their slots with one
    bincount and hands the arrays to the solver.
    """

    def __init__(self, mesh: SpatialMesh, faces: FaceForms, b_coef: np.ndarray, b_base: np.ndarray):
        self.mesh, self.faces = mesh, faces
        self.b_coef, self.b_base = b_coef, b_base
        self.b_cells, self.b_width = boundary_cells(mesh)

    def fluxes(self, E: np.ndarray):
        """Face-normal fluxes Fx (G, ny, nx+1) and Fy (G, ny+1, nx) of the energies E."""
        Ef = E.reshape(E.shape[0], -1)
        cells = face_cells(self.mesh)[0]
        interior = self.faces.base + (self.faces.coef * Ef[:, cells].transpose(1, 0, 2)).sum(axis=0)
        return padded_fluxes(self.mesh, interior, self.b_coef * Ef[:, self.b_cells] + self.b_base)

    def solve(self, dt: float, ckappa: np.ndarray, source: np.ndarray, E_prev: np.ndarray) -> np.ndarray:
        """Energies of every group from E/dt + div F(E) + c kappa E = E_prev/dt + source.

        ckappa is c kappa and source the emission 4 pi kappa B, both (G, ny, nx).
        A singular block, a non-finite result or a group whose relative
        residual exceeds _RESIDUAL_TOL raises SolverError naming the group.
        """
        mesh = self.mesh
        G, N = E_prev.shape[0], mesh.n_cells
        Fx0, Fy0 = padded_fluxes(mesh, self.faces.base, self.b_base)
        div0 = (Fx0[:, :, 1:] - Fx0[:, :, :-1]) / mesh.dx + (Fy0[:, 1:, :] - Fy0[:, :-1, :]) / mesh.dy
        order, rank = cell_order(mesh)
        rhs = (E_prev / dt + source - div0).reshape(G, N)[:, order].ravel()

        # A face flux leaves its low-side cell and enters its high-side one;
        # the order of these blocks is the order _template lists. bincount
        # sums each slot's contributions in that order.
        coef = (self.faces.coef / face_cells(mesh)[1]).transpose(1, 0, 2).reshape(G, -1)
        vals = np.concatenate([1.0 / dt + ckappa.reshape(G, N), coef, -coef, self.b_coef / self.b_width], axis=1)
        indices, indptr, slot = _template(mesh, G)
        data = np.bincount(slot, vals.ravel(), minlength=indices.size)
        A = sp.csr_matrix((data, indices, indptr), shape=(G * N, G * N))
        try:
            E = spla.spsolve(A, rhs, permc_spec="NATURAL")
        except spla.MatrixRankWarning as exc:  # a singular block, with warnings raised as errors
            raise SolverError(f"moment system solve failed: {exc}", group=_failing_group(A, rhs, G)) from exc
        if not np.all(np.isfinite(E)):
            raise SolverError("moment system produced non-finite energies", group=_failing_group(A, rhs, G))
        residual = _group_residuals(A, E, rhs, G)
        worst = int(np.argmax(residual))
        if residual[worst] > _RESIDUAL_TOL:
            raise SolverError(f"moment system solve left a relative residual of {residual[worst]:.3g}", group=worst)
        return E.reshape(G, N)[:, rank].reshape(E_prev.shape)


def first_moment_faces(mesh: SpatialMesh, kappa, alpha: float, F_prev, g, r=0.0) -> FaceForms:
    """Backward-Euler first-moment fluxes of the interior faces.

    With kappa_f the arithmetic face mean of the opacity,

        F_face = [alpha F_prev - c D(E)] / (kappa_f + alpha) + r,

    where D(E) is the face-normal factor g times the central density
    difference across the face (1/3 for P1 and P1/3, the closure's factors
    for the VEF), so every face couples only its two adjacent cells. alpha
    is 1/(c dt) for P1 and the VEF and 1/(3 c dt) for P1/3; F_prev
    (G, n_faces) is the previous level's interior face flux
    (interior_fluxes); g and r are scalars or (G, n_faces) tables, r the
    VEF's consistency remainder, a known part that never enters the matrix.
    """
    den = face_means(mesh, kappa) + alpha
    coef = (DEFAULT_CONSTANTS.c / den) * g / face_cells(mesh)[1]
    return FaceForms(np.stack([coef, -coef]), (alpha / den) * F_prev + r)


def _fld_faces(mesh: SpatialMesh, kappa, E, theta: float) -> FaceForms:
    """Limited diffusion faces F = -c D dE/dn linearized at the lagged E, no memory.

    With g = dE/dn, E_f the face mean and R = |g| / E_f, the flux
    F = -c g / hypot(3 kappa_f, R) is homogeneous of degree one in the two
    cell energies. Freezing D = larsen_coefficient at the lagged E (Picard)
    gives the coefficients (w, -w), w = c D / width, on the low- and
    high-side cells; its exact Jacobian there (Newton; Knoll & Keyes, J.
    Comput. Phys. 193, 2004) is w (1 - t (1 + q), -(1 - t (1 - q))) with
    t = (R D)^2, the gradient's share of the limiter, and
    q = (E_hi - E_lo) / (E_lo + E_hi). The faces take the blend
    (1 - theta) Picard + theta Newton. By Euler's theorem every blend
    gives the limited flux itself at E = E_lag, so theta moves only the
    convergence of the coupling, never its fixed point; theta = 0 is the
    Picard form bit for bit. Faces whose mean lies on larsen_coefficient's
    energy floor, one floor per field over all its faces, keep the Picard
    form.
    """
    cells, width = face_cells(mesh)
    flat = E.reshape(E.shape[0], -1)
    dE = flat[:, cells[1]] - flat[:, cells[0]]
    Ef = face_means(mesh, E)
    D = larsen_coefficient(face_means(mesh, kappa), Ef, dE / width)
    w = DEFAULT_CONSTANTS.c * D / width
    floor = _energy_floor(Ef)
    mean = np.maximum(Ef, floor)
    t = theta * (Ef > floor) * (np.abs(dE) * D / (width * mean)) ** 2
    q = dE / (2.0 * mean)
    return FaceForms(np.stack([w * (1.0 - t * (1.0 + q)), -w * (1.0 - t * (1.0 - q))]), np.zeros_like(w))


def _marshak_boundary(problem: DiffusionProblem, F_in: np.ndarray):
    """Outward current n.F = (c/2) E - 2 F_in on open sides, zero on reflective ones."""
    G = problem.fgrid.n_groups
    is_open = np.array([problem.boundaries[s].kind != "reflective" for s in SIDES], dtype=float)
    coef = on_boundary_faces(problem.mesh, np.outer(0.5 * DEFAULT_CONSTANTS.c * is_open, np.ones(G)))
    return coef, on_boundary_faces(problem.mesh, -2.0 * F_in)


def coupled_step(problem, state: MomentState, dt: float, faces, boundary, label: str, T_start, e_scale: float | None = None):
    """Advance a moment model one backward-Euler step; shared by all four models.

    faces(kappa, E_lag, theta) gives the one FaceForms table of the
    interior faces for a pass and boundary the fixed (b_coef, b_base)
    tables. The step is
    iteration.couple with MomentSystem.solve, one block-diagonal solve of
    all groups, as its radiation solve, started at the temperature
    T_start; None, which the diffusion models pass, starts it on the
    temperature extrapolated by state.dTdt (iteration.couple), and the new
    state carries this step's rate (T_new - state.T) / dt. FLD, whose
    faces depend on E, passes e_scale so the coupling iterates on the
    joint (T, E) unknown. theta is the coupling's back-off weight
    (iteration.fixed_point_solve); it scales the Newton part of FLD's
    faces, starting at one and halving on a stall, and the other models
    ignore it.
    The stored fluxes come from Picard faces (theta = 0) rebuilt on the
    converged E, so FLD's are the limited flux of their own E and satisfy
    the limiter bound against it exactly.
    """
    c = DEFAULT_CONSTANTS.c
    last = {}

    def radiate(kappa, B, E_lag, theta):
        system = MomentSystem(problem.mesh, faces(kappa, E_lag, theta), *boundary)
        last["kappa"], last["E"] = kappa, system.solve(dt, c * kappa, 4.0 * np.pi * kappa * B, state.E)
        return last["E"]

    T_new, history = couple(problem, state, dt, radiate, label, T_start, e_scale)
    E_new = last["E"]
    Fx, Fy = MomentSystem(problem.mesh, faces(last["kappa"], E_new, 0.0), *boundary).fluxes(E_new)
    new_state = MomentState(state.t + dt, T_new, E_new, Fx, Fy, dTdt=(T_new - state.T) / dt)
    return new_state, StepDiagnostics(history, energy_balance_residual(state, new_state, dt, problem.mesh, problem.eos))


def diffusion_step(problem: DiffusionProblem, state: MomentState, dt: float, model: str) -> tuple[MomentState, StepDiagnostics]:
    """Advance one moment model a single backward-Euler step.

    For P1 and P1/3 the face coefficients depend on T alone, so the
    coupling iterates on the temperature field; FLD's diffusion
    coefficient depends on E as well and iterates on the joint (T, E)
    unknown (see coupled_step). An unknown model or a dt that is not
    positive and finite raises ConfigError.
    """
    if model not in MODEL_KINDS:
        raise ConfigError(f"unknown diffusion model {model!r}, expected one of {MODEL_KINDS}")
    check_time_step(dt)
    mesh, c = problem.mesh, DEFAULT_CONSTANTS.c
    F_in = problem.incoming_currents()
    boundary = _marshak_boundary(problem, F_in)
    label = f"{model} moment/material coupling"
    if model == "fld":
        e_scale = max(float(state.E.max()), 4.0 * float(F_in.max()) / c, 1.0e-290)
        return coupled_step(problem, state, dt, functools.partial(_fld_faces, mesh), boundary, label, None, e_scale)
    alpha = 1.0 / (c * dt) if model == "p1" else 1.0 / (3.0 * c * dt)
    F_prev = interior_fluxes(state.Fx, state.Fy)
    return coupled_step(
        problem, state, dt, lambda kappa, *_: first_moment_faces(mesh, kappa, alpha, F_prev, 1.0 / 3.0), boundary, label, None,
    )


def run_diffusion_model(problem: DiffusionProblem, model: str, T0: float, dt: float, n_steps: int):
    """March one moment model n_steps from equilibrium at T0 and return its SolutionHistory.

    The history is labelled with the model name. A zero-step run returns a
    history holding only the initial state; an n_steps that is negative or
    not a whole number raises ConfigError.
    """
    check_step_count(n_steps)
    return march(model, initial_moment_state(problem, T0), lambda s, _: diffusion_step(problem, s, dt, model), range(n_steps))
