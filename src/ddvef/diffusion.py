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
eliminated cell-centered system of every group and reconstructs the face
fluxes from the same tables. One system serves a whole time step: it is
built from what the step holds fixed (dt, the previous energies and the
boundary tables), which it folds once into a base diagonal and
right-hand side, and each coupling pass hands it only the interior
faces, the absorption and the source. It solves the system by red-black
reduction: colouring the cells like a checkerboard, every face joins a
red and a black cell, so the red block is diagonal and the red unknowns
eliminate exactly (Saad, Iterative Methods for Sparse Linear Systems,
red-black ordering). The Schur complement on the black half of the cells
lives in one block-CSR matrix per step, laid out on a template built
once per mesh and group count; each pass refills its values in place,
and all groups are solved with one sparse direct solve of the
block-diagonal system. The nonlinear temperature coupling is
iteration.couple, the one loop the transport model uses too.

Boundaries of P1, P1/3 and FLD are Marshak-type per side: n.F = (c/2) E -
2 F_in with E taken from the adjacent cell and F_in the incoming partial
current (pi B at the drive temperature, zero for vacuum), or reflective
(n.F = 0).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
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
        T = self.T_drive
        if self.kind == "drive" and (T is None or isinstance(T, (bool, np.bool_)) or not 0.0 < T < np.inf):
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
    """Static description of a moment-model run; a side without a BoundaryCondition raises ConfigError.

    The incoming currents and the Marshak boundary tables (b_coef, b_base)
    built from them depend on the problem alone, so they are built once
    with it, read-only, and every step of P1, P1/3 and FLD reads them.
    """

    mesh: SpatialMesh
    fgrid: FrequencyGrid
    material: object
    eos: MaterialEOS
    boundaries: Mapping[str, BoundaryCondition]
    _F_in: np.ndarray = field(init=False, repr=False, compare=False)
    _boundary: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_sides(self.boundaries)
        wrong = [s for s in SIDES if not isinstance(self.boundaries.get(s), BoundaryCondition)]
        if wrong:
            raise ConfigError(f"sides {wrong} need a BoundaryCondition, got {[self.boundaries.get(s) for s in wrong]}")
        F_in = self.incoming_currents()
        object.__setattr__(self, "_F_in", _read_only(F_in)[0])
        object.__setattr__(self, "_boundary", _read_only(*_marshak_boundary(self, F_in)))

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
    return _limited_coefficient(kappa, grad / np.maximum(E, _energy_floor(E)))


def _limited_coefficient(kappa, ratio):
    """larsen_coefficient's D of kappa and ratio = |grad E| / E, E already floored."""
    return 1.0 / np.maximum(np.hypot(3.0 * kappa, ratio), 1.0e-290)


def _energy_floor(E) -> float:
    """The floor larsen_coefficient puts under E: 1e-30 of its largest value, at least 1e-290."""
    return max(1.0e-30 * float(np.max(E, initial=0.0)), 1.0e-290)


@functools.lru_cache(maxsize=16)
def _red_black(mesh: SpatialMesh):
    """Red-black numbering of the cells and the faces' place in it.

    Cell (i, j) is red when i + j is even and black when it is odd, so
    every interior face joins a red and a black cell, and a 1 x 1 mesh has
    no black cell. The n_red = N - N // 2 red cells take the numbers
    0 .. n_red - 1 in flat order. The black cells take the numbers after
    them, in the fill-reducing order SuperLU's COLAMD gives the pattern of
    the reduced system (_template): the j-th black cell in flat order takes
    n_red + perm_c[j]. Returns (rank, red_low, face_red, face_black,
    pair_faces, pair_red): rank[c] is the number of flat cell c; per
    interior face (grid.face_cells), red_low says whether the red cell is
    its low side, face_red is the red cell's number and face_black the
    black cell's number less n_red; pair_faces (2, n_pairs) lists every
    ordered pair of faces that share a red cell, (f, f) included, and
    pair_red that cell's number. Built once per mesh; the arrays are shared
    and read-only.
    """
    N, cells = mesh.n_cells, face_cells(mesh)[0]
    flat = np.arange(N)
    red = (flat // mesh.nx + flat % mesh.nx) % 2 == 0
    red_low = red[cells[0]]
    red_cell, black_cell = np.where(red_low, cells, cells[::-1])
    n_faces, n_black = red_cell.size, N // 2
    share = sp.csr_matrix((np.ones(n_faces), (red_cell, np.arange(n_faces))), shape=(N, n_faces))
    pairs = (share.T @ share).tocoo()
    pair_faces = np.stack([pairs.row, pairs.col])
    # COLAMD of a diagonally dominant matrix with the reduced pattern; the
    # numbers are structural, the values only keep the factorization defined.
    black_of = np.cumsum(~red) - 1
    rows, cols = (np.concatenate([np.arange(n_black), black_of[black_cell[f]]]) for f in pair_faces)
    pattern = sp.csc_matrix((np.ones(rows.size), (rows, cols)), shape=(n_black, n_black))
    pattern += sp.diags(np.asarray(pattern.sum(axis=1)).ravel())
    rank = np.empty(N, dtype=np.intp)
    rank[red] = np.arange(N - n_black)
    rank[~red] = N - n_black + spla.splu(pattern, permc_spec="COLAMD").perm_c
    face_red = rank[red_cell]
    return _read_only(rank, red_low, face_red, rank[black_cell] - (N - n_black), pair_faces, face_red[pair_faces[0]])


@functools.lru_cache(maxsize=16)
def _template(mesh: SpatialMesh, G: int):
    """Block-CSR template of the G-group reduced system and the scatter indices of a solve.

    The reduced system of a group is its Schur complement on the black
    cells, S = A_bb - A_br D_r^-1 A_rb (MomentSystem): rows and columns are
    the black numbers of _red_black, group g's block at offset g*n_black; a
    block's slots are the sorted unique (row, col) pairs of the black
    diagonal and of every pair of faces that share a red cell. Returns
    (indices, indptr, slot, to_row, to_bound, to_red, to_black): the int32
    indices and indptr of the block-diagonal CSR matrix; slot, the flat
    index into its data array of every contribution a pass lists, in
    (G, M) order: per group the black diagonal, then the pairs in
    _red_black's order; to_row, the place in a (G, N) array of numbered
    cells of every interior face's red row and black row, in (2, G,
    n_faces) order; to_bound, that of every boundary face's cell, in (G,
    n_boundary_faces) order; to_red and to_black, the place in the (G,
    n_red) and (G, n_black) arrays of every interior face's red and black
    cell. Built once per (mesh, G); the arrays are shared and read-only.
    """
    N = mesh.n_cells
    n_black, n_red = N // 2, N - N // 2
    rank, _, face_red, face_black, pair_faces, _ = _red_black(mesh)
    rows, cols = (np.concatenate([np.arange(n_black), face_black[f]]) for f in pair_faces)
    slots, slot_of = np.unique(rows * n_black + cols, return_inverse=True)
    S, group = slots.size, np.arange(G)[:, None]
    indices = (slots % n_black + n_black * group).ravel().astype(np.int32)
    starts = np.searchsorted(slots // n_black, np.arange(n_black))
    indptr = np.append((starts + S * group).ravel(), G * S).astype(np.int32)
    to_row = np.stack([face_red, face_black + n_red])[:, None] + N * group
    return _read_only(
        indices, indptr, (slot_of + S * group).ravel(), to_row.ravel(), (rank[boundary_cells(mesh)[0]] + N * group).ravel(),
        (face_red + n_red * group).ravel(), (face_black + n_black * group).ravel(),
    )


#: Largest relative residual ||A_g E_g - b_g|| / ||b_g|| of a group's full
#: balance, over both colours, that a solve may keep. Healthy solves leave
#: rounding (below 1e-14 on the benchmark); a numerically singular reduced
#: block, which the factorization pivots through on a rounding-level
#: remainder, leaves O(1) and more.
_RESIDUAL_TOL = 1.0e-8


def _relative_residuals(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per group, ||r_g|| / ||b_g|| of (G, n) residuals and right-hand sides, inf where not finite.

    Callers form r and call this under np.errstate(over="ignore",
    invalid="ignore"): an infinite entry or energy leaves inf * 0 = nan in
    r, which reads as an infinite residual.
    """
    norm_r, norm_b = np.linalg.norm(np.stack([r, b]), axis=2)
    rel = norm_r / np.maximum(norm_b, 1.0e-300)
    return np.where(np.isfinite(rel), rel, np.inf)


def _failing_group(S, rhs: np.ndarray) -> int:
    """Group whose reduced block, solved on its own, fails worst: a
    singular or non-finite solve, else the largest relative residual."""
    G, n = rhs.shape
    x = np.full((G, n), np.nan)
    for g in range(G):
        block = slice(g * n, (g + 1) * n)
        try:
            x[g] = spla.spsolve(S[block, block], rhs[g])
        except spla.MatrixRankWarning:
            pass
    with np.errstate(over="ignore", invalid="ignore"):
        return int(np.argmax(_relative_residuals((S @ x.ravel()).reshape(G, n) - rhs, rhs)))


class FaceForms(NamedTuple):
    """Interior-face fluxes F = coef[0] E[cells[0]] + coef[1] E[cells[1]] + base.

    One table over the mesh's interior faces (grid.face_cells): cells are
    each face's low- and high-side cells, coef is (2, G, n_faces) and
    base, the part independent of the unknown energies, (G, n_faces).
    """

    coef: np.ndarray
    base: np.ndarray


class MomentSystem:
    """Face-eliminated zeroth-moment balance of every group over one time step.

    One system serves every pass of a step. It is built from what the step
    holds fixed: the mesh, dt, the previous energies E_prev (G, ny, nx) and
    the boundary tables b_coef and b_base (G, n_boundary_faces), which give
    each boundary face's outward current n.F = b_coef E_cell + b_base. Each
    pass brings the FaceForms of the interior faces, c kappa and the
    emission source (solve). The balance matrix, its right-hand side and
    the reconstructed fluxes (fluxes) all come from the face and boundary
    tables, so the stored fluxes are exactly those the solve balanced and
    the global energy budget telescopes to the boundary flow.

    Every model's faces couple only their two adjacent cells, so a
    group's balance A E = b is the 5-point stencil. With the cells split
    red (i + j even) and black (_red_black), A_rr is the diagonal D_r, and
    the solve eliminates the red energies exactly:

        S E_b = b_b - A_br D_r^-1 b_r,  S = A_bb - A_br D_r^-1 A_rb,
        E_r = (b_r - A_rb E_b) / d_r.

    S couples each black cell to the black cells that share a red
    neighbour with it, about N/2 unknowns with 9 entries a row. All
    groups' S are solved together: one sparse direct solve of the
    block-diagonal system, group g's block at offset g*n_black, in the
    fill-reducing numbering of the black cells that _red_black takes once
    per mesh from COLAMD (permc_spec="NATURAL" then keeps it, instead of
    ordering on every pass). Each pass factorizes S afresh, and each
    SuperLU factorization allocates its workspace, a few MB, and frees it
    again; the heap policy the package sets at import (ddvef's module
    docstring) keeps that memory for the next pass instead of handing it
    back to the kernel.

    What the step fixes is folded in once, when the system is built:
    1/dt and the boundary coefficients into a base diagonal, E_prev/dt and
    the boundary base into a base right-hand side, both in red-black
    numbers, and S, the block-CSR matrix on the (mesh, G) template of
    _template. A pass adds c kappa, the source and its faces to the two
    bases and refills S's values in place, without rebuilding or
    re-checking its structure; that structure is canonical (sorted, no
    duplicates), so spsolve leaves it as it is handed over. The faces are
    oriented by colour: each face's coefficients over its width give its
    red row's diagonal share p (A_br = -p) and its black row's, -q
    (A_rb = q), so S's pair products p q / d_r = -(A_br A_rb) / d_r are
    formed before the division, and where the faces are symmetric (P1,
    P1/3, the VEF) S is symmetric, bit for bit.
    """

    def __init__(self, mesh: SpatialMesh, dt: float, E_prev: np.ndarray, b_coef: np.ndarray, b_base: np.ndarray):
        G, N = E_prev.shape[0], mesh.n_cells
        self.mesh, self.b_coef, self.b_base = mesh, b_coef, b_base
        self.b_cells, b_width = boundary_cells(mesh)
        rank, red_low, self._face_red, self._face_black, self._pairs, self._pair_red = _red_black(mesh)
        indices, indptr, self._slot, self._to_row, to_bound, self._to_red, self._to_black = _template(mesh, G)
        self._rank, self._cell = rank, np.argsort(rank)  # the number of each flat cell, the flat cell of each number
        # Signed widths, (2, 1, n_faces): dividing a face's (low, high)
        # coefficients by _width gives each side's diagonal share, the high
        # side's negated, and dividing its base by _base_width gives the
        # (red, black) rows' right-hand-side shares.
        width = face_cells(mesh)[1]
        red_side = np.where(red_low, -width, width)
        self._red_low = red_low
        self._width, self._base_width = np.stack([width, -width])[:, None], np.stack([red_side, -red_side])[:, None]
        bound = np.bincount(to_bound, (b_coef / b_width).ravel(), minlength=G * N).reshape(G, N)
        self._d0 = bound + 1.0 / dt
        bound = np.bincount(to_bound, (b_base / b_width).ravel(), minlength=G * N).reshape(G, N)
        self._r0 = (E_prev.reshape(G, N) / dt)[:, self._cell] - bound
        self.S = sp.csr_matrix((np.zeros(indices.size), indices, indptr), shape=(G * (N // 2),) * 2)

    def fluxes(self, faces: FaceForms, E: np.ndarray):
        """Face-normal fluxes Fx (G, ny, nx+1) and Fy (G, ny+1, nx) of the faces and the energies E."""
        Ef = E.reshape(E.shape[0], -1)
        cells = face_cells(self.mesh)[0]
        interior = faces.base + (faces.coef * Ef[:, cells].transpose(1, 0, 2)).sum(axis=0)
        return padded_fluxes(self.mesh, interior, self.b_coef * Ef[:, self.b_cells] + self.b_base)

    def solve(self, faces: FaceForms, ckappa: np.ndarray, source: np.ndarray) -> np.ndarray:
        """Energies of every group from E/dt + div F(E) + c kappa E = E_prev/dt + source.

        faces are the FaceForms of the interior faces, ckappa is c kappa and
        source the emission 4 pi kappa B, both (G, ny, nx). A zero red
        diagonal, a singular reduced block, a non-finite result or a group
        whose relative residual exceeds _RESIDUAL_TOL raises SolverError
        naming the group.
        """
        G, N = self._d0.shape
        n_black = N // 2
        n_red = N - n_black
        face_red, face_black, (first, second) = self._face_red, self._face_black, self._pairs

        # A face flux leaves its low cell and enters its high one. Oriented by
        # colour, share[0] is each face's red row diagonal share p and
        # share[1] its black row's, -q. bincount sums the rows' face shares
        # onto the step's bases.
        coef = faces.coef / self._width
        share = np.where(self._red_low, coef, coef[::-1])
        d = self._d0 + np.bincount(self._to_row, share.ravel(), minlength=G * N).reshape(G, N)
        d += ckappa.reshape(G, N)[:, self._cell]
        rhs = self._r0 + np.bincount(self._to_row, (faces.base / self._base_width).ravel(), minlength=G * N).reshape(G, N)
        rhs += source.reshape(G, N)[:, self._cell]
        d_r, d_b, b_r, b_b = d[:, :n_red], d[:, n_red:], rhs[:, :n_red], rhs[:, n_red:]
        if not d_r.all():
            raise SolverError("moment system has a zero diagonal entry in a red cell", group=int(np.argmin(d_r.all(axis=1))))

        # S = A_bb - A_br D_r^-1 A_rb and its right-hand side b_b - A_br D_r^-1 b_r.
        # A pair's product is formed before its division, so S is symmetric
        # bit for bit wherever share[0] = share[1].
        reduced = np.bincount(self._to_black, (share[0] * (b_r / d_r)[:, face_red]).ravel(), minlength=G * n_black)
        reduced = b_b + reduced.reshape(G, n_black)
        pairs = (share[0][:, first] * share[1][:, second]) / (-d_r)[:, self._pair_red]
        S = self.S
        S.data[:] = np.bincount(self._slot, np.concatenate([d_b, pairs], axis=1).ravel(), minlength=S.data.size)
        E = np.empty((G, N))
        try:
            E[:, n_red:] = spla.spsolve(S, reduced.ravel(), permc_spec="NATURAL").reshape(G, n_black)
        except spla.MatrixRankWarning as exc:  # a singular block, with warnings raised as errors
            raise SolverError(f"moment system solve failed: {exc}", group=_failing_group(S, reduced)) from exc
        E_r, E_b = E[:, :n_red], E[:, n_red:]
        push = np.bincount(self._to_red, (share[1] * E_b[:, face_black]).ravel(), minlength=G * n_red).reshape(G, n_red)
        np.divide(b_r + push, d_r, out=E_r)  # push is -A_rb E_b
        if not np.isfinite(E).all():
            # A singular block that spsolve was let pass leaves every group nan.
            bad = ~np.isfinite(E).all(axis=1)
            group = _failing_group(S, reduced) if bad.all() else int(np.argmax(bad))
            raise SolverError("moment system produced non-finite energies", group=group)

        # The full balance A E - rhs over both colours. A nan residual fails
        # the comparison, so it fails the check too.
        with np.errstate(over="ignore", invalid="ignore"):
            push_b = np.bincount(self._to_black, (share[0] * E_r[:, face_red]).ravel(), minlength=G * n_black)  # -A_br E_r
            r = d * E - rhs
            r[:, :n_red] -= push
            r[:, n_red:] -= push_b.reshape(G, n_black)
            norm_r = np.sqrt(np.einsum("ij,ij->i", r, r))
            norm_b = np.sqrt(np.einsum("ij,ij->i", rhs, rhs))
            if not np.all(norm_r <= _RESIDUAL_TOL * np.maximum(norm_b, 1.0e-300)):
                residual = _relative_residuals(r, rhs)
                worst = int(np.argmax(residual))
                raise SolverError(f"moment system solve left a relative residual of {residual[worst]:.3g}", group=worst)
        return E[:, self._rank].reshape(G, self.mesh.ny, self.mesh.nx)


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
    coef = np.empty((2,) + den.shape)
    np.divide((DEFAULT_CONSTANTS.c / den) * g, face_cells(mesh)[1], out=coef[0])
    np.negative(coef[0], out=coef[1])
    return FaceForms(coef, (alpha / den) * F_prev + r)


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
    form. D is larsen_coefficient's, bit for bit, from one gather of each
    face's two energies and one evaluation of the floor and of |dE|.
    """
    cells, width = face_cells(mesh)
    flat = E.reshape(E.shape[0], -1)
    lo, hi = flat[:, cells[0]], flat[:, cells[1]]
    dE = hi - lo
    Ef = 0.5 * (hi + lo)  # face_means(mesh, E)
    floor = _energy_floor(Ef)
    mean = np.maximum(Ef, floor)
    size = np.abs(dE)
    D = _limited_coefficient(face_means(mesh, kappa), size / width / mean)
    w = DEFAULT_CONSTANTS.c * D / width
    t = theta * (Ef > floor) * (size * D / (width * mean)) ** 2
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
    tables. The step builds one MomentSystem from what it holds fixed (dt,
    state.E and the boundary tables) and is iteration.couple with that
    system's solve, one block-diagonal solve of all groups, as its
    radiation solve, started at the temperature T_start; None, which the
    diffusion models pass, starts it on the temperature extrapolated by
    state.dTdt (iteration.couple), and the new state carries this step's
    rate (T_new - state.T) / dt. Each pass hands the system only its faces,
    c kappa and source. FLD, whose faces depend on E, passes e_scale so the
    coupling iterates on the joint (T, E) unknown. theta is the coupling's
    back-off weight (iteration.fixed_point_solve); it scales the Newton
    part of FLD's faces, starting at one and halving on a stall, and the
    other models ignore it.
    The stored fluxes come from the last pass's faces, which for P1, P1/3
    and the VEF depend on kappa alone. FLD's are rebuilt as Picard faces
    (theta = 0) on the converged E, so they are the limited flux of their
    own E and satisfy the limiter bound against it exactly.
    """
    c = DEFAULT_CONSTANTS.c
    system = MomentSystem(problem.mesh, dt, state.E, *boundary)
    last = {}

    def radiate(kappa, B, E_lag, theta):
        last["kappa"], last["faces"] = kappa, faces(kappa, E_lag, theta)
        last["E"] = system.solve(last["faces"], c * kappa, 4.0 * np.pi * kappa * B)
        return last["E"]

    T_new, history = couple(problem, state, dt, radiate, label, T_start, e_scale)
    E_new = last["E"]
    Fx, Fy = system.fluxes(last["faces"] if e_scale is None else faces(last["kappa"], E_new, 0.0), E_new)
    new_state = MomentState(state.t + dt, T_new, E_new, Fx, Fy, dTdt=(T_new - state.T) / dt)
    return new_state, StepDiagnostics(history, energy_balance_residual(state, new_state, dt, problem.mesh, problem.eos))


def diffusion_step(problem: DiffusionProblem, state: MomentState, dt: float, model: str) -> tuple[MomentState, StepDiagnostics]:
    """Advance one moment model a single backward-Euler step.

    For P1 and P1/3 the face coefficients depend on T alone, so the
    coupling iterates on the temperature field; FLD's diffusion
    coefficient depends on E as well and iterates on the joint (T, E)
    unknown (see coupled_step). The boundary tables are the problem's
    own, built once with it (DiffusionProblem). An unknown model or a dt
    that is not positive and finite raises ConfigError.
    """
    if model not in MODEL_KINDS:
        raise ConfigError(f"unknown diffusion model {model!r}, expected one of {MODEL_KINDS}")
    check_time_step(dt)
    mesh, c, boundary = problem.mesh, DEFAULT_CONSTANTS.c, problem._boundary
    label = f"{model} moment/material coupling"
    if model == "fld":
        e_scale = max(float(state.E.max()), 4.0 * float(problem._F_in.max()) / c, 1.0e-290)
        return coupled_step(problem, state, dt, functools.partial(_fld_faces, mesh), boundary, label, None, e_scale)
    alpha = 1.0 / (c * dt) if model == "p1" else 1.0 / (3.0 * c * dt)
    F_prev = interior_fluxes(state.Fx, state.Fy)
    return coupled_step(
        problem, state, dt, lambda kappa, *_: first_moment_faces(mesh, kappa, alpha, F_prev, 1.0 / 3.0), boundary, label, None,
    )


def run_diffusion_model(problem: DiffusionProblem, model: str, T0: float, dt: float, n_steps: int):
    """March one moment model n_steps from equilibrium at T0 and return its SolutionHistory.

    The history, labelled with the model name, holds every level's t, T
    and E; a zero-step run holds the initial level alone. An n_steps that
    is negative or not a whole number raises ConfigError.
    """
    check_step_count(n_steps)
    return march(model, initial_moment_state(problem, T0), lambda s, _: diffusion_step(problem, s, dt, model), range(n_steps))
