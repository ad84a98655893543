"""Data-driven variable-Eddington-factor (VEF) model.

The closure is built from angular moments of a transport intensity. Per
cell and group it is the symmetric Eddington tensor f = <Omega Omega I> /
<I> (components xx, xy, yy, zz; xz = yz = 0 in 2D); per boundary face it
is the outgoing flux factor C = <n.Omega I>+ / <I>+ over the exiting half
range. The offline phase re-solves the linear transport equation on a
given temperature history - opacity and emission frozen at the data - and
tabulates the closure at the end of every step together with the
quadrature moments of the boundary drive. The online phase closes the
radiation moment system with those tables: per group

    dE/dt + div F + c kappa E = 4 pi kappa B(T),
    (1/c) dF/dt + c div(f E) + kappa F = 0,

with the face condition n.F = c C eta E - F_in + c rb: the incoming
partial current F_in is known drive data and enters exactly, while the
outgoing current is the flux factor times the outgoing face-to-cell
density ratio eta times the local density, and rb is a per-face
consistency source (identically zero for transport-derived closures).

The closed system is assembled and solved by diffusion.MomentSystem, the
one assembler that P1, P1/3, FLD and the VEF share; the VEF only fills in
its face and boundary coefficients. Backward Euler eliminates each face
flux: the divergence of the closed pressure tensor is discretized with
face-interpolated tensor components times central density differences
(f_xx dE/dx plus the f_xy cross term on x-faces, and symmetrically on
y-faces). Because the moment stencil and the transport sweep discretize
space differently, that stencil alone leaves an O(1) flux mismatch
wherever the radiation front spans only a few cells or a thin group
streams through a flat density field. The closure therefore replaces the
interpolated normal components with face-normal closure factors gx, gy
solved from the sweep's own face equation wherever the solved value
lands in the physical Eddington range [0, 1] - ratio data, insensitive
to the magnitude of the generating fields and no harder on the operator
than the interpolated tensor - plus additive face-flux consistency
remainders rx, ry carrying whatever the windowed factor cannot absorb,
which ride on the right-hand side without touching the operator. On the
boundary the outgoing ratio eta recovers the sweep's outward current
exactly while the incoming drive current bypasses the closure
altogether. Everything fed to the operator is therefore either a
bounded ratio or a fixed interpolation weight, while magnitude-
sensitive information either is exact drive data or rides on the right-
hand side, where approximate data perturbs the solution only linearly.
With this discretely consistent closure the online solve driven by data
from a converged reference transport run reproduces that run's moments
to solver tolerance, and closures from approximate temperature data
inherit the accuracy of the auxiliary transport solve rather than that
of a bare diffusion stencil.

Fusing both phases advances the auxiliary intensity and the moment state
together step by step with no stored dataset. Both phases read the same
per-step closure generator and march the same stepper, so the offline ->
online composition reproduces the fused pipeline bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .diffusion import (
    MomentState,
    boundary_cells,
    boundary_flux,
    coupled_step,
    face_cells,
    face_means,
    first_moment_faces,
    initial_moment_state,
    on_boundary_faces,
)
from .errors import ConfigError
from .grid import SIDES, AngularQuadrature, FrequencyGrid, SpatialMesh
from .history import march
from .physics import DEFAULT_CONSTANTS, MaterialEOS, PhysicalConstants, group_planck
from .transport import (
    BoundaryInflow,
    SolverOptions,
    StepDiagnostics,
    SweepResult,
    TransportProblem,
    sweep,
)

#: Outward unit normals of the canonical boundary sides.
_NORMALS = {
    "left": np.array([-1.0, 0.0, 0.0]),
    "right": np.array([1.0, 0.0, 0.0]),
    "bottom": np.array([0.0, -1.0, 0.0]),
    "top": np.array([0.0, 1.0, 0.0]),
}

#: Acceptance window for the data-derived face closure factors. Factors
#: outside [0, 1] would give a face an anti-diffusive or superluminal
#: response and destabilise the nonlinear iteration, so such faces fall
#: back to the face-interpolated tensor component and their defect rides
#: on the consistency remainder instead.
_FACTOR_LO = 0.0
_FACTOR_HI = 1.0


# ---------------------------------------------------------------------------
# closure extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EddingtonTensor:
    """Cell-wise second angular moment ratio, components (G, ny, nx)."""

    xx: np.ndarray
    xy: np.ndarray
    yy: np.ndarray
    zz: np.ndarray


def eddington_tensor(psi: np.ndarray, quad: AngularQuadrature, rel_floor: float = 1.0e-30) -> EddingtonTensor:
    """Ratio of quadrature moments sum(w Omega Omega I) / sum(w I) per cell.

    psi is laid out (ny, nx, G, M). Cells whose scalar moment falls below
    rel_floor times the group's largest (or to zero) get the isotropic
    fallback diag(1/3, 1/3, 1/3); such cells only occur where the field is
    numerically dark and any closure produces the same near-zero moments.
    """
    w = quad.weight
    ox, oy = quad.omega[:, 0], quad.omega[:, 1]
    oz2 = 1.0 - ox**2 - oy**2
    phi = np.einsum("yxgm,m->gyx", psi, w)
    sxx = np.einsum("yxgm,m->gyx", psi, w * ox * ox)
    sxy = np.einsum("yxgm,m->gyx", psi, w * ox * oy)
    syy = np.einsum("yxgm,m->gyx", psi, w * oy * oy)
    szz = np.einsum("yxgm,m->gyx", psi, w * oz2)

    scale = phi.max(axis=(1, 2), keepdims=True)
    dark = phi <= rel_floor * scale
    safe = np.where(dark, 1.0, phi)
    third = np.full_like(phi, 1.0 / 3.0)
    return EddingtonTensor(
        xx=np.where(dark, third, sxx / safe),
        xy=np.where(dark, 0.0, sxy / safe),
        yy=np.where(dark, third, syy / safe),
        zz=np.where(dark, third, szz / safe),
    )


def _at(where: str):
    """A closure field located on cells, interior x- or y-faces, or boundary faces."""
    return field(metadata={"at": where})


@dataclass(frozen=True)
class ClosureRecord:
    """Closure data for one time level.

    fxx, fxy, fyy, fzz are the cell Eddington tensor (G, ny, nx) and C the
    boundary flux factor. gx and gy are the windowed face-normal closure
    factors on interior x- and y-faces ((G, ny, nx-1) and (G, ny-1, nx)),
    rx and ry the additive face-flux consistency remainders on the same
    faces. eta is the outgoing boundary face-to-cell density ratio and rb
    the boundary consistency source (both (G, n_boundary_faces); rb
    vanishes for closures extracted from a sweep). The face-level fields
    make the moment stencil discretely consistent with the generating
    sweep; the synthetic values gx = gy = 1/3, rx = ry = 0, eta = 1 and
    rb = -E_in / 2 reduce the system to P1 with Marshak boundaries.

    Each field's location is its metadata "at"; the dataset derives its
    stacking, indexing and shape checks from this one field table.
    """

    fxx: np.ndarray = _at("cell")
    fxy: np.ndarray = _at("cell")
    fyy: np.ndarray = _at("cell")
    fzz: np.ndarray = _at("cell")
    C: np.ndarray = _at("bface")
    gx: np.ndarray = _at("xface")
    gy: np.ndarray = _at("yface")
    rx: np.ndarray = _at("xface")
    ry: np.ndarray = _at("yface")
    eta: np.ndarray = _at("bface")
    rb: np.ndarray = _at("bface")


def _map_fields(fn, *records: ClosureRecord) -> ClosureRecord:
    """Apply fn(*values) field by field across records."""
    return ClosureRecord(**{f.name: fn(*(getattr(r, f.name) for r in records)) for f in fields(ClosureRecord)})


def closure_from_sweep(
    result: SweepResult,
    quad: AngularQuadrature,
    mesh: SpatialMesh,
    kappa: np.ndarray,
    dt: float,
    prev_Fx: np.ndarray,
    prev_Fy: np.ndarray,
    drive: "BoundaryDrive",
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> ClosureRecord:
    """Extract the full closure record from a finished transport sweep.

    The cell tensor and boundary factors are moment ratios of the swept
    intensity. The face factors are solved from the backward-Euler face
    equation so that the sweep's own energies and face fluxes satisfy it,
    and accepted only where it lands inside a stable window (faces where
    the fit is wild or the density contrast vanishes fall back to the
    face-interpolated tensor component); the consistency remainder is
    whatever flux the windowed factor leaves unexplained,

        rx = Fx - [alpha Fx_prev - c (gx dE/dx + cross)] / (kappa_f + alpha),

    with prev_Fx/prev_Fy the face fluxes the online state carries into
    this step (zeros before the first). Together (gx, rx) reproduce the
    sweep's face flux identically when the online system is fed the
    sweep's energies. eta is the outgoing half-range face density over
    the boundary-cell density, which makes c C eta E_cell equal the
    sweep's outgoing partial current; rb absorbs what little the clamped
    ratio leaves (exact zero away from degenerate dark cells).
    """
    c = constants.c
    alpha = 1.0 / (c * dt)
    G = kappa.shape[0]
    Ef = result.E.reshape(G, -1)

    f = eddington_tensor(result.psi, quad)
    with np.errstate(invalid="ignore", divide="ignore"):
        C = np.where(result.bface_wI > 0.0, result.bface_wnI / np.where(result.bface_wI > 0.0, result.bface_wI, 1.0), 0.5)

    def face_closure(cells, kf, F, F_prev, fallback, fxy_face, width, along):
        """Windowed factor and remainder on one face family, on the face stencil the moment system uses."""
        Ec = Ef[:, cells].reshape((G, 6) + F.shape[1:])
        den = kf + alpha
        dE = Ec[:, 1] - Ec[:, 0]
        cross = fxy_face * (Ec[:, 2] + Ec[:, 3] - Ec[:, 4] - Ec[:, 5]) / (4.0 * along)
        need = (alpha * F_prev - den * F) / c
        with np.errstate(invalid="ignore", divide="ignore"):
            raw = (need - cross) * width / dE
        ok = np.isfinite(raw) & (raw >= _FACTOR_LO) & (raw <= _FACTOR_HI)
        g = np.where(ok, raw, fallback)
        return g, F - (alpha * F_prev - c * (g * dE / width + cross)) / den

    cells_x, cells_y = face_cells(mesh)
    kfx, kfy = face_means(kappa)
    fxy_x, fxy_y = face_means(f.xy)
    gx, rx = face_closure(cells_x, kfx, result.Fx[:, :, 1:-1], prev_Fx[:, :, 1:-1], face_means(f.xx)[0], fxy_x, mesh.dx, mesh.dy)
    gy, ry = face_closure(cells_y, kfy, result.Fy[:, 1:-1, :], prev_Fy[:, 1:-1, :], face_means(f.yy)[1], fxy_y, mesh.dy, mesh.dx)

    # boundary closure: n.F = c C eta E_cell - F_in + c rb
    cells, sign, _ = boundary_cells(mesh)
    E_edge = Ef[:, cells]
    eta = (result.bface_wI / c) / np.maximum(E_edge, 1.0e-300)
    rb = (sign * boundary_flux(result.Fx, result.Fy) + on_boundary_faces(mesh, drive.F_in)) / c - C * eta * E_edge
    return ClosureRecord(f.xx, f.xy, f.yy, f.zz, C, gx, gy, rx, ry, eta, rb)


# ---------------------------------------------------------------------------
# boundary drive moments and the closure dataset
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryDrive:
    """Half-range moments of the incoming boundary source, per side.

    E_in[s, g] is the incoming half-range energy density and F_in[s, g]
    the incoming partial current on side s (canonical order left, right,
    bottom, top); vacuum sides hold zeros. The online boundary condition
    n.F = c C eta E - F_in + c rb consumes F_in directly; E_in sets the
    isotropic closure's rb = -E_in / 2.
    """

    E_in: np.ndarray  # (4, G)
    F_in: np.ndarray  # (4, G)

    @classmethod
    def from_quadrature(
        cls,
        inflow: BoundaryInflow,
        quad: AngularQuadrature,
        n_groups: int,
        constants: PhysicalConstants = DEFAULT_CONSTANTS,
    ) -> "BoundaryDrive":
        """Discrete half-range moments of an isotropic inflow.

        Using the quadrature sums (not the analytic pi) makes the online
        solve consistent with transport-derived boundary factors: the two
        share the same discrete half-range integrals, so an equilibrium
        drive stays exactly stationary.
        """
        E_in = np.zeros((4, n_groups))
        F_in = np.zeros((4, n_groups))
        for s, side in enumerate(SIDES):
            bc = inflow.value(side, n_groups)
            incoming = quad.half_range(_NORMALS[side], outgoing=False)
            w_in = quad.weight[incoming]
            wn_in = w_in * np.abs(quad.omega[incoming] @ _NORMALS[side])
            E_in[s] = bc * w_in.sum() / constants.c
            F_in[s] = bc * wn_in.sum()
        return cls(E_in, F_in)

    @classmethod
    def planckian(
        cls,
        fgrid: FrequencyGrid,
        T_drive: float,
        sides=("left",),
        constants: PhysicalConstants = DEFAULT_CONSTANTS,
    ) -> "BoundaryDrive":
        """Analytic half-range moments of a blackbody drive: E_in = 2 pi B / c,
        F_in = pi B on the driven sides. Matches the diffusion-model Marshak
        data, so the isotropic closure reduces exactly to P1."""
        B = group_planck(T_drive, fgrid, constants)
        E_in = np.zeros((4, B.size))
        F_in = np.zeros((4, B.size))
        for s, side in enumerate(SIDES):
            if side in sides:
                E_in[s] = 2.0 * np.pi * B / constants.c
                F_in[s] = np.pi * B
        return cls(E_in, F_in)


@dataclass
class ClosureDataset:
    """Closure records over a whole run plus the boundary drive moments.

    times holds the end-of-step levels t^1..t^N; t0 is the initial level,
    so the online solver's time grid is fully determined. stack is a
    ClosureRecord whose every field carries a leading record axis: the
    cell tensor components are (N, G, ny, nx); C, eta and rb
    (N, G, n_boundary_faces); gx and rx (N, G, ny, nx-1), gy and ry
    (N, G, ny-1, nx).
    """

    t0: float
    times: np.ndarray
    stack: ClosureRecord
    drive: BoundaryDrive

    def record(self, n: int) -> ClosureRecord:
        return _map_fields(lambda a: a[n], self.stack)

    def steps(self):
        """(dt, record) of every step in order, the online phase's input."""
        t_prev = self.t0
        for n in range(self.times.size):
            yield self.times[n] - t_prev, self.record(n)
            t_prev = self.times[n]

    def validate(self, mesh: SpatialMesh, n_groups: int) -> None:
        N = self.times.size
        at = {
            "cell": (mesh.ny, mesh.nx),
            "xface": (mesh.ny, mesh.nx - 1),
            "yface": (mesh.ny - 1, mesh.nx),
            "bface": (mesh.n_boundary_faces,),
        }
        for f in fields(ClosureRecord):
            shape, expected = np.shape(getattr(self.stack, f.name)), (N, n_groups) + at[f.metadata["at"]]
            if shape != expected:
                raise ConfigError(f"closure {f.name} has shape {shape}, expected {expected}")
        if self.drive.E_in.shape != (4, n_groups) or self.drive.F_in.shape != (4, n_groups):
            raise ConfigError("closure drive moments do not match the group count")
        if N and not np.all(np.diff(np.concatenate([[self.t0], self.times])) > 0.0):
            raise ConfigError("closure time grid must be strictly increasing from t0")


def isotropic_closure(
    mesh: SpatialMesh,
    n_groups: int,
    t0: float,
    times: np.ndarray,
    drive: BoundaryDrive,
) -> ClosureDataset:
    """Synthetic dataset f = diag(1/3, 1/3, 1/3), C = 1/2 at every level.

    The face-level fields take their neutral values (gx = gy = 1/3, zero
    remainders) and the boundary ones eta = 1, rb = -E_in / 2, so with
    analytic Planckian drive moments this closure makes the online solver
    coincide with the P1 model.
    """
    times = np.asarray(times, dtype=float)
    G, ny, nx, nb = n_groups, mesh.ny, mesh.nx, mesh.n_boundary_faces
    one = ClosureRecord(
        fxx=np.full((G, ny, nx), 1.0 / 3.0),
        fxy=np.zeros((G, ny, nx)),
        fyy=np.full((G, ny, nx), 1.0 / 3.0),
        fzz=np.full((G, ny, nx), 1.0 / 3.0),
        C=np.full((G, nb), 0.5),
        gx=np.full((G, ny, nx - 1), 1.0 / 3.0),
        gy=np.full((G, ny - 1, nx), 1.0 / 3.0),
        rx=np.zeros((G, ny, nx - 1)),
        ry=np.zeros((G, ny - 1, nx)),
        eta=np.ones((G, nb)),
        rb=on_boundary_faces(mesh, -0.5 * drive.E_in),
    )
    return ClosureDataset(float(t0), times, _map_fields(lambda a: np.repeat(a[None], times.size, axis=0), one), drive)


# ---------------------------------------------------------------------------
# offline phase
# ---------------------------------------------------------------------------


def _check_temperature_data(problem, temperatures):
    times = np.asarray(temperatures.times, dtype=float)
    T = np.asarray(temperatures.T, dtype=float)
    mesh = problem.mesh
    if times.ndim != 1 or times.size < 2:
        raise ConfigError("temperature data must cover at least one step")
    if T.shape != (times.size, mesh.ny, mesh.nx):
        raise ConfigError(f"temperature data has shape {T.shape}, expected {(times.size, mesh.ny, mesh.nx)}")
    if not np.all(np.diff(times) > 0.0):
        raise ConfigError("temperature time grid must be strictly increasing")
    return times, T


def _auxiliary_initial_intensity(problem: TransportProblem, T0_field: np.ndarray) -> np.ndarray:
    """Isotropic Planckian at the initial data temperature, (ny, nx, G, M)."""
    B = group_planck(T0_field, problem.fgrid, problem.constants)  # (G, ny, nx)
    M = problem.quad.n_directions
    return np.ascontiguousarray(np.broadcast_to(B.transpose(1, 2, 0)[:, :, :, None], B.shape[1:] + (B.shape[0], M)))


def _closure_steps(problem: TransportProblem, times: np.ndarray, T_data: np.ndarray, drive: BoundaryDrive):
    """(dt, record) of every step from linear transport re-solves on temperature data.

    Each step sweeps the backward-Euler transport equation with opacity and
    emission evaluated at the end-of-step data temperature, then reduces
    the intensity and face fluxes to a closure record; the previous step's
    face fluxes feed the face-factor extraction (zeros before the first
    step, matching the zero-flux initial moment state). The offline phase
    collects this generator and the fused pipeline consumes it.
    """
    mesh, quad = problem.mesh, problem.quad
    G = problem.fgrid.n_groups
    psi = _auxiliary_initial_intensity(problem, T_data[0])
    Fx_prev = np.zeros((G, mesh.ny, mesh.nx + 1))
    Fy_prev = np.zeros((G, mesh.ny + 1, mesh.nx))
    for n in range(1, times.size):
        dt = times[n] - times[n - 1]
        kappa, _, B, _ = problem.material.emission_terms(T_data[n], problem.constants)
        result = sweep(mesh, quad, kappa, kappa * B, psi_prev=psi, dt=dt, inflow=problem.inflow, constants=problem.constants)
        yield dt, closure_from_sweep(result, quad, mesh, kappa, dt, Fx_prev, Fy_prev, drive, problem.constants)
        psi, Fx_prev, Fy_prev = result.psi, result.Fx, result.Fy


def offline_phase(problem: TransportProblem, temperatures) -> ClosureDataset:
    """Tabulate the closure from linear transport re-solves on temperature data.

    temperatures provides .times (N+1,) and .T (N+1, ny, nx) - any solution
    history qualifies. The records are those of _closure_steps.
    """
    times, T_data = _check_temperature_data(problem, temperatures)
    drive = BoundaryDrive.from_quadrature(problem.inflow, problem.quad, problem.fgrid.n_groups, problem.constants)
    records = [record for _, record in _closure_steps(problem, times, T_data, drive)]
    return ClosureDataset(float(times[0]), times[1:].copy(), _map_fields(lambda *a: np.stack(a), *records), drive)


# ---------------------------------------------------------------------------
# online phase
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VefProblem:
    """Static description of an online VEF run (no quadrature needed)."""

    mesh: SpatialMesh
    fgrid: FrequencyGrid
    material: object
    eos: MaterialEOS
    constants: PhysicalConstants = DEFAULT_CONSTANTS
    options: SolverOptions = SolverOptions()

    @classmethod
    def from_transport(cls, problem: TransportProblem) -> "VefProblem":
        return cls(problem.mesh, problem.fgrid, problem.material, problem.eos, problem.constants, problem.options)


def vef_step(
    problem: VefProblem,
    state: MomentState,
    dt: float,
    record: ClosureRecord,
    drive: BoundaryDrive,
) -> tuple[MomentState, StepDiagnostics]:
    """Advance the closed moment system one backward-Euler step.

    The closure record is frozen data for the step, so the outer coupling
    iterates on the temperature field exactly like the P1 stepper (see
    diffusion.coupled_step). The faces are the first-moment forms with the
    record's factors gx, gy, its f_xy cross term and its remainders; each
    boundary face's outward current is n.F = c C eta E_cell - F_in + c rb.
    """
    mesh, c = problem.mesh, problem.constants.c
    alpha = 1.0 / (c * dt)
    boundary = (c * record.C * record.eta, c * record.rb - on_boundary_faces(mesh, drive.F_in))
    return coupled_step(
        problem, state, dt,
        lambda kappa, E: first_moment_faces(mesh, c, kappa, alpha, state, record.gx, record.gy, record.fxy, record.rx, record.ry),
        boundary, "closed-moment/material coupling",
    )


def online_phase(
    problem: VefProblem,
    dataset: ClosureDataset,
    T0,
    label: str = "vef",
    initial: MomentState | None = None,
    callback=None,
):
    """March vef_step over the dataset's whole time grid.

    Starts from equilibrium at T0 (scalar or field) at the dataset's t0; a
    caller-supplied initial state must sit at t0 exactly. Returns the
    SolutionHistory of all N+1 levels.
    """
    dataset.validate(problem.mesh, problem.fgrid.n_groups)
    if initial is None:
        initial = initial_moment_state(problem, T0, dataset.t0)
    elif initial.t != dataset.t0:
        raise ConfigError(f"initial state at t={initial.t} does not match the closure grid t0={dataset.t0}")
    drive = dataset.drive
    return march(label, initial, lambda s, step: vef_step(problem, s, *step, drive), dataset.steps(), callback)


# ---------------------------------------------------------------------------
# fused pipeline
# ---------------------------------------------------------------------------


def fused_pipeline(
    problem: TransportProblem,
    temperatures,
    label: str = "vef",
    callback=None,
):
    """Offline and online phases interleaved step by step, no stored dataset.

    Each step takes the next closure record of _closure_steps and advances
    the moment system with it immediately; offline_phase collects the same
    records and online_phase marches the same stepper over them, so the
    results are bitwise identical and only the storage differs (one record
    at a time). The moment solve starts from the data's initial
    temperature field.
    """
    times, T_data = _check_temperature_data(problem, temperatures)
    vp = VefProblem.from_transport(problem)
    drive = BoundaryDrive.from_quadrature(problem.inflow, problem.quad, problem.fgrid.n_groups, problem.constants)
    state = initial_moment_state(vp, T_data[0], times[0])
    steps = _closure_steps(problem, times, T_data, drive)
    return march(label, state, lambda s, step: vef_step(vp, s, *step, drive), steps, callback)
