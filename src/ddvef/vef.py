"""Data-driven variable-Eddington-factor (VEF) model.

The closure is built from angular moments of a transport intensity. Per
cell and group the Eddington tensor f = <Omega Omega I> / <I> supplies the
in-plane normal components f_xx and f_yy; per boundary face the outgoing
factor is v_out = <n.Omega I>+ / E_cell, the outgoing half-range current
per unit density of the cell behind the face. It equals c C eta, the
half-range flux factor C = <n.Omega I>+ / <I>+ times c times the outgoing
face-to-cell density ratio eta, and reads c/2 for Marshak. The
VEF is one pipeline, fused_pipeline. Each step re-solves the linear
transport equation on a given temperature history - opacity and emission
frozen at the data - and extracts one closure record at the end of the
step (the auxiliary, or offline, solve). The step's closed radiation
moment system is then solved with that record (the online solve): per
group

    dE/dt + div F + c kappa E = 4 pi kappa B(T),
    (1/c) dF/dt + c div(f E) + kappa F = 0,

with the boundary condition n.F = v_out E_cell + b_base on every boundary
face: the outgoing current is v_out times the density of the cell behind
the face, and b_base is the rest of the sweep's net outward current
there, minus its incoming current. These are the moment system's own
boundary tables (b_coef, b_base), which P1's Marshak law fills with
(c/2, -2 F_in) for the incoming partial current F_in.

The closed system is assembled and solved by diffusion.MomentSystem, the
one assembler that P1, P1/3, FLD and the VEF share, built once per step
on the record's boundary tables and handed the record's faces on every
pass; the VEF only fills in its face and boundary tables. Backward Euler
eliminates each face flux: the normal part of the divergence of the
closed pressure tensor is a face factor times the central density
difference across the face (f_xx dE/dx on x-faces, f_yy dE/dy on
y-faces), P1's 5-point stencil.
Because the moment stencil and the transport sweep discretize space
differently, interpolated tensor components alone leave an O(1) flux
mismatch wherever the radiation front spans only a few cells or a thin
group streams through a flat density field. The closure therefore uses
a face-normal closure factor g on every interior face, solved from the
moment system's own face law (first_moment_faces) on the sweep's
energies and face fluxes wherever the solved value lands in the physical
Eddington range [0, 1] - ratio data, insensitive to the magnitude of the
generating fields and no harder on the operator than the interpolated
tensor - plus an additive face-flux consistency remainder r carrying
whatever the windowed factor cannot absorb, the sweep's f_xy cross-term
flux included. Both are tables over the moment system's one interior-face
table (grid.face_cells), x- and y-faces alike. The
remainders ride on the right-hand side without touching the operator, so
the VEF assembles the same 5-point stencil as P1, P1/3 and FLD. On the
boundary v_out E_cell recovers the sweep's outward current exactly, and
b_base carries the sweep's incoming current, drive included, on the
right-hand side. Everything fed to the operator is therefore either a
bounded ratio or a fixed interpolation weight, while magnitude-sensitive
information rides on the right-hand side, where approximate data
perturbs the solution only linearly. With this discretely consistent closure the online solve driven by data
from a converged reference transport run reproduces that run's moments
to solver tolerance, and closures from approximate temperature data
inherit the accuracy of the auxiliary transport solve rather than that
of a bare diffusion stencil.

A record keeps only what the online step reads: the face factors and
remainders, and the boundary fields; f_xx and f_yy serve only as the
fallback of rejected face factors during extraction. Online step n reads
record n alone, so fused_pipeline streams the records: the march asks for
each step's record, the auxiliary sweep of that step builds it, and it is
freed once the next record replaces it. vef_step is the one entry every
record passes through, streamed or built by hand (isotropic_closure), and
it checks the record's shapes.
Every online step converges its temperature through iteration.couple, the
one radiation/material coupling loop of all the models. The VEF
temperature differs from its data by the transport correction VEF - data,
which changes little from one step to the next, so step n + 1 starts at
its own data temperature, at which its opacity and emission were frozen
offline, plus the correction step n left:

    T_start = max(T_data[n+1] + (T_vef[n] - T_data[n]), GUARD_FACTOR T_data[n+1]),

the previous VEF level moved by the data's own increment, floored as the
coupling floors its proposals (iteration.GUARD_FACTOR). The first step
has no correction yet, so it starts at its data. Measured against a start
at the bare data: steps 2-4 of the benchmark's VEF(P1) take 6, 7, 7
passes instead of 7, 7, 8, and on uniform 2 KeV data (tests/test_regimes.py)
step 2 takes 9 instead of 14. The fixed point and the convergence test
are those of every other model; only the pass count depends on the start.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .diffusion import DiffusionProblem, _marshak_boundary, coupled_step, first_moment_faces
from .errors import ConfigError
from .grid import AngularQuadrature, boundary_cells, boundary_flux, face_cells, interior_fluxes, normal_face_means
from .history import MomentState, StepDiagnostics, check_temperature_field, check_time_step, initial_moment_state, march
from .iteration import GUARD_FACTOR
from .physics import DEFAULT_CONSTANTS
from .transport import SweepResult, TransportProblem, planckian_intensity, sweep, sweep_step

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


def eddington_tensor(psi: np.ndarray, quad: AngularQuadrature):
    """Normal components f_xx, f_yy of the moment ratio sum(w Omega Omega I) / sum(w I) per cell.

    psi is in the sweep's layout (4, ny, nx, M_oct, G) (transport); each
    component is (G, ny, nx). The octants carry the same w, Omega_x^2 and
    Omega_y^2 bitwise (AngularQuadrature), so the sums over all directions
    are the first octant's applied to the octants' summed intensity. Cells
    whose scalar moment falls below 1e-30 of the group's largest (or to
    zero) get the isotropic fallback f_xx = f_yy = 1/3; such cells only
    occur where the field is numerically dark and any closure produces
    the same near-zero moments.
    """
    idx = quad.octants[0][2]
    w, (ox, oy) = quad.weight[idx], quad.omega[idx, :2].T
    I = psi.sum(axis=0)  # (ny, nx, M_oct, G)
    phi, sxx, syy = ((wm @ I).transpose(2, 0, 1) for wm in (w, w * ox * ox, w * oy * oy))

    dark = phi <= 1.0e-30 * phi.max(axis=(1, 2), keepdims=True)
    safe = np.where(dark, 1.0, phi)
    third = np.full_like(phi, 1.0 / 3.0)
    return np.where(dark, third, sxx / safe), np.where(dark, third, syy / safe)


def _at(where: str):
    """A closure field located on the interior faces or on the boundary faces."""
    return field(metadata={"at": where})


@dataclass(frozen=True)
class ClosureRecord:
    """Closure data for one time level: what one online step reads.

    g is the windowed face-normal closure factor and r the additive
    face-flux consistency remainder of every interior face, both
    (G, n_faces) in grid.face_cells order; the remainders carry the
    sweep's cross-term flux, so each face flux depends on its two adjacent
    cells alone. v_out is the outgoing boundary factor, the outgoing
    current per unit boundary-cell density (c C eta in terms of the
    half-range flux factor C and the outgoing face-to-cell density ratio
    eta), and b_base the rest of the boundary face's outward current, so
    n.F = v_out E_cell + b_base (both (G, n_boundary_faces), the moment
    system's boundary tables). The face-level fields make the moment
    stencil discretely consistent with the generating sweep; g = 1/3,
    r = 0 and P1's Marshak tables reduce the system to P1
    (isotropic_closure).

    Each field's location is its metadata "at", from which vef_step
    derives its shape checks.
    """

    v_out: np.ndarray = _at("bface")
    g: np.ndarray = _at("face")
    r: np.ndarray = _at("face")
    b_base: np.ndarray = _at("bface")


def closure_from_sweep(
    result: SweepResult, kappa: np.ndarray, prev_Fx: np.ndarray, prev_Fy: np.ndarray
) -> ClosureRecord:
    """Extract the closure record from a finished transport sweep.

    The mesh, the quadrature and the backward-Euler rate alpha = 1/(c dt)
    are those of the step swept (result.step: its mesh, quad and sink);
    kappa is the opacity the sweep was run with.

    The face factors come from the moment system's own face law:
    first_moment_faces with unit factors and the face fluxes
    prev_Fx/prev_Fy, evaluated on the sweep's energies, splits each face
    flux into the factor's gradient term grad and the fixed base, the flux
    memory. The pipeline (_closures) passes the previous auxiliary sweep's
    face fluxes (zeros before the first), while the online step's base
    holds its own state's fluxes (vef_step). The two agree only where the
    online march reproduces the sweeps, as on FOM data; on approximate
    data their difference is an error of the flux memory. The raw factor
    (F - base) / grad is accepted where it lands inside the stable window;
    faces where the fit is wild or the density contrast vanishes fall back
    to the face mean of the cell tensor's normal component (f_xx on
    x-faces, f_yy on y-faces), a moment ratio of the swept intensity. The consistency remainder F - base - g grad is
    whatever flux the windowed factor leaves unexplained, the sweep's
    cross-term flux among it. Together (g, r) reproduce the sweep's face
    flux identically when the online system is fed the sweep's energies.
    v_out is the sweep's outgoing boundary current over the boundary-cell
    density, and b_base the sweep's outward boundary flux less
    v_out E_cell, minus its incoming current to rounding, so
    v_out E_cell + b_base is the sweep's outward boundary flux.
    """
    mesh, alpha = result.step.mesh, result.step.sink
    Ef = result.E.reshape(kappa.shape[0], -1)

    fallback = normal_face_means(mesh, *eddington_tensor(result.psi, result.step.quad))
    form = first_moment_faces(mesh, kappa, alpha, interior_fluxes(prev_Fx, prev_Fy), 1.0)
    grad = (form.coef * Ef[:, face_cells(mesh)[0]].transpose(1, 0, 2)).sum(axis=0)
    F = interior_fluxes(result.Fx, result.Fy) - form.base
    with np.errstate(invalid="ignore", divide="ignore"):
        raw = F / grad
    g = np.where(np.isfinite(raw) & (raw >= _FACTOR_LO) & (raw <= _FACTOR_HI), raw, fallback)

    # boundary closure: n.F = v_out E_cell + b_base
    E_edge = Ef[:, boundary_cells(mesh)[0]]
    v_out = result.bface_wnI / np.maximum(E_edge, 1.0e-300)
    return ClosureRecord(v_out, g, F - g * grad, boundary_flux(result.Fx, result.Fy) - v_out * E_edge)


def isotropic_closure(problem: DiffusionProblem) -> ClosureRecord:
    """The isotropic closure f = diag(1/3, 1/3, 1/3) with P1's boundary: one record for every step.

    The face-level fields take their neutral values (g = 1/3, zero
    remainders) and the boundary tables are P1's own Marshak tables
    (diffusion._marshak_boundary): n.F = (c/2) E_cell - 2 F_in on open
    sides, v_out = c/2 being c C eta with C = 1/2, eta = 1, and n.F = 0 on
    reflective ones. So vef_step on this record with T_start None, which
    starts its coupling where P1 does, is P1's step of the problem.
    """
    v_out, b_base = _marshak_boundary(problem, problem.incoming_currents())
    faces = (problem.fgrid.n_groups,) + face_cells(problem.mesh)[1].shape
    return ClosureRecord(v_out=v_out, g=np.full(faces, 1.0 / 3.0), r=np.zeros(faces), b_base=b_base)


# ---------------------------------------------------------------------------
# the closed moment step
# ---------------------------------------------------------------------------


def vef_step(
    problem: TransportProblem,
    state: MomentState,
    dt: float,
    record: ClosureRecord,
    T_start: np.ndarray | None = None,
) -> tuple[MomentState, StepDiagnostics]:
    """Advance the closed moment system one backward-Euler step.

    The closure record is frozen data for the step, so the coupling
    (iteration.couple through diffusion.coupled_step) iterates on the
    temperature field exactly like the P1 stepper. Its first pass freezes
    the temperature at T_start - fused_pipeline passes the record's data
    temperature plus the last step's transport correction - or, when
    T_start is None, at the temperature P1 starts on too: the previous
    level extrapolated by state.dTdt (iteration.couple). Every start
    reaches the same fixed point, so it only sets the number of passes.
    The faces are the first-moment forms with the record's factors g and
    remainders r, on the 5-point stencil every moment model shares, and
    the boundary tables are the record's, n.F = v_out E_cell + b_base. Of
    the transport problem only the mesh, groups, material and heat
    capacity are used: the record stands in for the quadrature and the
    inflow. A dt that is not positive and finite, a record field whose
    shape is not (G, n_faces) or (G, n_boundary_faces) as its metadata "at"
    says, or a T_start that is neither None nor an (ny, nx) field of finite
    positive numbers, raises ConfigError before the first solve, inside
    which it would broadcast or fail.
    """
    check_time_step(dt)
    mesh, G = problem.mesh, problem.fgrid.n_groups
    at = {"face": (G, face_cells(mesh)[1].size), "bface": (G, mesh.n_boundary_faces)}
    for f in fields(ClosureRecord):
        shape, expected = np.shape(getattr(record, f.name)), at[f.metadata["at"]]
        if shape != expected:
            raise ConfigError(f"closure {f.name} has shape {shape}, expected {expected}")
    if T_start is not None:
        T_start = check_temperature_field(T_start, ((mesh.ny, mesh.nx),), "T_start")
    F_prev = interior_fluxes(state.Fx, state.Fy)
    alpha = 1.0 / (DEFAULT_CONSTANTS.c * dt)
    return coupled_step(
        problem, state, dt, lambda kappa, *_: first_moment_faces(mesh, kappa, alpha, F_prev, record.g, record.r),
        (record.v_out, record.b_base), "closed-moment/material coupling", T_start,
    )


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


def _check_temperature_data(problem, temperatures):
    times = np.asarray(temperatures.times, dtype=float)
    if times.ndim != 1 or not np.all(np.isfinite(times)):
        raise ConfigError("time grid must be a finite 1-D array")
    if times.size < 2:
        raise ConfigError("temperature data must cover at least one step")
    if not np.all(np.diff(times) > 0.0):
        raise ConfigError("time grid must be strictly increasing")
    shape = (times.size, problem.mesh.ny, problem.mesh.nx)
    return times, check_temperature_field(temperatures.T, (shape,), "data temperature field")


def _closures(problem: TransportProblem, times: np.ndarray, T_data: np.ndarray):
    """(dt, record, T_prev, T) of each step of checked temperature data, swept when the march asks for it.

    T_prev and T are the data temperatures at the step's start and end.
    """
    mesh, quad, G = problem.mesh, problem.quad, problem.fgrid.n_groups
    psi = planckian_intensity(problem, T_data[0])
    Fx = np.zeros((G, mesh.ny, mesh.nx + 1))
    Fy = np.zeros((G, mesh.ny + 1, mesh.nx))
    for dt, T_prev, T in zip(np.diff(times), T_data[:-1], T_data[1:]):
        kappa, _, B, _ = problem.material.emission_terms(T, DEFAULT_CONSTANTS)
        result = sweep(mesh, quad, kappa, kappa * B, sweep_step(mesh, quad, psi, dt, problem.inflow))
        record = closure_from_sweep(result, kappa, Fx, Fy)
        psi, Fx, Fy = result.psi, result.Fx, result.Fy
        del result  # its frames and factors would otherwise live through the online step
        yield dt, record, T_prev, T


def fused_pipeline(problem: TransportProblem, temperatures, label: str = "vef"):
    """Run the data-driven VEF on temperature data and return the t, T and E of all N+1 levels.

    temperatures provides .times (N+1,) and .T (N+1, ny, nx) - any solution
    history qualifies. The run starts from equilibrium at the initial data
    temperature field at times[0]. Each step's record comes from one linear
    sweep of the step at its end-of-step data temperature, fed by the
    previous sweep's intensity (the Planckian at the initial data
    temperature before the first), and is built when the march reaches that
    step, so at most the previous record is still alive when it is built.
    vef_step closes the step with it, its coupling started at that
    end-of-step data temperature plus the last step's transport correction,
    max(T_data[n+1] + (T_vef[n] - T_data[n]), GUARD_FACTOR T_data[n+1])
    (module docstring); on the first step T_vef[0] is T_data[0], so it
    starts at its data. A time
    grid that is not a finite, strictly increasing 1-D array of at least two
    levels, and data temperatures of the wrong shape, holding bools, or not
    finite and positive, raise ConfigError before the first sweep.
    """
    times, T_data = _check_temperature_data(problem, temperatures)

    def advance(state, step):
        dt, record, T_prev, T = step
        return vef_step(problem, state, dt, record, np.maximum(T + (state.T - T_prev), GUARD_FACTOR * T))

    # The initial state goes to the march unnamed, so it is freed once stepped past.
    return march(label, initial_moment_state(problem, T_data[0], times[0]), advance, _closures(problem, times, T_data))
