"""Discrete-ordinates transport: positivity-preserving sweeps and the
fully coupled full-order model (FOM) time step.

The backward-Euler multigroup transport equation is folded into a steady
sweep per step: the effective absorption is kappa* = kappa_g + 1/(c dt) and
the effective source gains I_prev/(c dt). Each cell update integrates the
attenuation exponential along the single effective chord
ds = 1 / (|Omega_x|/dx + |Omega_y|/dy), mixing the two upwind faces with
flux weights; both outflow faces receive the chord exit value. The scheme
preserves uniform solutions (an isotropic equilibrium is a fixed point to
roundoff), keeps intensities nonnegative, and satisfies the finite-volume
balance exactly, so the global energy budget telescopes to the boundary
fluxes.

The chord factors exp(-eps), g1 and g2 of eps = kappa* ds depend on the
cell, the group and the direction's (|Omega_x|, |Omega_y|), but not on the
intensities or on the signs of the direction. The quadrature's four octants
carry the same sequence of those magnitudes (AngularQuadrature), so a sweep
evaluates the factors, and the attenuation weights they fold into, once
over (ny, nx, M_oct, G) and every octant reads them. Each octant keeps the
mesh's own orientation: its frame is padded by a ghost row and column on
every side, the upwind ones holding the inflow, so the wavefront reads its
coefficients and its upwind intensities, and writes its outflow, through
strided views of that padded frame flattened to (cells, M_oct, G), with no
case for the boundary and no flip of the axes it streams against. A frame
keeps the group innermost, so the per-direction factors broadcast over
whole group rows and every frame operation runs over contiguous rows of G
values.

A sweep is split into what a time step fixes and what a Picard pass
changes. sweep_step builds the first once per step: the mesh and
quadrature it is for, the sink 1 / (c dt), the checked psi_prev scaled
by it and summed over the octants, each side's inflow and the chord
geometry the octants share. Each pass's sweep reads that step with the
pass's opacity and source, and each octant's signs, directions and
weights from the quadrature's octants; the wavefronts are built once per
mesh shape and orientation. Every sweep fills frames of its own and its
result keeps them beside the step, so the result of an earlier pass
stays valid and holds all that its tallies and the VEF closure read.

A sweep returns the energy E, the one quantity every coupling pass reads.
E is linear in the cell averages, and so in each octant's upwind face
intensities and source, whose factors and weights the octants share: it
is formed once from the octants' summed intensities. The cell averages
psi, the face fluxes and the boundary currents are tallied on first read
from the per-octant frames the result keeps: a time step's Picard passes
discard all but the last sweep, so only that one pays for them.

The swept directions are the quadrature's, which build_angular_quadrature
folds to the Omega_z >= 0 half of its product rule: streaming in x-y sees
only (Omega_x, Omega_y), and every source, inflow and initial intensity
here is isotropic, so a direction and its Omega_z mirror carry the same
intensity. Sweeping one of each pair at their summed weight gives the same
energies, fluxes and boundary currents at half the work.

Intensity arrays are laid out as the sweep works, (4, ny, nx, M_oct, G):
octant in quad.octants order, cell row, cell column, the octant's
directions, group; the FOM and the VEF's streamed auxiliary sweep
carry psi so from step to step. Face fluxes: Fx (G, ny, nx+1), Fy (G, ny+1, nx).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError
from .grid import SIDES, AngularQuadrature, FrequencyGrid, SpatialMesh, boundary_flux, check_sides
from .history import (
    MomentState, StepDiagnostics, check_step_count, check_time_step, energy_balance_residual, initial_moment_state, march,
)
from .iteration import couple
from .physics import DEFAULT_CONSTANTS, MaterialEOS, group_planck


@dataclass(frozen=True)
class BoundaryInflow:
    """Isotropic incoming intensity per side, (G,) arrays; None = vacuum.

    A non-finite or negative value raises ConfigError naming its side: the
    sweep would carry it into a NaN energy or a negative intensity. So does
    an array of bools, which would read as intensities of 0 and 1.
    """

    left: np.ndarray | None = None
    right: np.ndarray | None = None
    bottom: np.ndarray | None = None
    top: np.ndarray | None = None

    def __post_init__(self):
        for side in SIDES:
            v = getattr(self, side)
            if v is None:
                continue
            is_bool, v = np.asarray(v).dtype == bool, np.asarray(v, dtype=float)
            # Written so that nan, which fails every comparison, is rejected too.
            if is_bool or not np.all((v >= 0.0) & (v < np.inf)):
                raise ConfigError(f"inflow for side {side!r} must be finite and nonnegative numbers, not bools, got {v}")

    def value(self, side: str, n_groups: int) -> np.ndarray:
        v = getattr(self, side)
        if v is None:
            return np.zeros(n_groups)
        v = np.asarray(v, dtype=float)
        if v.shape != (n_groups,):
            raise ConfigError(f"inflow for side {side!r} has shape {v.shape}, expected ({n_groups},)")
        return v


def planckian_inflow(fgrid: FrequencyGrid, T_drive: float, sides=("left",)) -> BoundaryInflow:
    """Blackbody drive at T_drive on the given sides, vacuum elsewhere.

    An unknown side or a T_drive that is not positive and finite, or is a
    bool, raises ConfigError.
    """
    check_sides(sides)
    if isinstance(T_drive, (bool, np.bool_)) or not 0.0 < T_drive < np.inf:
        raise ConfigError(f"drive inflow requires a positive finite T_drive, got {T_drive}")
    B = group_planck(T_drive, fgrid)
    values = {side: (B.copy() if side in sides else None) for side in SIDES}
    return BoundaryInflow(**values)


def characteristic_coefficients(ax, ay, kappa_eff):
    """Chord factors of the step-characteristic update: (inv_ds, e, g1, g2).

    ax = |Omega_x|/dx, ay = |Omega_y|/dy and kappa_eff broadcast together.
    inv_ds = ax + ay is the inverse chord length, eps = kappa_eff ds its
    optical depth, e = exp(-eps), g1 = (1 - e)/eps and g2 = (1 - g1)/eps;
    g1 and g2 switch to their fifth-order series below eps = 1e-2, where
    the direct forms cancel; the series is evaluated on those entries only,
    and not at all when every eps is above the switch. None of them depends
    on the intensities, so a sweep evaluates them once for all its octants.
    """
    inv_ds = ax + ay
    eps = np.asarray(kappa_eff / inv_ds)
    minus_eps = -eps
    e = np.exp(minus_eps)
    with np.errstate(divide="ignore", invalid="ignore"):
        g1 = np.asarray(-np.expm1(minus_eps) / eps)
        g2 = np.asarray((1.0 - g1) / eps)
    small = eps < 1.0e-2
    if not small.any():
        return inv_ds, e, g1, g2
    s = eps[small]
    g1[small] = 1.0 - s / 2.0 + s**2 / 6.0 - s**3 / 24.0 + s**4 / 120.0 - s**5 / 720.0
    g2[small] = 0.5 - s / 6.0 + s**2 / 24.0 - s**3 / 120.0 + s**4 / 720.0 - s**5 / 5040.0
    return inv_ds, e, g1, g2


@lru_cache(maxsize=64)
def _diagonals(nx: int, ny: int, sx: int, sy: int) -> tuple:
    """The wavefronts of an nx x ny frame swept along (sx, sy), in upwind order.

    The frame keeps the mesh's orientation, padded by a ghost row and column
    on every side and flattened to ((ny+2)(nx+2), ...): cell (j, i) sits at
    flat index (j + 1)(nx + 2) + i + 1, its upwind x neighbour at -sx from
    it and its upwind y neighbour at -sy (nx + 2). Wavefront d holds the
    cells d steps downwind of the inflow corner; along it the flat index
    moves by sy (nx + 2) - sx per cell, so its cells and their two upwind
    neighbours are three slices of that stride, taken from the lowest index
    up. Built once per mesh shape and orientation; the tuple is immutable.
    """
    width = nx + 2
    stride = abs(sy * width - sx)
    diagonals = []
    for d in range(nx + ny - 1):
        # The wavefront's end cells, k rows and d - k columns from the inflow corner.
        ends = []
        for k in (max(0, d - nx + 1), min(d, ny - 1)):
            j = k if sy > 0 else ny - 1 - k
            i = d - k if sx > 0 else nx - 1 - (d - k)
            ends.append((j + 1) * width + i + 1)
        lo, hi = min(ends), max(ends)
        diagonals.append(tuple(slice(lo - k, hi - k + 1, stride) for k in (0, sx, sy * width)))
    return tuple(diagonals)


@dataclass(frozen=True)
class SweepStep:
    """The part of a sweep that one time step holds fixed, built by sweep_step.

    A FOM step's Picard passes sweep with new opacities and sources but the
    same mesh, quadrature, previous intensity psi_prev and inflow, so the
    checks, the effective sink 1 / (c dt), the per-octant sources and the
    geometry the octants share are built once per step and every pass's
    sweep reads them. ax, ay (M_oct, 1) are |Omega_x| / dx and
    |Omega_y| / dy of an octant's directions and w_x, w_y = ax / inv_ds,
    ay / inv_ds the inflow weights of the cell update: the quadrature's
    octants mirror each other, so these are every octant's. prev is the
    backward-Euler source psi_prev / (c dt) (4, ny, nx, M_oct, G), whose
    last axis gives the group count, and prev_sum its sum over the four
    octants, which the energy tally reads; inflow maps each side to its
    (G,) incoming intensity.
    """

    mesh: SpatialMesh
    quad: AngularQuadrature
    sink: float
    ax: np.ndarray
    ay: np.ndarray
    w_x: np.ndarray
    w_y: np.ndarray
    prev: np.ndarray
    prev_sum: np.ndarray
    inflow: dict


def sweep_step(
    mesh: SpatialMesh, quad: AngularQuadrature, psi_prev: np.ndarray, dt: float, inflow: BoundaryInflow
) -> SweepStep:
    """Build what the sweeps of one step from psi_prev over dt share.

    psi_prev (4, ny, nx, M_oct, G) is the intensity at the start of the
    step in the sweep's layout, its G the sweeps' too; dt = inf with a zero
    psi_prev is the steady sweep. A psi_prev of another shape, a dt that is
    not positive and an inflow of the wrong group count raise ConfigError.
    """
    expected = (4, mesh.ny, mesh.nx, quad.octants[0][2].size)
    if psi_prev.ndim != 5 or psi_prev.shape[:4] != expected:
        raise ConfigError(f"psi_prev has shape {psi_prev.shape}, expected {expected + ('G',)}")
    if not dt > 0.0:
        raise ConfigError(f"sweep requires a positive time step (inf for steady state), got {dt}")
    sink = 1.0 / (DEFAULT_CONSTANTS.c * dt)
    bc = {side: inflow.value(side, psi_prev.shape[-1]) for side in SIDES}
    ox, oy = quad.omega[quad.octants[0][2], :2].T
    ax, ay = (np.abs(ox) / mesh.dx)[:, None], (np.abs(oy) / mesh.dy)[:, None]
    inv_ds = ax + ay
    prev = psi_prev * sink
    return SweepStep(mesh, quad, sink, ax, ay, ax / inv_ds, ay / inv_ds, prev, sum(prev), bc)


@dataclass
class SweepResult:
    """The energy of one full sweep, and the frames its other tallies come from.

    E (G, ny, nx) is tallied during the sweep. psi (4, ny, nx, M_oct, G),
    the cell averages per octant in quad.octants order, the face-normal
    fluxes Fx (G, ny, nx+1) and Fy (G, ny+1, nx) and bface_wnI
    (G, 2(nx+ny)), the outgoing current sum w (n.Omega) I at the boundary
    faces, are built together on the first read of any of them and cached.
    step is the SweepStep swept, whose mesh, quadrature, sink and per-octant
    sources the tallies and the VEF closure read. frames holds per octant,
    in quad.octants order, its outflow (ny+2, nx+2, M_oct, G), padded on
    every side in the mesh's orientation, with the inflow in the upwind
    ghost column and row. factors holds what the cell averages need beside
    the frames, the sweep's own (g1 / inv_ds, g2 / inv_ds) (ny, nx, M_oct, G)
    and a copy of its source (ny, nx, 1, G).
    """

    E: np.ndarray
    step: SweepStep
    frames: list
    factors: tuple

    @cached_property
    def psi(self) -> np.ndarray:
        return self._tallies[0]

    @cached_property
    def Fx(self) -> np.ndarray:
        return self._tallies[1]

    @cached_property
    def Fy(self) -> np.ndarray:
        return self._tallies[2]

    @cached_property
    def bface_wnI(self) -> np.ndarray:
        return self._tallies[3]

    @cached_property
    def _tallies(self):
        return _tally_frames(self)


def _tally_frames(result: SweepResult):
    """psi, Fx, Fy and bface_wnI from a sweep's per-octant frames.

    The padded outflow holds every face intensity an octant sees: its
    inflow faces in the upwind ghost column and row, every other face as
    the outflow of the cell upwind of it. So an octant's x-faces are the
    nx + 1 columns from its upwind ghost column on, its y-faces the ny + 1
    rows from its upwind ghost row on, the face fluxes are one matmul per
    octant and axis, and their downwind column and row, which flow out
    through the domain boundary, sum to the outgoing partial fluxes, whose
    outward currents are the VEF's boundary closure. Only here are the cell
    averages (ax W + ay S) g1 / inv_ds + (source + prev) g2 / inv_ds formed,
    from each octant's upwind x- and y-face intensities W and S, each
    written straight into its octant's slot of psi.
    """
    step = result.step
    mesh, quad = step.mesh, step.quad
    nx, ny, G = mesh.nx, mesh.ny, result.E.shape[0]
    g1_ds, g2_ds, src_t = result.factors
    psi = np.empty((4,) + g1_ds.shape)
    Fx, out_x = np.zeros((G, ny, nx + 1)), np.zeros((G, ny, nx + 1))
    Fy, out_y = np.zeros((G, ny + 1, nx)), np.zeros((G, ny + 1, nx))
    for (sx, sy, idx), out, prev, avg in zip(quad.octants, result.frames, step.prev, psi):
        w = quad.weight[idx]
        ox, oy = quad.omega[idx, :2].T
        x_lo, y_lo = (1 - sx) // 2, (1 - sy) // 2
        x_edge, y_edge = nx * (sx > 0), ny * (sy > 0)
        np.multiply(step.ax * out[1:-1, 1 - sx:nx + 1 - sx] + step.ay * out[1 - sy:ny + 1 - sy, 1:-1], g1_ds, out=avg)
        avg += (src_t + prev) * g2_ds
        x_flow = ((w * ox) @ out[1:-1, x_lo:x_lo + nx + 1]).transpose(2, 0, 1)
        y_flow = ((w * oy) @ out[y_lo:y_lo + ny + 1, 1:-1]).transpose(2, 0, 1)
        Fx += x_flow
        Fy += y_flow
        out_x[:, :, x_edge] += x_flow[:, :, x_edge]
        out_y[:, y_edge] += y_flow[:, y_edge]
    return psi, Fx, Fy, boundary_flux(out_x, out_y)


def sweep(
    mesh: SpatialMesh,
    quad: AngularQuadrature,
    kappa: np.ndarray,
    source: np.ndarray,
    step: SweepStep,
) -> SweepResult:
    """Sweep all groups and directions across the mesh in upwind order.

    kappa and source are the physical absorption and isotropic emission
    source (G, ny, nx); the backward-Euler terms of the step (sweep_step:
    its sink 1 / (c dt) and previous intensity psi_prev) are folded in. A
    step built for another mesh or quadrature, and kappa or source of a
    shape other than the step's (G, ny, nx), raise ConfigError. The directions are quad's;
    from build_angular_quadrature they are the Omega_z >= 0 half of the
    product rule, each standing for itself and its Omega_z mirror (see the
    module docstring), so psi holds one intensity per mirror pair.

    The chord factors (characteristic_coefficients) depend only on the
    cell, the group and (|Omega_x|, |Omega_y|), which the quadrature's
    octants share, so they are evaluated once per sweep and the update
    out = I_in e + q ds g1 with I_in = (ax W + ay S) / inv_ds is folded into
    out = a_w W + a_s S + q g1 / inv_ds, with a_w = e w_x, a_s = e w_y and
    g1 / inv_ds shared by all octants too. Per octant remains the source
    q g1 / inv_ds, with q the source plus the step's psi_prev / (c dt).
    Each octant works in the mesh's orientation, in a frame padded on every
    side whose upwind ghost column and row hold the inflow. The cells of
    one wavefront are independent; in the padded frame flattened to
    ((ny+2)(nx+2), M_oct, G) they and their two upwind neighbours are three
    strided slices (_diagonals), so each wavefront is two multiplies and
    two adds, the last written into the frame, across all groups and
    octant directions. The cell average I_in g1 + q g2 / inv_ds is linear
    in W, S and q, with factors the octants share, so an octant only adds
    its W and S into two sums, from which E follows after the last octant;
    no per-octant average is formed. Every sweep fills frames of its own,
    one per octant in quad.octants order, which its result keeps with the
    step and the sweep's factors: psi and the face tallies are left to the
    result to build on first read (SweepResult).
    """
    nx, ny, G = mesh.nx, mesh.ny, step.prev.shape[-1]
    same_rule = quad is step.quad or (
        np.array_equal(quad.omega, step.quad.omega) and np.array_equal(quad.weight, step.quad.weight)
    )
    if mesh != step.mesh or not same_rule:
        raise ConfigError(f"the step (psi_prev of shape {step.prev.shape}) was built for another mesh or quadrature")
    if kappa.shape != (G, ny, nx) or source.shape != (G, ny, nx):
        raise ConfigError(f"kappa/source must have the step's shape (G, ny, nx) = {(G, ny, nx)}")

    kap_t = np.ascontiguousarray((kappa + step.sink).transpose(1, 2, 0))  # (ny, nx, G)
    src_t = source.transpose(1, 2, 0).copy()[:, :, None]  # the result keeps it, so not a view of the caller's
    M_oct = step.ax.shape[0]
    padded = (ny + 2, nx + 2, M_oct, G)
    flat = ((ny + 2) * (nx + 2), M_oct, G)
    inv_ds, e, g1, g2 = characteristic_coefficients(step.ax, step.ay, kap_t[:, :, None])
    g1_ds, g2_ds = g1 / inv_ds, g2 / inv_ds
    # The ghost entries of the coefficients, and the unused ghosts of out, are never read.
    coef = np.empty((2,) + padded)
    np.multiply(e, step.w_x, out=coef[0, 1:-1, 1:-1])
    np.multiply(e, step.w_y, out=coef[1, 1:-1, 1:-1])
    a_w, a_s = (c.reshape(flat) for c in coef)
    W, S = np.zeros((2, ny, nx, M_oct, G))  # the octants' upwind x- and y-face intensities, summed
    frames = []

    for (sx, sy, _), prev in zip(quad.octants, step.prev):
        q_g1 = np.empty(padded)
        np.multiply(src_t + prev, g1_ds, out=q_g1[1:-1, 1:-1])
        q_g1 = q_g1.reshape(flat)
        out = np.empty(padded)
        out[1:-1, 0 if sx > 0 else -1] = step.inflow["left" if sx > 0 else "right"]
        out[0 if sy > 0 else -1, 1:-1] = step.inflow["bottom" if sy > 0 else "top"]
        out_f = out.reshape(flat)
        for cells, west, south in _diagonals(nx, ny, sx, sy):
            I_out = a_w[cells] * out_f[west]
            I_out += a_s[cells] * out_f[south]
            np.add(I_out, q_g1[cells], out=out_f[cells])
        W += out[1:-1, 1 - sx:nx + 1 - sx]
        S += out[1 - sy:ny + 1 - sy, 1:-1]
        frames.append(out)

    # The four octants' averages summed: they share every factor but W, S and prev.
    W *= step.ax
    W += step.ay * S
    W *= g1_ds
    W += (4.0 * src_t + step.prev_sum) * g2_ds
    E = np.ascontiguousarray((quad.weight[quad.octants[0][2]] @ W).transpose(2, 0, 1)) / DEFAULT_CONSTANTS.c
    return SweepResult(E, step, frames, (g1_ds, g2_ds, src_t))


@dataclass(frozen=True)
class TransportProblem:
    """Static description of a transport run; an inflow that is not a BoundaryInflow raises ConfigError."""

    mesh: SpatialMesh
    quad: AngularQuadrature
    fgrid: FrequencyGrid
    material: object          # provides emission_terms()
    eos: MaterialEOS
    inflow: BoundaryInflow

    def __post_init__(self):
        if not isinstance(self.inflow, BoundaryInflow):
            raise ConfigError(f"the inflow must be a BoundaryInflow, got {self.inflow!r}")


@dataclass
class TransportState(MomentState):
    """Full-order model state at one time level: the moment state and its intensity."""

    psi: np.ndarray  # (4, ny, nx, M_oct, G), the sweep's layout (module docstring)


def planckian_intensity(problem: TransportProblem, T) -> np.ndarray:
    """Isotropic Planckian intensity at T, a scalar or an (ny, nx) field, in the sweep's layout."""
    B = group_planck(np.asarray(T, dtype=float), problem.fgrid)  # (G,) or (G, ny, nx)
    shape = (4, problem.mesh.ny, problem.mesh.nx, problem.quad.octants[0][2].size, problem.fgrid.n_groups)
    return np.broadcast_to(np.moveaxis(B, 0, -1)[..., None, :], shape).copy()


def initial_transport_state(problem: TransportProblem, T0: float) -> TransportState:
    """The equilibrium initial moment state with its isotropic Planckian intensity."""
    m = initial_moment_state(problem, T0)
    return TransportState(t=m.t, T=m.T, E=m.E, Fx=m.Fx, Fy=m.Fy, psi=planckian_intensity(problem, T0))


def fom_step(problem: TransportProblem, state: TransportState, dt: float) -> tuple[TransportState, StepDiagnostics]:
    """Advance the coupled transport / material-energy system one step.

    The step is iteration.couple with a sweep as its radiation solve: sweep
    with frozen kappa_g(T~), B_g(T~), then update T from the material
    energy balance by per-cell Newton, fully implicit in both kappa and B.
    The first pass freezes T~ at the temperature extrapolated by the
    state's dTdt (state.T on an initial level), and the new state carries
    this step's rate on to the next step's start.
    The previous-step intensity stays fixed at time level n-1 throughout,
    so the sweep setup it, dt and the inflow fix (sweep_step) is built once
    for all the step's passes.
    A pass reads only the sweep's energy; the new state takes psi and the
    face fluxes from the last pass's sweep, the only one that builds them.
    A dt that is not positive and finite raises ConfigError before the
    first sweep.
    """
    check_time_step(dt)
    step = sweep_step(problem.mesh, problem.quad, state.psi, dt, problem.inflow)
    result = None

    def radiate(kappa, B, *_):
        nonlocal result
        result = sweep(problem.mesh, problem.quad, kappa, kappa * B, step)
        return result.E

    T_new, history = couple(problem, state, dt, radiate, "transport/material coupling", None)

    new_state = TransportState(
        t=state.t + dt, T=T_new, E=result.E, Fx=result.Fx, Fy=result.Fy, psi=result.psi, dTdt=(T_new - state.T) / dt
    )
    return new_state, StepDiagnostics(history, energy_balance_residual(state, new_state, dt, problem.mesh, problem.eos))


def run_fom(problem: TransportProblem, T0: float, dt: float, n_steps: int):
    """March the full-order model n_steps from a uniform initial state.

    Returns a SolutionHistory of the n_steps + 1 levels' t, T and E; its
    temperatures are the data a VEF run (vef.fused_pipeline) can take.
    An n_steps that is negative or not a whole number raises ConfigError.
    """
    check_step_count(n_steps)
    return march("fom", initial_transport_state(problem, T0), lambda s, _: fom_step(problem, s, dt), range(n_steps))

