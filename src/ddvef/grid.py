"""Discretization grids: spatial mesh, angular quadrature, frequency groups.

All three are immutable after construction. The spatial mesh is a uniform
rectangular grid on [0, Lx] x [0, Ly] with cell-centered unknowns and
face-normal fluxes. The angular quadrature is a product set on the unit
sphere: Gauss-Legendre nodes in the polar cosine crossed with equally
weighted azimuthal angles, offset by half a step so no direction lies on a
coordinate axis, and mirrored by sign from the first quadrant so the four
octants share their (|Omega_x|, |Omega_y|) exactly. Streaming is
two-dimensional (x, y); Omega_z is carried for the moment identities but
never multiplies a gradient. Because of that, a direction and its Omega_z
mirror see the same transport, and the quadrature keeps only the
Omega_z >= 0 half of the product rule (see build_angular_quadrature).

This module alone knows the layout of the mesh's two face tables. The
interior faces are the x-faces in (ny, nx-1) order, then the y-faces in
(ny-1, nx) order, each joining a low- and a high-side cell (face_cells),
its flux positive toward the high side. The boundary faces are the left,
right, bottom and top sides in turn (SIDES), left and right by cell row,
bottom and top by cell column (boundary_cells); a value on them is the
outward current n.F, -Fx on the left and -Fy on the bottom. States and
sweeps keep padded fluxes Fx (G, ny, nx+1) and Fy (G, ny+1, nx), which
interior_fluxes and boundary_flux read and padded_fluxes writes.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

SIDES = ("left", "right", "bottom", "top")


def check_sides(sides) -> None:
    """Raise ConfigError naming every entry of sides that is not one of SIDES."""
    unknown = [s for s in sides if s not in SIDES]
    if unknown:
        raise ConfigError(f"unknown boundary sides {unknown}, expected some of {SIDES}")


@dataclass(frozen=True)
class SpatialMesh:
    """Uniform rectangular mesh; lengths in cm, areas per unit depth in z.

    A cell count that is not a whole number of at least one, or is a bool,
    and an extent that is not positive and finite, or is a bool, raise
    ConfigError.
    """

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self):
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1 for n in (self.nx, self.ny)):
            raise ConfigError(f"mesh needs a whole number of at least one cell per axis, got {self.nx}x{self.ny}")
        # Written so that nan, which fails every comparison, is rejected too.
        if any(isinstance(length, (bool, np.bool_)) or not 0.0 < length < np.inf for length in (self.lx, self.ly)):
            raise ConfigError(f"mesh extents must be positive and finite numbers, not bools, got {self.lx} x {self.ly}")

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @property
    def cell_volume(self) -> float:
        """Volume per unit depth of every cell (uniform grid)."""
        return self.dx * self.dy

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def n_boundary_faces(self) -> int:
        return 2 * (self.nx + self.ny)

    def boundary_slice(self, side: str) -> slice:
        """Slice of the boundary-face axis belonging to one side (see boundary_cells)."""
        if side not in SIDES:
            raise ConfigError(f"unknown side {side!r}")
        s, bounds = SIDES.index(side), _side_bounds(self)
        return slice(bounds[s], bounds[s + 1])


def _read_only(*arrays):
    """The arrays, marked read-only so cached tables cannot be changed by a caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _sides(x, y):
    """The one record of the side order: the boundary edges of an x-face array
    x (..., ny, nx+1) and a y-face array y (..., ny+1, nx), or of a cell array
    as both, in SIDES order as (axis, outward sign, view); a view writes the array."""
    return (0, -1.0, x[..., 0]), (0, 1.0, x[..., -1]), (1, -1.0, y[..., 0, :]), (1, 1.0, y[..., -1, :])


@functools.lru_cache(maxsize=16)
def _side_bounds(mesh: SpatialMesh) -> tuple:
    """Where each side's faces start on the boundary-face axis, in SIDES order, and where the last side's faces end."""
    cells = np.broadcast_to(0, (mesh.ny, mesh.nx))
    return tuple(itertools.accumulate((view.size for *_, view in _sides(cells, cells)), initial=0))


@functools.lru_cache(maxsize=16)
def face_cells(mesh: SpatialMesh):
    """Per interior face: the flat indices of its low- and high-side cells
    (2, n_faces) and the cell width across it (n_faces,), x-faces first.
    Built once per mesh; the arrays are shared and read-only."""
    idx = np.arange(mesh.n_cells).reshape(mesh.ny, mesh.nx)
    x, y = np.stack([idx[:, :-1], idx[:, 1:]]), np.stack([idx[:-1], idx[1:]])
    width = np.repeat([mesh.dx, mesh.dy], [x[0].size, y[0].size])
    return _read_only(np.concatenate([x.reshape(2, -1), y.reshape(2, -1)], axis=1), width)


def face_means(mesh: SpatialMesh, field):
    """Arithmetic means of a (G, ny, nx) field on the interior faces, (G, n_faces)."""
    cells = face_cells(mesh)[0]
    flat = field.reshape(field.shape[0], -1)
    return 0.5 * (flat[:, cells[1]] + flat[:, cells[0]])


def normal_face_means(mesh: SpatialMesh, fxx, fyy):
    """Face means of a cell tensor's normal component, (G, n_faces): fxx on the x-faces, fyy on the y-faces."""
    n_x = mesh.ny * (mesh.nx - 1)
    return np.concatenate([face_means(mesh, fxx)[:, :n_x], face_means(mesh, fyy)[:, n_x:]], axis=1)


@functools.lru_cache(maxsize=16)
def boundary_cells(mesh: SpatialMesh):
    """Per boundary face: the flat index of the cell behind it and the cell
    width across it. Built once per mesh; the arrays are shared and read-only."""
    idx = np.arange(mesh.n_cells).reshape(mesh.ny, mesh.nx)
    sides = _sides(idx, idx)
    width = np.concatenate([np.full(view.size, (mesh.dx, mesh.dy)[axis]) for axis, _, view in sides])
    return _read_only(np.concatenate([view for *_, view in sides]), width)


def on_boundary_faces(mesh: SpatialMesh, per_side) -> np.ndarray:
    """Spread per-side values (4, G) onto the boundary faces, (G, n_boundary_faces)."""
    return np.repeat(np.asarray(per_side, dtype=float).T, np.diff(_side_bounds(mesh)), axis=1)


def interior_fluxes(Fx: np.ndarray, Fy: np.ndarray) -> np.ndarray:
    """Face-normal flux on the interior faces, (G, n_faces)."""
    G = Fx.shape[0]
    return np.concatenate([Fx[:, :, 1:-1].reshape(G, -1), Fy[:, 1:-1, :].reshape(G, -1)], axis=1)


def boundary_flux(Fx: np.ndarray, Fy: np.ndarray) -> np.ndarray:
    """Outward current n.F on the boundary faces, (G, n_boundary_faces)."""
    return np.concatenate([sign * view for _, sign, view in _sides(Fx, Fy)], axis=1)


def padded_fluxes(mesh: SpatialMesh, interior: np.ndarray, outward: np.ndarray):
    """Fx (G, ny, nx+1) and Fy (G, ny+1, nx) holding the interior-face fluxes and the
    boundary outward currents, the inverse of interior_fluxes and boundary_flux."""
    G, ny, nx = outward.shape[0], mesh.ny, mesh.nx
    Fx, Fy = np.empty((G, ny, nx + 1)), np.empty((G, ny + 1, nx))
    n_x, bounds = ny * (nx - 1), _side_bounds(mesh)
    Fx[:, :, 1:-1] = interior[:, :n_x].reshape(G, ny, nx - 1)
    Fy[:, 1:-1, :] = interior[:, n_x:].reshape(G, ny - 1, nx)
    for (_, sign, view), lo, hi in zip(_sides(Fx, Fy), bounds, bounds[1:]):
        np.multiply(outward[:, lo:hi], sign, out=view)
    return Fx, Fy


@dataclass(frozen=True)
class AngularQuadrature:
    """Quadrature on the unit sphere: the swept directions and their weights.

    omega has shape (M, 3) with columns (Omega_x, Omega_y, Omega_z) and
    weight shape (M,); weights sum to 4 pi. M = n_directions is the number
    of directions swept: build_angular_quadrature returns the Omega_z >= 0
    half of a product rule, but a full rule built directly is equally
    valid. octants, derived from omega, lists (sx, sy, indices) in the
    order (+, +), (+, -), (-, +), (-, -): the directions grouped by the
    signs +-1 of (Omega_x, Omega_y) for the sweep ordering, each group's
    indices stably sorted by (|Omega_x|, |Omega_y|, weight). It is the one
    record of the octants: the sweep reads each octant's signs, directions
    and weights (weight[indices]) from it, and its frames follow its order.

    The rule must be mirror-symmetric: the four octants carry the same
    sequence of (|Omega_x|, |Omega_y|) and of weights, bitwise, so a sweep
    evaluates its chord factors once and shares them across the octants,
    and tallies its energy from the octants' summed intensities. A direction
    with Omega_x = 0 or Omega_y = 0 belongs to no octant and raises
    ConfigError (so does a NaN component); so do an omega that is not
    (M, 3) and finite, a weight that is not (M,), finite and positive, and
    then octants that do not mirror each other.
    """

    omega: np.ndarray
    weight: np.ndarray
    octants: tuple = field(init=False, repr=False)

    def __post_init__(self):
        omega, weight = np.asarray(self.omega, dtype=float), np.asarray(self.weight, dtype=float)
        if omega.ndim != 2 or omega.shape[1] != 3 or omega.shape[0] < 1:
            raise ConfigError(f"quadrature omega must have shape (M, 3) with M >= 1, got {omega.shape}")
        if weight.shape != (omega.shape[0],):
            raise ConfigError(f"quadrature weight has shape {weight.shape}, expected ({omega.shape[0]},) to match omega")
        signs = np.sign(omega[:, :2])
        if not np.all(np.abs(signs) == 1.0):
            raise ConfigError("every quadrature direction needs a nonzero Omega_x and Omega_y to lie in an octant")
        if not np.all(np.isfinite(omega)):
            raise ConfigError("quadrature directions must be finite")
        # Written so that nan, which fails every comparison, is rejected too.
        if not np.all((weight > 0.0) & (weight < np.inf)):
            raise ConfigError("quadrature weights must be positive and finite")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "weight", weight)
        mirrored = np.column_stack([np.abs(omega[:, :2]), weight])  # what every octant must list alike
        octants = []
        for sx in (1, -1):
            for sy in (1, -1):
                idx = np.flatnonzero((signs[:, 0] == sx) & (signs[:, 1] == sy))
                octants.append((sx, sy, idx[np.lexsort(mirrored[idx].T[::-1])]))
        if not all(np.array_equal(mirrored[idx], mirrored[octants[0][2]]) for *_, idx in octants):
            raise ConfigError("the quadrature's octants must carry the same (|Omega_x|, |Omega_y|, weight), mirrored by sign")
        object.__setattr__(self, "octants", tuple(octants))

    @property
    def n_directions(self) -> int:
        return self.omega.shape[0]


def build_angular_quadrature(n_polar: int, n_azimuthal: int) -> AngularQuadrature:
    """Build the product quadrature, assert its moment identities, fold it to Omega_z >= 0.

    The full n_polar x n_azimuthal rule is built and its moment identities
    checked. What is returned is its Omega_z >= 0 half, the standard x-y
    reduction of S_N codes: the Omega_z > 0 levels at doubled weight and,
    for odd n_polar, the Omega_z = 0 level at its own weight, so
    n_directions is n_azimuthal * ceil(n_polar / 2). In x-y geometry a
    direction and its Omega_z mirror share (Omega_x, Omega_y), and every
    source, inflow and initial intensity of this package is isotropic, so
    the two carry the same intensity and sweeping one of them with both
    weights gives the same quadrature sums of I, Omega_x I, Omega_y I and
    their products. (Sums odd in Omega_z, which no solver reads, are not
    those of the full rule.) The azimuths run in increasing phi, but only
    the first quadrant's cos phi and sin phi are evaluated: the other
    quadrants take them mirrored by sign, so mirror directions have
    bitwise-equal |Omega_x| and |Omega_y|, as AngularQuadrature requires.

    Requires n_polar >= 2 (a single polar node cannot reproduce the second
    moment) and n_azimuthal a positive multiple of 4 (octant symmetry),
    both whole numbers; anything else raises ConfigError.
    """
    for name, n in (("n_polar", n_polar), ("n_azimuthal", n_azimuthal)):
        if not isinstance(n, (int, np.integer)):
            raise ConfigError(f"{name} must be a whole number, got {n!r}")
    if n_polar < 2:
        raise ConfigError(f"n_polar must be >= 2, got {n_polar}")
    if n_azimuthal < 4 or n_azimuthal % 4 != 0:
        raise ConfigError(f"n_azimuthal must be a positive multiple of 4, got {n_azimuthal}")

    mu, w_mu = np.polynomial.legendre.leggauss(n_polar)
    phi = (np.arange(n_azimuthal // 4) + 0.5) * (2.0 * np.pi / n_azimuthal)
    c, s_phi = np.cos(phi), np.sin(phi)
    cos_phi = np.concatenate([c, -c[::-1], -c, c[::-1]])
    sin_phi = np.concatenate([s_phi, s_phi[::-1], -s_phi, -s_phi[::-1]])
    w_phi = 2.0 * np.pi / n_azimuthal

    s = np.sqrt(1.0 - mu**2)
    # Outer products over (polar, azimuthal); flatten polar-major.
    ox = np.outer(s, cos_phi).ravel()
    oy = np.outer(s, sin_phi).ravel()
    oz = np.outer(mu, np.ones(n_azimuthal)).ravel()
    omega = np.column_stack([ox, oy, oz])
    weight = np.outer(w_mu, np.full(n_azimuthal, w_phi)).ravel()

    _check_moments(omega, weight)

    # Gauss-Legendre nodes and weights are exactly mirror-symmetric, so the
    # doubled weight of an upper level is its mirror pair's summed weight.
    kept = mu >= 0.0
    fold = np.where(mu > 0.0, 2.0, 1.0)[kept]
    omega = omega.reshape(n_polar, n_azimuthal, 3)[kept].reshape(-1, 3)
    weight = (weight.reshape(n_polar, n_azimuthal)[kept] * fold[:, None]).ravel()

    quad = AngularQuadrature(omega, weight)
    omega.setflags(write=False)
    weight.setflags(write=False)
    return quad


def _check_moments(omega: np.ndarray, weight: np.ndarray) -> None:
    """Zeroth/first/second moment identities, required to 1e-12."""
    tol = 1.0e-12
    if abs(weight.sum() - 4.0 * np.pi) > tol:
        raise ConfigError("quadrature zeroth moment is not 4 pi")
    first = weight @ omega
    if np.abs(first).max() > tol:
        raise ConfigError("quadrature first moment is not zero")
    second = np.einsum("m,mi,mj->ij", weight, omega, omega)
    if np.abs(second - (4.0 * np.pi / 3.0) * np.eye(3)).max() > tol:
        raise ConfigError("quadrature second moment is not (4 pi / 3) I")
    norms = np.linalg.norm(omega, axis=1)
    if np.abs(norms - 1.0).max() > tol:
        raise ConfigError("quadrature directions are not unit vectors")


#: Temperatures below T_FLOOR [KeV] are clamped in the group evaluations of
#: physics; cold-start temperatures sit well above it.
T_FLOOR = 1.0e-6

#: A group evaluation forms x^4 at every edge x = nu/T, which overflows once x
#: exceeds the fourth root of the largest double (about 1.16e77); with T
#: clamped at T_FLOOR, the last edge bounds x.
_MAX_EDGE_X = np.finfo(float).max ** 0.25

# Photon-frequency group upper bounds in KeV for the hard-coded benchmark
# material: 16 finite edges plus a capping edge far above the spectrum.
BENCHMARK_GROUP_BOUNDS = (
    0.7075, 1.415, 2.123, 2.830, 3.538, 4.245, 5.129, 6.014, 6.898,
    7.783, 8.667, 9.551, 10.44, 11.32, 12.20, 13.09, 1.0e7,
)


@dataclass(frozen=True)
class FrequencyGrid:
    """Contiguous photon-frequency groups [nu_{g-1}, nu_g], nu_0 = 0.

    bounds has shape (G + 1,) including the leading zero; frequencies in
    KeV. The bounds must be finite and strictly increasing from that zero,
    and the last must stay below T_FLOOR * _MAX_EDGE_X (about 1.16e71
    KeV), where the group evaluations would overflow to nan at the floor
    temperature; other bounds raise ConfigError. The grid keeps a
    read-only float copy of them.
    """

    bounds: np.ndarray

    def __post_init__(self):
        bounds = np.array(self.bounds, dtype=float)
        if bounds.ndim != 1 or bounds.size < 2:
            raise ConfigError(f"frequency grid needs a 1-D array of bounds with at least one group, got shape {bounds.shape}")
        if bounds[0] != 0.0:
            raise ConfigError(f"frequency grid must start at 0, got {bounds[0]}")
        # Written so that nan, which fails every comparison, is rejected too.
        if not (np.all(np.diff(bounds) > 0.0) and np.isfinite(bounds[-1])):
            raise ConfigError("group bounds must be positive, finite and strictly increasing")
        if not bounds[-1] / T_FLOOR < _MAX_EDGE_X:
            raise ConfigError(f"last group bound {bounds[-1]:.3g} KeV overflows x^4 at T_FLOOR (x limit {_MAX_EDGE_X:.3g})")
        bounds.setflags(write=False)
        object.__setattr__(self, "bounds", bounds)

    @property
    def n_groups(self) -> int:
        return self.bounds.size - 1


def build_frequency_grid(upper_bounds=BENCHMARK_GROUP_BOUNDS) -> FrequencyGrid:
    """Build a frequency grid from its upper edges; FrequencyGrid checks them."""
    ub = np.asarray(upper_bounds, dtype=float)
    if ub.ndim != 1:
        raise ConfigError(f"group bounds must be a 1-D sequence, got shape {ub.shape}")
    return FrequencyGrid(np.concatenate([[0.0], ub]))
