"""Discretization grids: spatial mesh, angular quadrature, frequency groups.

All three are immutable after construction. The spatial mesh is a uniform
rectangular grid on [0, Lx] x [0, Ly] with cell-centered unknowns and
face-normal fluxes. The angular quadrature is a product set on the unit
sphere: Gauss-Legendre nodes in the polar cosine crossed with equally
weighted azimuthal angles, offset by half a step so no direction lies on a
coordinate axis. Streaming is two-dimensional (x, y); Omega_z is carried for
the moment identities but never multiplies a gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

# Sides in canonical order; boundary faces are stored left, right, bottom, top.
SIDES = ("left", "right", "bottom", "top")


@dataclass(frozen=True)
class SpatialMesh:
    """Uniform rectangular mesh; lengths in cm, areas per unit depth in z."""

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ConfigError(f"mesh needs at least one cell per axis, got {self.nx}x{self.ny}")
        if self.lx <= 0.0 or self.ly <= 0.0:
            raise ConfigError(f"mesh extents must be positive, got {self.lx} x {self.ly}")

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
        """Slice of the canonical boundary-face axis belonging to one side.

        Left and right faces are ordered by cell row j, bottom and top by
        cell column i.
        """
        nx, ny = self.nx, self.ny
        offsets = {"left": (0, ny), "right": (ny, 2 * ny), "bottom": (2 * ny, 2 * ny + nx), "top": (2 * ny + nx, 2 * ny + 2 * nx)}
        if side not in offsets:
            raise ConfigError(f"unknown side {side!r}")
        lo, hi = offsets[side]
        return slice(lo, hi)


@dataclass(frozen=True)
class AngularQuadrature:
    """Product quadrature on the unit sphere.

    omega has shape (M, 3) with columns (Omega_x, Omega_y, Omega_z); weights
    sum to 4 pi. Octant index lists group directions by the signs of
    (Omega_x, Omega_y) for the sweep ordering.
    """

    n_polar: int
    n_azimuthal: int
    omega: np.ndarray
    weight: np.ndarray
    octants: tuple = field(repr=False, default=())

    @property
    def n_directions(self) -> int:
        return self.omega.shape[0]

    def half_range(self, normal: np.ndarray, outgoing: bool = True) -> np.ndarray:
        """Boolean mask of directions with n.Omega > 0 (or < 0 for incoming)."""
        d = self.omega @ np.asarray(normal, dtype=float)
        return d > 0.0 if outgoing else d < 0.0


def build_angular_quadrature(n_polar: int, n_azimuthal: int) -> AngularQuadrature:
    """Build the product quadrature and assert its moment identities.

    Requires n_polar >= 2 (a single polar node cannot reproduce the second
    moment) and n_azimuthal a positive multiple of 4 (octant symmetry).
    """
    if n_polar < 2:
        raise ConfigError(f"n_polar must be >= 2, got {n_polar}")
    if n_azimuthal < 4 or n_azimuthal % 4 != 0:
        raise ConfigError(f"n_azimuthal must be a positive multiple of 4, got {n_azimuthal}")

    mu, w_mu = np.polynomial.legendre.leggauss(n_polar)
    phi = (np.arange(n_azimuthal) + 0.5) * (2.0 * np.pi / n_azimuthal)
    w_phi = 2.0 * np.pi / n_azimuthal

    s = np.sqrt(1.0 - mu**2)
    # Outer products over (polar, azimuthal); flatten polar-major.
    ox = np.outer(s, np.cos(phi)).ravel()
    oy = np.outer(s, np.sin(phi)).ravel()
    oz = np.outer(mu, np.ones(n_azimuthal)).ravel()
    omega = np.column_stack([ox, oy, oz])
    weight = np.outer(w_mu, np.full(n_azimuthal, w_phi)).ravel()

    _check_moments(omega, weight)

    octants = tuple(
        (sx, sy, np.nonzero((np.sign(ox) == sx) & (np.sign(oy) == sy))[0])
        for sx in (1.0, -1.0)
        for sy in (1.0, -1.0)
    )
    quad = AngularQuadrature(n_polar, n_azimuthal, omega, weight, octants)
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


# Photon-frequency group upper bounds in KeV for the hard-coded benchmark
# material: 16 finite edges plus a capping edge far above the spectrum.
BENCHMARK_GROUP_BOUNDS = (
    0.7075, 1.415, 2.123, 2.830, 3.538, 4.245, 5.129, 6.014, 6.898,
    7.783, 8.667, 9.551, 10.44, 11.32, 12.20, 13.09, 1.0e7,
)


@dataclass(frozen=True)
class FrequencyGrid:
    """Contiguous photon-frequency groups [nu_{g-1}, nu_g], nu_0 = 0.

    bounds has shape (G + 1,) including the leading zero; frequencies in KeV.
    """

    bounds: np.ndarray

    @property
    def n_groups(self) -> int:
        return self.bounds.size - 1


def build_frequency_grid(upper_bounds=BENCHMARK_GROUP_BOUNDS) -> FrequencyGrid:
    """Build a frequency grid from strictly increasing positive upper edges."""
    ub = np.asarray(upper_bounds, dtype=float)
    if ub.ndim != 1 or ub.size < 1:
        raise ConfigError("frequency grid needs at least one group bound")
    if ub[0] <= 0.0 or np.any(np.diff(ub) <= 0.0):
        raise ConfigError("group bounds must be positive and strictly increasing")
    bounds = np.concatenate([[0.0], ub])
    bounds.setflags(write=False)
    return FrequencyGrid(bounds)
