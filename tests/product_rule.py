"""The full product rule behind a folded quadrature, the rules the sweep is
tested on, and the intensity in the per-direction layout, for tests that
compare with a reference built one direction at a time."""

import numpy as np

from ddvef.grid import AngularQuadrature, build_angular_quadrature


def unfold(quad: AngularQuadrature) -> tuple[AngularQuadrature, np.ndarray]:
    """Split each Omega_z > 0 direction of quad into +-Omega_z at half weight.

    Returns the unfolded rule and, for each of its directions, the index of
    the folded direction it came from. Its first quad.n_directions
    directions are quad's own, in order (an Omega_z = 0 direction keeps its
    weight); the Omega_z < 0 mirrors follow.
    """
    upper = np.flatnonzero(quad.omega[:, 2] > 0.0)
    mirrors = quad.omega[upper] * np.array([1.0, 1.0, -1.0])
    weight = quad.weight.copy()
    weight[upper] /= 2.0
    source = np.concatenate([np.arange(quad.n_directions), upper])
    full = AngularQuadrature(np.concatenate([quad.omega, mirrors]), weight[source])
    return full, source


#: Rules other than the 2 x 8 one: an Omega_z = 0 level (3 x 8), octants
#: holding pairs of equal (|Omega_x|, |Omega_y|) (the unfolded 2 x 8 rule),
#: and 144 directions of the product rule (4 x 36).
OTHER_RULES = {
    "3x8": lambda: build_angular_quadrature(3, 8),
    "unfolded": lambda: unfold(build_angular_quadrature(2, 8))[0],
    "4x36": lambda: build_angular_quadrature(4, 36),
}


def by_direction(psi: np.ndarray, quad: AngularQuadrature) -> np.ndarray:
    """The sweep's intensity (4, ny, nx, M_oct, G) as (ny, nx, G, M), direction m in slot m."""
    out = np.empty(psi.shape[1:3] + (psi.shape[-1], quad.n_directions))
    for octant, (*_, idx) in zip(psi, quad.octants):
        out[..., idx] = octant.transpose(0, 1, 3, 2)
    return out


def by_octant(psi: np.ndarray, quad: AngularQuadrature) -> np.ndarray:
    """The per-direction intensity (ny, nx, G, M) in the sweep's layout (4, ny, nx, M_oct, G)."""
    return np.stack([psi[..., idx].transpose(0, 1, 3, 2) for *_, idx in quad.octants])
