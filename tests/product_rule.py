"""The full product rule behind a folded quadrature, for tests that compare the two."""

import numpy as np

from ddvef.grid import AngularQuadrature


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
