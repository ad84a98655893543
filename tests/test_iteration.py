"""Tests for the accelerated fixed-point driver on linear contractions."""

import numpy as np
import pytest

from ddvef.errors import ConvergenceError
from ddvef.iteration import AndersonAccelerator, fixed_point_solve


def linear_map(rho: float, n: int = 6, seed: int = 0):
    """x -> A x + b with spectral radius rho, A and b positive, and its fixed point."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.1, 1.0, (n, n))
    A *= rho / np.max(np.abs(np.linalg.eigvals(A)))
    b = rng.uniform(1.0, 2.0, n)
    return (lambda x: A @ x + b), np.linalg.solve(np.eye(n) - A, b)


def test_anderson_converges_to_the_fixed_point_faster_than_plain_iteration():
    G, x_star = linear_map(0.95)
    x0 = np.ones_like(x_star)
    x, history = fixed_point_solve(G, x0, tol=1e-12, max_iter=1000, memory=5, guard_factor=None)
    np.testing.assert_allclose(x, x_star, rtol=1e-10)
    _, plain = fixed_point_solve(G, x0, tol=1e-12, max_iter=1000, memory=0, guard_factor=None)
    assert len(history) < 20 < len(plain)


def test_anderson_proposal_is_exact_for_a_scalar_linear_map():
    # two pairs fix the secant of a 1-D affine map, so the third proposal is its root
    accel = AndersonAccelerator(memory=3)
    G = lambda x: 0.5 * x + 1.0  # noqa: E731
    x = np.array([0.0])
    for _ in range(2):
        x = accel.propose(x, G(x))
    np.testing.assert_allclose(x, [2.0], rtol=1e-14)


def test_nonconvergence_raises_with_the_residual_history():
    G, _ = linear_map(0.99)
    with pytest.raises(ConvergenceError) as info:
        fixed_point_solve(G, np.ones(6), tol=1e-12, max_iter=4, memory=0, guard_factor=None, label="slow map")
    err = info.value
    assert len(err.history) == 4
    assert err.residual == err.history[-1] > 1e-12
    assert "slow map" in str(err)


def test_damping_backs_off_an_overshooting_preconditioner():
    # The ideal rescale for contraction 1/2 is 2; a factor of 10 makes every
    # full step diverge (error factor -4), and without mixing memory only
    # halving the damping weight can restore a contraction.
    G, x_star = linear_map(0.5)
    x, history = fixed_point_solve(
        G, np.ones(6), tol=1e-10, max_iter=200, memory=0, guard_factor=None,
        precondition=lambda x, gx: x + 10.0 * (gx - x),
    )
    np.testing.assert_allclose(x, x_star, rtol=1e-9)
    assert max(history[1:4]) > history[0]  # the overshoot really happened
