"""Tests for the accelerated fixed-point driver on linear contractions."""

import numpy as np
import pytest

from ddvef.errors import ConvergenceError
from ddvef.iteration import _LSTSQ_RCOND, AndersonAccelerator, fixed_point_solve


def linear_map(rho: float, n: int = 6, seed: int = 0):
    """x -> A x + b with spectral radius rho, A and b positive, and its fixed point.

    The map takes fixed_point_solve's damping weight as its second argument and ignores it.
    """
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.1, 1.0, (n, n))
    A *= rho / np.max(np.abs(np.linalg.eigvals(A)))
    b = rng.uniform(1.0, 2.0, n)
    return (lambda x, _: A @ x + b), np.linalg.solve(np.eye(n) - A, b)


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


class RestackingAnderson:
    """Reference mixer: keeps the pairs themselves and restacks every difference on each call."""

    def __init__(self, memory):
        self.memory = memory
        self._x, self._g = [], []
        self._last_rnorm = np.inf

    def reset(self):
        self._x.clear()
        self._g.clear()
        self._last_rnorm = np.inf

    def propose(self, x, gx):
        x, gx = x.ravel(), gx.ravel()
        r = gx - x
        rnorm = float(np.linalg.norm(r))
        if rnorm > 1.0e2 * self._last_rnorm:
            self._x.clear()
            self._g.clear()
        self._last_rnorm = min(rnorm, self._last_rnorm)
        self._x.append(x.copy())
        self._g.append(gx.copy())
        if len(self._x) > self.memory + 1:
            self._x.pop(0)
            self._g.pop(0)
        if len(self._x) == 1:
            return gx.copy()
        R = np.stack([g - xi for g, xi in zip(self._g, self._x)], axis=1)
        dR = R[:, 1:] - R[:, :-1]
        norms = np.linalg.norm(dR, axis=0)
        norms[norms == 0.0] = 1.0
        try:
            gamma, *_ = np.linalg.lstsq(dR / norms, r, rcond=_LSTSQ_RCOND)
            gamma /= norms
            solved = bool(np.all(np.isfinite(gamma)))
        except np.linalg.LinAlgError:
            solved = False
        if not solved:
            self._x, self._g = self._x[-1:], self._g[-1:]
            return gx.copy()
        G = np.stack(self._g, axis=1)
        return gx - (G[:, 1:] - G[:, :-1]) @ gamma


@pytest.mark.parametrize("memory", [0, 1, 5, 20])
@pytest.mark.parametrize("n", [7, 1152])
def test_incremental_differences_propose_what_restacking_proposes(memory, n):
    # 60 pairs with shrinking residuals overflow every memory; pair 25 repeats
    # pair 24 (a zero difference column), pair 30 jumps 1e3 above the
    # smallest residual (the 100x reset), and both mixers are reset before
    # pair 45. Every proposal must agree bit for bit.
    rng = np.random.default_rng(memory + n)
    new, ref = AndersonAccelerator(memory), RestackingAnderson(memory)
    x = rng.uniform(1.0, 2.0, n)
    for k in range(60):
        if k == 45:
            new.reset()
            ref.reset()
        if k != 25:
            scale = 1.0e3 if k == 30 else 0.7**k
            gx = x + scale * rng.normal(size=n)
        proposed = new.propose(x, gx)
        np.testing.assert_array_equal(proposed, ref.propose(x, gx))
        if k in (29, 30):
            # full memory just before the jump, one pair right after it
            assert len(ref._x) == (memory + 1 if k == 29 else 1)
        if k != 24:
            x = proposed + 0.1 * rng.normal(size=n)
