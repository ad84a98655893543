"""Material physics: Planckian group emission, group opacities, and the
material energy balance.

Units are cm / ns / KeV / Jerk throughout. The group Planckian is reduced
with the dimensionless substitution x = nu/T:

    B_g(T) = (a c T^4 / 4 pi) * [Phi(x_g) - Phi(x_{g-1})] / Phi(inf)

where Phi(z) = int_0^z x^3/(e^x - 1) dx and Phi(inf) = pi^4/15. Phi is
evaluated by a pair of machine-precision series: a Bernoulli power series
below z = 1 and, above it, the tail series scaled by e^z,
S(z) = e^z (Phi(inf) - Phi(z)) = sum_k e^{-(k-1) z} p(k z) / k^4 with
p(y) = y^3 + 3y^2 + 6y + 6. Term k is formed only where (k-1) z < 40, so
an edge at z >= 40 takes the first term alone and no term is subnormal.
The summed emission identity sum_g 4 pi B_g = a c T^4 holds to roundoff
whenever the last group edge covers the spectrum. The benchmark material
has spectral opacity kappa_nu = chi / nu^3 * (1 - e^{-nu/T}); its
Planck-weighted group mean collapses analytically because kappa_nu B_nu is
proportional to e^{-nu/T}.

A group evaluation is one pass over the (G+1) x cells edge array: e^{-x}
once per edge and e^{-dx} once per group supply every exponential the
reductions use, the power series runs only on edges with 0 < x <= 1 (none
once T is below the first finite edge, 0.7075 KeV on the benchmark grid),
and the opacity and Planck reductions share psi1 - psi0 and T^3.
Those two exponentials are evaluated only where the argument is below
746 and set to zero beyond: from 1075 ln 2 = 745.13 on, e^{-y} is below
half the smallest subnormal, 2^-1075, and rounds to exactly zero, so the
cutoff changes no bit, while the underflow path of exp costs up to nine
times a normal evaluation (17 against 1.9 ns an entry on a 2-core Xeon
VM). Cold cells put most edges past it: averaged over the evaluations
of each benchmark march (seed 0), 59-65 % of the edge arguments x and
26-37 % of the group widths dx lie beyond 746.

Temperatures below grid.T_FLOOR are clamped inside the group evaluations,
and build_frequency_grid refuses a last edge whose x at T_FLOOR would
overflow x^4, so no edge term overflows however cold T is;
non-positive and non-finite (nan, inf) temperatures raise ValueError, and
so does a nan frequency or Planck-integral argument (planck_integral(inf)
is Phi(inf)).

The physics is one model with fixed constants: every module reads c and a
from DEFAULT_CONSTANTS, and only the material protocol
emission_terms(T, constants) takes them as an argument. The material
Newton stops by NEWTON_TOL, unless its caller passes a looser tol, and
NEWTON_MAX_ITER, both read at call time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from .errors import ConvergenceError
from .grid import T_FLOOR, FrequencyGrid

PLANCK_INTEGRAL_TOTAL = np.pi**4 / 15.0

# Power-series coefficients of Phi(z) about z = 0:
#   Phi(z) = z^3/3 - z^4/8 + sum_k B_{2k} z^{2k+3} / ((2k+3) (2k)!)
# from the exact Bernoulli numbers B_2 .. B_20, each coefficient rounded once.
_BERNOULLI_EVEN = tuple(
    Fraction(n, d)
    for n, d in ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510), (43867, 798), (-174611, 330))
)
_POWER_COEF = np.array([float(b / ((2 * k + 3) * factorial(2 * k))) for k, b in enumerate(_BERNOULLI_EVEN, start=1)])
_TAIL_CUT = 40.0  # tail term k is kept where (k-1) z < 40; e^{-40} ~ 4e-18
# From z = 50 on, e^{-z} S(z) < 3e-17 is below half an ulp of Phi(inf), so
# Phi(z) rounds to Phi(inf); planck_integral returns it without the tail.
_PHI_FULL = 50.0
_EXP_ZERO = 746.0  # e^{-y} is exactly zero from here on (module docstring)

#: Relative change at which the per-cell material Newton stops.
NEWTON_TOL = 1.0e-10
NEWTON_MAX_ITER = 200


@dataclass(frozen=True)
class PhysicalConstants:
    """Speed of light [cm/ns] and radiation constant [Jerk/(cm^3 KeV^4)]."""

    c: float = 29.9792458
    a_rad: float = 0.01372


DEFAULT_CONSTANTS = PhysicalConstants()


def planck_integral(z):
    """Cumulative dimensionless Planck integral Phi(z) = int_0^z x^3/(e^x-1) dx.

    Vectorized; relative accuracy ~1e-15 for all z >= 0, z = inf included
    (Phi(inf) = pi^4/15). A nan or negative z raises ValueError.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(z >= 0.0):
        raise ValueError("planck_integral requires z >= 0, not nan or negative")
    out = np.full(z.shape, PLANCK_INTEGRAL_TOTAL)
    small = z <= 1.0
    out[small] = _power_series(z[small])
    tail = ~small & (z < _PHI_FULL)
    zb = z[tail]
    out[tail] = PLANCK_INTEGRAL_TOTAL - np.exp(-zb) * _tail_exp(zb)
    return out if out.ndim else float(out)


def spectral_opacity(nu, T, coefficient: float = 27.0):
    """Spectral opacity chi/nu^3 * (1 - e^{-nu/T}) [1/cm]; nu, T in KeV.

    nu = inf gives the limit 0; a nan nu and a nan or infinite T raise
    ValueError.
    """
    nu = np.asarray(nu, dtype=float)
    T = np.asarray(T, dtype=float)
    if not (np.all(nu > 0.0) and np.all((T > 0.0) & (T < np.inf))):
        raise ValueError("spectral_opacity requires nu > 0 and a finite T > 0")
    out = coefficient / nu**3 * (-np.expm1(-nu / T))
    return out if out.ndim else float(out)


class _GroupTerms:
    """Shared per-evaluation quantities for all group reductions at one T.

    Works on the edges x = nu_edge / T, shape (G+1,) + T.shape, and does the
    series work once per edge: neighbouring groups share an edge, so group
    quantities are differences of edge values. Group integrals of the Planck
    weight are carried in a scaled form dphi * e^{-shift} so that ratios
    (opacity) stay accurate when the weight underflows:

    - low groups (x0 <= 1), shift = 0: dphi = Phi(x1) - Phi(x0), with
      psi(x) = x^4/(e^x - 1) at both edges;
    - high groups, shift = x0: with S(x) and P(x) = x^4/(1 - e^{-x}) at
      every edge above 1, dphi = S(x0) - e^{-dx} S(x1), psi0 = P(x0) and
      psi1 = e^{-dx} P(x1). The factor e^{-dx} is at most one, so nothing
      overflows, and far out on the tail it underflows to zero.

    One pass forms e^{-x} at every edge and e^{-dx} per group; every other
    exponential is read from them: e^{-x} on the rim (the first edge above
    1, where a low group's upper edge unscales S and P), Planck's scale
    e^{-shift} and opacity's numerator scale e^{-(x0 - shift)}. The power
    series and psi run only on the edges with 0 < x <= 1 (x = 0 contributes
    zero to both), and not at all when there are none. psi1 - psi0 and T^3
    are formed once and read by both reductions.
    """

    def __init__(self, T: np.ndarray, fgrid: FrequencyGrid):
        T = np.asarray(T, dtype=float)
        if not np.all((T > 0.0) & (T < np.inf)):
            raise ValueError("group evaluations require a finite T > 0")
        self.T = np.maximum(T, T_FLOOR)
        self.T3 = self.T**3
        x = fgrid.bounds.reshape((-1,) + (1,) * self.T.ndim) / self.T  # (G+1,) + T.shape
        self.x0 = x[:-1]
        self.x1 = x[1:]
        self.dx = self.x1 - self.x0
        self.edx = edx = _exp_neg(self.dx)
        ex = _exp_neg(x)

        # Scaled edge values wherever x > 1, which covers every high group's edges.
        big = x > 1.0
        low = ~big[:-1]
        xb = x[big]
        S = np.zeros(x.shape)
        P = np.zeros(x.shape)
        S[big] = _tail_exp(xb)
        P[big] = xb**4 / -np.expm1(-xb)

        # Unscaled Phi and psi on the low groups' edges: the power series on
        # 0 < x <= 1, then the scaled values times e^{-x} on the rim. The
        # edges ascend from nu = 0, so edge i > 0 bounds a low group exactly
        # when edge i - 1 is <= 1.
        phi = np.zeros(x.shape)
        psi = np.zeros(x.shape)
        series = ~big & (x > 0.0)
        if series.any():
            xs = x[series]
            phi[series] = _power_series(xs)
            psi[series] = xs**4 / np.expm1(xs)
        rim = np.zeros(x.shape, dtype=bool)
        rim[1:] = big[1:] & low
        e = ex[rim]
        phi[rim] = PLANCK_INTEGRAL_TOTAL - e * S[rim]
        psi[rim] = e * P[rim]

        self.dphi = np.where(low, phi[1:] - phi[:-1], S[:-1] - edx * S[1:])  # Delta Phi_g * e^{shift}
        # psi1 - psi0, with psi = x^4/(e^x - 1) * e^{shift} at the group edges
        self.dpsi = np.where(low, psi[1:] - psi[:-1], edx * P[1:] - P[:-1])
        self.scale = np.where(low, 1.0, ex[:-1])  # e^{-shift}
        self.num_scale = np.where(low, ex[:-1], 1.0)  # e^{-(x0 - shift)}

    def planck(self, constants: PhysicalConstants):
        """(B_g, dB_g/dT), each shaped (G,) + T.shape [Jerk/(cm^2 ns sr)]."""
        amp = constants.a_rad * constants.c / (4.0 * np.pi * PLANCK_INTEGRAL_TOTAL)
        B = amp * self.T**4 * self.dphi * self.scale
        dB = amp * self.T3 * (4.0 * self.dphi - self.dpsi) * self.scale
        return B, dB

    def opacity(self, coefficient: float):
        """(kappa_g, dkappa_g/dT) for the inverse-cube spectral law.

        The Planck-weighted numerator int_g kappa_nu B_nu dnu reduces to
        chi T (e^{-x0} - e^{-x1}); the same e^{shift} scaling as dphi keeps
        the ratio finite for arbitrarily cold groups.
        """
        em = -np.expm1(-self.dx)  # 1 - e^{-dx}
        kappa = coefficient * (self.num_scale * em) / (self.T3 * self.dphi)
        # d/dT log kappa = [ (x0 - x1 e^{-dx})/(1 - e^{-dx}) - 3 + (psi1 - psi0)/dphi ] / T
        ratio_n = (self.x0 - self.x1 * self.edx) / em
        ratio_d = self.dpsi / self.dphi
        dkappa = kappa * (ratio_n - 3.0 + ratio_d) / self.T
        return kappa, dkappa


def _exp_neg(y):
    """e^{-y} of y >= 0, evaluated only where y < _EXP_ZERO and exactly zero beyond."""
    return np.exp(-y, out=np.zeros(y.shape), where=y < _EXP_ZERO)


def _power_series(z):
    """Phi(z) by its Bernoulli power series, for 0 <= z <= 1."""
    acc = np.zeros_like(z)
    z2 = z * z
    p = z2 * z2 * z  # z^5, first Bernoulli-series power
    for ck in _POWER_COEF:
        acc += ck * p
        p *= z2
    return z**3 / 3.0 - z**4 / 8.0 + acc


def _tail_exp(z):
    """S(z) = e^z int_z^inf x^3/(e^x - 1) dx for z > 1.

    Term k = m + 1 > 1 is formed only for the (m, edge) pairs with
    m z < _TAIL_CUT, m = 1 .. n on each edge, and summed per edge.
    """
    near = np.flatnonzero(z < _TAIL_CUT)
    n = (np.ceil(_TAIL_CUT / z[near]) - 1.0).astype(np.intp)
    col = np.repeat(near, n)
    m = np.arange(1.0, col.size + 1.0) - np.repeat(np.cumsum(n) - n, n)
    zc = z[col]
    k = m + 1.0
    y = k * zc
    # k <= 40, so k^4 is an exact double: squaring k^2 gives it without a pow call.
    later = np.exp(-m * zc) * (((y + 3.0) * y + 6.0) * y + 6.0) / (k * k) ** 2
    return ((z + 3.0) * z + 6.0) * z + 6.0 + np.bincount(col, later, minlength=z.size)


def group_planck(T, fgrid: FrequencyGrid):
    """Group Planckian B_g(T), shape (G,) + T.shape."""
    return _GroupTerms(np.asarray(T, float), fgrid).planck(DEFAULT_CONSTANTS)[0]


@dataclass(frozen=True)
class InverseCubeMaterial:
    """Planck-weighted group means of kappa_nu = chi/nu^3 (1 - e^{-nu/T})."""

    fgrid: FrequencyGrid
    coefficient: float = 27.0

    def __post_init__(self):
        if isinstance(self.coefficient, (bool, np.bool_)) or not 0.0 < self.coefficient < np.inf:
            raise ValueError(f"opacity coefficient must be positive and finite, got {self.coefficient}")

    def emission_terms(self, T, constants: PhysicalConstants):
        """(kappa, dkappa/dT, B, dB/dT) sharing one pass over the edges."""
        terms = _GroupTerms(np.asarray(T, float), self.fgrid)
        kappa, dkappa = terms.opacity(self.coefficient)
        B, dB = terms.planck(constants)
        return kappa, dkappa, B, dB


@dataclass(frozen=True)
class ConstantOpacity:
    """Temperature-independent group opacities (verification problems).

    values that are not a finite, non-negative (G,) array, or are bools,
    raise ValueError.
    """

    fgrid: FrequencyGrid
    values: np.ndarray  # (G,) [1/cm]

    def __post_init__(self):
        is_bool, values = np.asarray(self.values).dtype == bool, np.asarray(self.values, dtype=float)
        if is_bool or values.shape != (self.fgrid.n_groups,) or not np.all((values >= 0.0) & (values < np.inf)):
            raise ValueError(f"opacities must be a finite, non-negative ({self.fgrid.n_groups},) array, not bools, got {self.values!r}")
        object.__setattr__(self, "values", values)

    def emission_terms(self, T, constants: PhysicalConstants):
        T = np.asarray(T, float)
        kappa = np.broadcast_to(self.values.reshape((-1,) + (1,) * T.ndim), (self.values.size,) + T.shape).copy()
        B, dB = _GroupTerms(T, self.fgrid).planck(constants)
        return kappa, np.zeros_like(kappa), B, dB


@dataclass(frozen=True)
class MaterialEOS:
    """Linear energy-temperature relation eps = c_v T."""

    cv: float  # Jerk / (cm^3 KeV)

    def __post_init__(self):
        if isinstance(self.cv, (bool, np.bool_)) or not 0.0 < self.cv < np.inf:
            raise ValueError(f"c_v must be positive and finite, got {self.cv}")


def benchmark_cv(T_drive: float) -> float:
    """Benchmark heat capacity c_v = 0.5917 a T_drive^3."""
    return 0.5917 * DEFAULT_CONSTANTS.a_rad * T_drive**3


def update_temperature(
    T_prev: np.ndarray,
    E: np.ndarray,
    dt: float,
    material,
    eos: MaterialEOS,
    T_start: np.ndarray | None = None,
    terms: tuple | None = None,
    tol: float | None = None,
) -> np.ndarray:
    """Backward-Euler material energy update by per-cell Newton iteration.

    Solves c_v (T - T_prev)/dt = sum_g kappa_g(T) (c E_g - 4 pi B_g(T)) for
    each cell, fully implicit in both opacity and emission. E has shape
    (G,) + T_prev.shape. Newton steps are floored at 0.1x the current
    iterate to keep T positive. terms, the material.emission_terms tuple
    already evaluated at T_start, stands in for the first iteration's
    evaluation; the iterates are the same, one evaluation cheaper. The
    iteration stops at the first step whose largest relative change is at
    most tol (NEWTON_TOL when None; a looser tol stops earlier, with the
    last step's T) and raises ConvergenceError after NEWTON_MAX_ITER steps.
    """
    tol = NEWTON_TOL if tol is None else tol
    T = np.array(T_start if T_start is not None else T_prev, dtype=float)
    fourpi = 4.0 * np.pi
    for _ in range(NEWTON_MAX_ITER):
        kappa, dkappa, B, dB = terms if terms is not None else material.emission_terms(T, DEFAULT_CONSTANTS)
        terms = None
        gap = DEFAULT_CONSTANTS.c * E - fourpi * B
        f = eos.cv * (T - T_prev) / dt - np.sum(kappa * gap, axis=0)
        fp = eos.cv / dt - np.sum(dkappa * gap - fourpi * kappa * dB, axis=0)
        # A non-positive slope only occurs far from the root; relax instead.
        fp = np.where(fp > 0.0, fp, eos.cv / dt)
        T_new = np.maximum(T - f / fp, 0.1 * T)
        change = np.max(np.abs(T_new - T) / np.abs(T_new))
        T = T_new
        if change <= tol:
            return T
    raise ConvergenceError("material energy Newton iteration did not converge", residual=float(change))
