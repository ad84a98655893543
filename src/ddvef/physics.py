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

Temperatures below T_FLOOR are clamped inside the group evaluations;
non-positive inputs raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
from scipy.special import bernoulli

from .errors import ConvergenceError
from .grid import FrequencyGrid

T_FLOOR = 1.0e-6  # KeV; cold-start temperatures sit well above this

PLANCK_INTEGRAL_TOTAL = np.pi**4 / 15.0

# Power-series coefficients of Phi(z) about z = 0:
#   Phi(z) = z^3/3 - z^4/8 + sum_k B_{2k} z^{2k+3} / ((2k+3) (2k)!)
_BERN = bernoulli(20)
_POWER_COEF = np.array([_BERN[2 * k] / ((2 * k + 3) * factorial(2 * k)) for k in range(1, 11)])
_TAIL_CUT = 40.0  # tail term k is kept where (k-1) z < 40; e^{-40} ~ 4e-18


@dataclass(frozen=True)
class PhysicalConstants:
    """Speed of light [cm/ns] and radiation constant [Jerk/(cm^3 KeV^4)]."""

    c: float = 29.9792458
    a_rad: float = 0.01372


DEFAULT_CONSTANTS = PhysicalConstants()


def planck_integral(z):
    """Cumulative dimensionless Planck integral Phi(z) = int_0^z x^3/(e^x-1) dx.

    Vectorized; relative accuracy ~1e-15 for all z >= 0.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise ValueError("planck_integral requires z >= 0")
    out = np.empty(z.shape)
    small = z <= 1.0
    out[small] = _power_series(z[small])
    zb = z[~small]
    out[~small] = PLANCK_INTEGRAL_TOTAL - np.exp(-zb) * _tail_exp(zb)
    return out if out.ndim else float(out)


def spectral_opacity(nu, T, coefficient: float = 27.0):
    """Spectral opacity chi/nu^3 * (1 - e^{-nu/T}) [1/cm]; nu, T in KeV."""
    nu = np.asarray(nu, dtype=float)
    T = np.asarray(T, dtype=float)
    if np.any(nu <= 0.0) or np.any(T <= 0.0):
        raise ValueError("spectral_opacity requires nu > 0 and T > 0")
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
    """

    def __init__(self, T: np.ndarray, fgrid: FrequencyGrid):
        T = np.asarray(T, dtype=float)
        if np.any(T <= 0.0):
            raise ValueError("group evaluations require T > 0")
        self.T = np.maximum(T, T_FLOOR)
        x = fgrid.bounds.reshape((-1,) + (1,) * self.T.ndim) / self.T  # (G+1,) + T.shape
        self.x0 = x[:-1]
        self.x1 = x[1:]
        self.dx = self.x1 - self.x0
        self.edx = edx = np.exp(-self.dx)
        self.low = low = self.x0 <= 1.0
        self.shift = np.where(low, 0.0, self.x0)

        # Scaled edge values wherever x > 1, which covers every high group's edges.
        big = x > 1.0
        xb = x[big]
        S = np.zeros(x.shape)
        P = np.zeros(x.shape)
        S[big] = _tail_exp(xb)
        P[big] = xb**4 / -np.expm1(-xb)

        # Unscaled Phi and psi on the low groups' edges: the power series up
        # to x = 1, then the scaled values times e^{-x} on the edge above it.
        # The edges ascend from nu = 0, so edge i > 0 bounds a low group
        # exactly when edge i - 1 is <= 1.
        phi = np.zeros(x.shape)
        psi = np.zeros(x.shape)
        xs = x[~big]
        phi[~big] = _power_series(xs)
        psi[~big] = np.divide(xs**4, np.expm1(xs), out=np.zeros(xs.shape), where=xs > 0.0)
        rim = big & (np.concatenate([x[:1], x[:-1]]) <= 1.0)
        e = np.exp(-x[rim])
        phi[rim] = PLANCK_INTEGRAL_TOTAL - e * S[rim]
        psi[rim] = e * P[rim]

        self.dphi = np.where(low, phi[1:] - phi[:-1], S[:-1] - edx * S[1:])  # Delta Phi_g * e^{shift}
        self.psi0 = np.where(low, psi[:-1], P[:-1])  # x^4/(e^x - 1) * e^{shift} at the group edges
        self.psi1 = np.where(low, psi[1:], edx * P[1:])

    def planck(self, constants: PhysicalConstants):
        """(B_g, dB_g/dT), each shaped (G,) + T.shape [Jerk/(cm^2 ns sr)]."""
        amp = constants.a_rad * constants.c / (4.0 * np.pi * PLANCK_INTEGRAL_TOTAL)
        scale = np.exp(-self.shift)
        B = amp * self.T**4 * self.dphi * scale
        dB = amp * self.T**3 * (4.0 * self.dphi - (self.psi1 - self.psi0)) * scale
        return B, dB

    def opacity(self, coefficient: float):
        """(kappa_g, dkappa_g/dT) for the inverse-cube spectral law.

        The Planck-weighted numerator int_g kappa_nu B_nu dnu reduces to
        chi T (e^{-x0} - e^{-x1}); the same e^{shift} scaling as dphi keeps
        the ratio finite for arbitrarily cold groups.
        """
        em = -np.expm1(-self.dx)  # 1 - e^{-dx}
        num_scaled = np.exp(-(self.x0 - self.shift)) * em
        kappa = coefficient * num_scaled / (self.T**3 * self.dphi)
        # d/dT log kappa = [ (x0 - x1 e^{-dx})/(1 - e^{-dx}) - 3 + (psi1 - psi0)/dphi ] / T
        ratio_n = (self.x0 - self.x1 * self.edx) / em
        ratio_d = (self.psi1 - self.psi0) / self.dphi
        dkappa = kappa * (ratio_n - 3.0 + ratio_d) / self.T
        return kappa, dkappa


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
    y = (m + 1.0) * zc
    later = np.exp(-m * zc) * (((y + 3.0) * y + 6.0) * y + 6.0) / (m + 1.0) ** 4
    return ((z + 3.0) * z + 6.0) * z + 6.0 + np.bincount(col, later, minlength=z.size)


def group_planck(T, fgrid: FrequencyGrid, constants: PhysicalConstants = DEFAULT_CONSTANTS):
    """Group Planckian B_g(T), shape (G,) + T.shape."""
    return _GroupTerms(np.asarray(T, float), fgrid).planck(constants)[0]


def group_planck_with_derivative(T, fgrid: FrequencyGrid, constants: PhysicalConstants = DEFAULT_CONSTANTS):
    return _GroupTerms(np.asarray(T, float), fgrid).planck(constants)


@dataclass(frozen=True)
class InverseCubeMaterial:
    """Planck-weighted group means of kappa_nu = chi/nu^3 (1 - e^{-nu/T})."""

    fgrid: FrequencyGrid
    coefficient: float = 27.0

    def group_opacity(self, T) -> np.ndarray:
        return _GroupTerms(np.asarray(T, float), self.fgrid).opacity(self.coefficient)[0]

    def group_opacity_with_derivative(self, T):
        return _GroupTerms(np.asarray(T, float), self.fgrid).opacity(self.coefficient)

    def emission_terms(self, T, constants: PhysicalConstants):
        """(kappa, dkappa/dT, B, dB/dT) sharing one pass over the edges."""
        terms = _GroupTerms(np.asarray(T, float), self.fgrid)
        kappa, dkappa = terms.opacity(self.coefficient)
        B, dB = terms.planck(constants)
        return kappa, dkappa, B, dB


@dataclass(frozen=True)
class ConstantOpacity:
    """Temperature-independent group opacities (verification problems)."""

    fgrid: FrequencyGrid
    values: np.ndarray  # (G,) [1/cm]

    def group_opacity(self, T) -> np.ndarray:
        T = np.asarray(T, float)
        return np.broadcast_to(self.values.reshape((-1,) + (1,) * T.ndim), (self.values.size,) + T.shape).copy()

    def group_opacity_with_derivative(self, T):
        k = self.group_opacity(T)
        return k, np.zeros_like(k)

    def emission_terms(self, T, constants: PhysicalConstants):
        kappa, dkappa = self.group_opacity_with_derivative(T)
        B, dB = group_planck_with_derivative(T, self.fgrid, constants)
        return kappa, dkappa, B, dB


@dataclass(frozen=True)
class MaterialEOS:
    """Linear energy-temperature relation eps = c_v T."""

    cv: float  # Jerk / (cm^3 KeV)

    def __post_init__(self):
        if self.cv <= 0.0:
            raise ValueError(f"c_v must be positive, got {self.cv}")


def benchmark_cv(T_drive: float, constants: PhysicalConstants = DEFAULT_CONSTANTS, multiplier: float = 0.5917) -> float:
    """Benchmark heat capacity c_v = multiplier * a * T_drive^3."""
    return multiplier * constants.a_rad * T_drive**3


def update_temperature(
    T_prev: np.ndarray,
    E: np.ndarray,
    dt: float,
    material,
    eos: MaterialEOS,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
    T_start: np.ndarray | None = None,
    terms: tuple | None = None,
    tol: float = 1.0e-10,
    max_iter: int = 200,
) -> np.ndarray:
    """Backward-Euler material energy update by per-cell Newton iteration.

    Solves c_v (T - T_prev)/dt = sum_g kappa_g(T) (c E_g - 4 pi B_g(T)) for
    each cell, fully implicit in both opacity and emission. E has shape
    (G,) + T_prev.shape. Newton steps are floored at 0.1x the current
    iterate to keep T positive. terms, the material.emission_terms tuple
    already evaluated at T_start, stands in for the first iteration's
    evaluation; the iterates are the same, one evaluation cheaper.
    """
    T = np.array(T_start if T_start is not None else T_prev, dtype=float)
    fourpi = 4.0 * np.pi
    for _ in range(max_iter):
        kappa, dkappa, B, dB = terms if terms is not None else material.emission_terms(T, constants)
        terms = None
        gap = constants.c * E - fourpi * B
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
