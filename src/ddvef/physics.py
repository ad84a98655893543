"""Material physics: Planckian group emission, group opacities, and the
material energy balance.

Units are cm / ns / KeV / Jerk throughout. The group Planckian is reduced
with the dimensionless substitution x = nu/T:

    B_g(T) = (a c T^4 / 4 pi) * [Phi(x_g) - Phi(x_{g-1})] / Phi(inf)

where Phi(z) = int_0^z x^3/(e^x - 1) dx and Phi(inf) = pi^4/15. Phi is
evaluated by a pair of machine-precision series (Bernoulli power series below
z = 1, exponential tail series above), so the summed emission identity
sum_g 4 pi B_g = a c T^4 holds to roundoff whenever the last group edge
covers the spectrum. The benchmark material has spectral opacity
kappa_nu = chi / nu^3 * (1 - e^{-nu/T}); its Planck-weighted group mean
collapses analytically because kappa_nu B_nu is proportional to e^{-nu/T}.

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
_TAIL_TERMS = 48  # e^{-48} ~ 1e-21: tail series converged for z >= 1


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
    zs = z[small]
    acc = np.zeros_like(zs)
    z2 = zs * zs
    p = z2 * z2 * zs  # z^5, first Bernoulli-series power
    for ck in _POWER_COEF:
        acc += ck * p
        p *= z2
    out[small] = zs**3 / 3.0 - zs**4 / 8.0 + acc
    zb = z[~small]
    out[~small] = PLANCK_INTEGRAL_TOTAL - _planck_tail(zb)
    return out if out.ndim else float(out)


def _planck_tail(z):
    """int_z^inf x^3/(e^x - 1) dx for z >= 1, by the exponential series."""
    z3 = z**3
    z2 = 3.0 * z * z
    z1 = 6.0 * z
    v = np.exp(-z)
    wk = v.copy()  # e^{-k z}
    acc = np.zeros_like(z)
    for k in range(1, _TAIL_TERMS + 1):
        acc += wk * (z3 / k + z2 / k**2 + z1 / k**3 + 6.0 / k**4)
        wk = wk * v
    return acc


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

    Works on x = nu_edge / T, shape (G+1,) + T.shape. Group integrals of the
    Planck weight are carried in a scaled form dphi * e^{-shift} so that
    ratios (opacity) stay accurate when the weight underflows: shift = 0 for
    groups whose lower edge sits at x <= 1, otherwise shift = x_lower.
    """

    def __init__(self, T: np.ndarray, fgrid: FrequencyGrid):
        T = np.asarray(T, dtype=float)
        if np.any(T <= 0.0):
            raise ValueError("group evaluations require T > 0")
        self.T = np.maximum(T, T_FLOOR)
        self.fgrid = fgrid
        shape = (fgrid.n_groups + 1,) + self.T.shape
        x = (fgrid.bounds.reshape((-1,) + (1,) * self.T.ndim) / self.T).reshape(shape)
        self.x0 = x[:-1]
        self.x1 = x[1:]
        self.dx = self.x1 - self.x0
        self.low = self.x0 <= 1.0
        self._integrals()

    def _integrals(self):
        x0, x1, low = self.x0, self.x1, self.low
        dphi = np.empty(x0.shape)
        psi0 = np.empty(x0.shape)
        psi1 = np.empty(x0.shape)

        # Low groups: plain cumulative difference, scale factor 1.
        dphi[low] = planck_integral(x1[low]) - planck_integral(x0[low])
        psi0[low] = _psi(x0[low])
        psi1[low] = _psi(x1[low])

        # High groups: everything scaled by e^{x0}. Each series exponent
        # x0 - k*x is <= 0, so the terms never overflow and underflow to
        # exactly zero far out on the tail.
        hi = ~low
        a, b = x0[hi], x1[hi]
        dphi[hi] = _tail_scaled(a, a) - _tail_scaled(b, a)
        psi0[hi] = _psi_scaled(a, a)
        psi1[hi] = _psi_scaled(b, a)

        self.dphi = dphi  # Delta Phi_g * e^{shift}
        self.psi0 = psi0  # x^4/(e^x - 1) * e^{shift} at the group edges
        self.psi1 = psi1
        self.shift = np.where(low, 0.0, x0)

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
        edx = np.exp(-self.dx)
        ratio_n = (self.x0 - self.x1 * edx) / em
        ratio_d = (self.psi1 - self.psi0) / self.dphi
        dkappa = kappa * (ratio_n - 3.0 + ratio_d) / self.T
        return kappa, dkappa


def _psi(x):
    """x^4/(e^x - 1), safe at both ends."""
    with np.errstate(over="ignore"):
        e = np.expm1(x)
    out = np.where(np.isfinite(e) & (e > 0.0), x**4 / np.where(e > 0.0, e, 1.0), 0.0)
    return np.where(x == 0.0, 0.0, out)


def _psi_scaled(x, x0):
    """x^4 e^{x0} / (e^x - 1) for x >= x0 >= 1."""
    return x**4 * np.exp(x0 - x) / (-np.expm1(-x))


def _tail_scaled(x, x0):
    """e^{x0} * int_x^inf x'^3/(e^x'-1) dx' for x >= x0 >= 1."""
    x3 = x**3
    x2 = 3.0 * x * x
    x1 = 6.0 * x
    u = np.exp(x0 - x)   # k = 1 factor
    v = np.exp(-x)       # per-k decrement
    acc = np.zeros_like(x)
    for k in range(1, _TAIL_TERMS + 1):
        acc += u * (x3 / k + x2 / k**2 + x1 / k**3 + 6.0 / k**4)
        u = u * v
    return acc


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

    def energy(self, T):
        T = np.asarray(T, dtype=float)
        if np.any(T <= 0.0):
            raise ValueError("material energy requires T > 0")
        out = self.cv * T
        return out if out.ndim else float(out)

    def temperature(self, eps):
        eps = np.asarray(eps, dtype=float)
        if np.any(eps <= 0.0):
            raise ValueError("material temperature requires eps > 0")
        out = eps / self.cv
        return out if out.ndim else float(out)


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
    tol: float = 1.0e-10,
    max_iter: int = 200,
) -> np.ndarray:
    """Backward-Euler material energy update by per-cell Newton iteration.

    Solves c_v (T - T_prev)/dt = sum_g kappa_g(T) (c E_g - 4 pi B_g(T)) for
    each cell, fully implicit in both opacity and emission. E has shape
    (G,) + T_prev.shape. Newton steps are floored at 0.1x the current
    iterate to keep T positive.
    """
    T = np.array(T_start if T_start is not None else T_prev, dtype=float)
    fourpi = 4.0 * np.pi
    for _ in range(max_iter):
        kappa, dkappa, B, dB = material.emission_terms(T, constants)
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
