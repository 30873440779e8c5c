"""Saddlepoint density approximations and Lugannani-Rice tail probabilities.

For an EDM with unit variance function V and unit deviance d, the
saddlepoint density is ``[2 pi tau V(y)]^(-1/2) exp(-d(y; mu)/(2 tau))``,
exact for the normal family and asymptotically exact as tau -> 0.  The
renormalized variant divides by its own integral.  Tail areas use the
Lugannani-Rice formula built from the deviance residual r and the dual
score residual u, with a series limit taking over in the removable 0/0
singularity at y = mu; the sample-mean variant solves the saddle equation
K'(t) = y and applies the same formula in saddle coordinates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import ndtr

from . import edm
from .deviance import UnitDeviance, VarianceFunction, eval_deviance
from .edm import EdmFamily
from .errors import ConvergenceError, DomainError, NumericalError

__all__ = [
    "SaddlepointResult",
    "saddlepoint_density",
    "renormalized_saddlepoint",
    "lugannani_rice_cdf",
    "sample_mean_cdf",
]

# |r| below which the Lugannani-Rice correction switches to its series
# limit, with a linear blend up to 10x that radius
_R_LIMIT = 1e-5
_R_BLEND = 1e-4


@dataclass(frozen=True)
class SaddlepointResult:
    """Value of a saddlepoint-type approximation plus its diagnostics.

    ``saddle`` is the canonical-scale saddlepoint (lambda-hat or t(y));
    ``r``/``u`` the residual pair when the operation defines one;
    ``renormalized`` marks densities divided by their own integral.
    """

    value: float
    saddle: Optional[float] = None
    r: Optional[float] = None
    u: Optional[float] = None
    renormalized: bool = False


def saddlepoint_density(fam: EdmFamily, y: float, theta: float, tau: float) -> SaddlepointResult:
    """Saddlepoint density ``[2 pi tau V(y)]^(-1/2) exp(-d(y; mu)/(2 tau))``.

    The saddle field is ``(q(y) - theta)/tau``.  Boundary observations
    (where V degenerates) are rejected.
    """
    fam.support.interior().require(y, "y")
    fam.theta_domain.require(theta, "theta")
    fam.dispersion_domain.require(tau, "tau")
    mu = edm.mean_value(fam, theta)
    v = edm.variance_function(fam, y)
    dev = edm.edm_deviance(fam, y, mu)
    value = math.exp(-dev / (2.0 * tau)) / math.sqrt(2.0 * math.pi * tau * v)
    saddle = (edm.inverse_mean(fam, y) - theta) / tau
    return SaddlepointResult(value=value, saddle=saddle)


def _support_integral(fn, support, lattice: bool) -> float:
    if lattice:
        total = 0.0
        k = max(0.0, support.lower if math.isfinite(support.lower) else 0.0)
        k = math.ceil(k)
        tail = 0
        while True:
            if math.isfinite(support.upper) and k > support.upper:
                break
            term = fn(float(k))
            total += term
            tail = tail + 1 if term < 1e-12 * max(total, 1e-300) else 0
            if tail >= 3 and k > 2:
                break
            k += 1
            if k > 10**7:
                raise NumericalError("lattice normalization sum did not converge")
        return total
    lo, hi = support.lower, support.upper
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, err = quad(fn, lo, hi, limit=400)
    if not math.isfinite(value) or value <= 0.0:
        raise NumericalError("saddlepoint normalization integral is not finite")
    return value


def renormalized_saddlepoint(
    d: UnitDeviance,
    V: VarianceFunction,
    y: float,
    mu: float,
    tau: float,
) -> SaddlepointResult:
    """Renormalized saddlepoint density ``q0 = q * a0(mu, tau)``.

    ``a0(mu, tau) = 1 / integral_C q(x; mu, tau) nu(dx)`` computed by
    adaptive quadrature (or lattice summation for discrete supports).
    """
    if not d.regular:
        raise DomainError(f"deviance {d.name} is not regular; saddlepoint undefined")
    d.omega.require(mu, "mu")
    if tau <= 0.0:
        raise DomainError("tau must be positive")

    def q(x: float) -> float:
        if not d.support.contains(x):
            return 0.0
        try:
            v = V(x)
            dev = eval_deviance(d, x, mu)
        except (DomainError, NumericalError):
            # boundary degeneracies (V -> 0 or undefined) carry no mass
            return 0.0
        return math.exp(-dev / (2.0 * tau)) / math.sqrt(2.0 * math.pi * tau * v)

    total = _support_integral(q, d.support, d.support.lattice)
    a0 = 1.0 / total
    return SaddlepointResult(value=q(y) * a0, saddle=None, renormalized=True)


def _lr_correction_limit(fam: EdmFamily, mu: float) -> float:
    """Series limit of (1/r - 1/u) as y -> mu: V'(mu) / (6 sqrt(V(mu)))."""
    return edm.variance_prime(fam, mu) / (6.0 * math.sqrt(edm.variance_function(fam, mu)))


def _lr_value(r_scaled: float, correction: float) -> float:
    pdf = math.exp(-0.5 * r_scaled * r_scaled) / math.sqrt(2.0 * math.pi)
    return float(ndtr(r_scaled) + pdf * correction)


def lugannani_rice_cdf(fam: EdmFamily, y: float, theta: float, tau: float) -> float:
    """Tail probability ``Phi(r/sqrt(tau)) + sqrt(tau) phi(r/sqrt(tau)) (1/r - 1/u)``.

    ``r = sgn(y - mu) sqrt(d(y; mu))`` is the deviance residual and
    ``u = (V(y)^(1/2) / 2) * dd/dy`` the dual score residual.  Within
    ``|r| < 1e-5`` of the mean the 0/0 correction is replaced by its
    series limit, blending linearly out to ``|r| = 1e-4``.
    """
    fam.support.interior().require(y, "y")
    fam.theta_domain.require(theta, "theta")
    fam.dispersion_domain.require(tau, "tau")
    mu = edm.mean_value(fam, theta)
    dev = edm.edm_deviance(fam, y, mu)
    r = math.copysign(math.sqrt(dev), y - mu)
    # dd/dy = 2 (q(y) - q(mu)), so u = sqrt(V(y)) (q(y) - theta)
    u = math.sqrt(edm.variance_function(fam, y)) * (edm.inverse_mean(fam, y) - theta)
    limit = _lr_correction_limit(fam, mu)
    abs_r = abs(r)
    if abs_r >= _R_BLEND:
        correction = 1.0 / r - 1.0 / u
    elif abs_r <= _R_LIMIT:
        correction = limit
    else:
        w = (abs_r - _R_LIMIT) / (_R_BLEND - _R_LIMIT)
        correction = w * (1.0 / r - 1.0 / u) + (1.0 - w) * limit
    value = _lr_value(r / math.sqrt(tau), math.sqrt(tau) * correction)
    return min(max(value, 0.0), 1.0)


def _solve_saddle(fam: EdmFamily, y: float, theta: float, tau: float, max_iter: int = 200) -> float:
    """Safeguarded Newton for K'(t) = y, i.e. b'(theta + tau t) = y.

    Starts at t = 0 (where K' equals the mean); K' is strictly increasing
    because b is convex, so a bisection bracket always closes.
    """

    def k_prime(t: float) -> float:
        shifted = theta + tau * t
        if not fam.theta_domain.contains(shifted):
            raise DomainError("saddle outside the canonical domain")
        return fam._b_prime(shifted)

    def k_double(t: float) -> float:
        return tau * fam._b_double_prime(theta + tau * t)

    # expand a bracket away from t=0, halving steps that leave the domain
    val0 = k_prime(0.0)
    if val0 == y:
        return 0.0
    direction = 1.0 if val0 < y else -1.0
    t_edge, step = 0.0, 1.0
    lo = hi = None
    for _ in range(300):
        candidate = t_edge + direction * step
        try:
            val = k_prime(candidate)
        except DomainError:
            step *= 0.5
            if step < 1e-300:
                raise ConvergenceError("saddle equation bracket collapsed") from None
            continue
        if (val >= y) if direction > 0 else (val <= y):
            lo, hi = (t_edge, candidate) if direction > 0 else (candidate, t_edge)
            break
        t_edge = candidate
        step *= 2.0
    if lo is None or hi is None:
        raise ConvergenceError("saddle equation bracket failed")
    t = 0.5 * (lo + hi)
    for _ in range(max_iter):
        val = k_prime(t)
        if abs(val - y) <= 1e-12 * max(1.0, abs(y)):
            return t
        if val < y:
            lo = t
        else:
            hi = t
        try:
            slope = k_double(t)
        except (DomainError, ValueError, OverflowError):
            slope = 0.0
        candidate = t + (y - val) / slope if slope > 0 else math.nan
        if not (math.isfinite(candidate) and lo < candidate < hi):
            candidate = 0.5 * (lo + hi)
        t = candidate
    raise ConvergenceError(f"saddle equation did not converge after {max_iter} iterations")


def sample_mean_cdf(fam: EdmFamily, y: float, theta: float, tau: float, n: int) -> float:
    """Lugannani-Rice tail probability of the mean of n iid observations.

    Solves ``K'(t(y)) = y`` by safeguarded Newton, then applies
    ``Phi(r) + phi(r) (1/r - 1/u)`` with
    ``r = sgn(t) sqrt(2 n [y t - K(t)])`` and ``u = t sqrt(n K''(t))``.
    At n = 1 this is algebraically the single-observation formula.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    fam.support.interior().require(y, "y")
    fam.theta_domain.require(theta, "theta")
    fam.dispersion_domain.require(tau, "tau")
    t = _solve_saddle(fam, y, theta, tau)
    k_t = edm.cgf(fam, t, theta, tau)
    k2_t = tau * fam._b_double_prime(theta + tau * t)
    # Legendre gap y t - K(t) >= 0; clamp tiny negative rounding near the mean
    gap = max(y * t - k_t, 0.0)
    r = math.copysign(math.sqrt(2.0 * n * gap), t)
    u = t * math.sqrt(n * k2_t)
    mu = edm.mean_value(fam, theta)
    limit = math.sqrt(tau / n) * _lr_correction_limit(fam, mu)
    abs_r = abs(r)
    if abs_r >= _R_BLEND:
        correction = 1.0 / r - 1.0 / u
    elif abs_r <= _R_LIMIT:
        correction = limit
    else:
        w = (abs_r - _R_LIMIT) / (_R_BLEND - _R_LIMIT)
        correction = w * (1.0 / r - 1.0 / u) + (1.0 - w) * limit
    value = _lr_value(r, correction)
    return min(max(value, 0.0), 1.0)
