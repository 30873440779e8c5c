"""Saddlepoint density approximations and Lugannani-Rice tail probabilities.

For an EDM with unit variance function V and unit deviance d, the
saddlepoint density is ``[2 pi tau V(y)]^(-1/2) exp(-d(y; mu)/(2 tau))``,
exact for the normal family and asymptotically exact as tau -> 0.  The
renormalized variant divides by its own integral, the normalizer of the
proper dispersion model with carrier ``[2 pi tau V(y)]^(-1/2)``.  Tail
areas use the Lugannani-Rice formula built from the standardized deviance
residual r and dual score residual u, with a series limit taking over in
the removable 0/0 singularity at y = mu.  The mean of n observations lies
in the same family at dispersion tau/n (the reproductive property), so its
tail area is the same formula at tau/n: :func:`lugannani_rice` holds it
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from scipy.special import ndtr

from . import edm
from .deviance import UnitDeviance, VarianceFunction, eval_deviance
from .edm import EdmFamily
from .errors import DomainError, NumericalError
from .pdm import pdm_normalizer

__all__ = [
    "SaddlepointResult",
    "saddlepoint_density",
    "renormalized_saddlepoint",
    "lugannani_rice",
    "lugannani_rice_cdf",
    "sample_mean_cdf",
]

# sqrt(d) below which the Lugannani-Rice correction switches to its series
# limit, with a linear blend up to 10x that radius
_R_LIMIT = 1e-5
_R_BLEND = 1e-4


@dataclass(frozen=True)
class SaddlepointResult:
    """Value of a saddlepoint-type approximation plus its diagnostics.

    ``saddle`` is the canonical-scale saddlepoint (lambda-hat or t(y));
    ``r``/``u`` the standardized residual pair of a tail area (see
    :func:`lugannani_rice`);
    ``renormalized`` marks densities divided by their own integral.
    """

    value: float
    saddle: Optional[float] = None
    r: Optional[float] = None
    u: Optional[float] = None
    renormalized: bool = False


def _saddlepoint_value(dev: float, v: float, tau: float) -> float:
    """``[2 pi tau V]^(-1/2) exp(-d/(2 tau))`` from the deviance d and the variance V at y."""
    return math.exp(-dev / (2.0 * tau)) / math.sqrt(2.0 * math.pi * tau * v)


def saddlepoint_density(fam: EdmFamily, y: float, theta: float, tau: float) -> SaddlepointResult:
    """Saddlepoint density ``[2 pi tau V(y)]^(-1/2) exp(-d(y; mu)/(2 tau))``.

    The saddle field is ``(q(y) - theta)/tau``.  Boundary observations
    (where V degenerates) are rejected.
    """
    fam.support.interior().require(y, "y")
    fam.theta_domain.require(theta, "theta")
    fam.dispersion_domain.require(tau, "tau")
    mu = edm.mean_value(fam, theta)
    value = _saddlepoint_value(edm.edm_deviance(fam, y, mu), edm.variance_function(fam, y), tau)
    saddle = (edm.inverse_mean(fam, y) - theta) / tau
    return SaddlepointResult(value=value, saddle=saddle)


def renormalized_saddlepoint(
    d: UnitDeviance,
    V: VarianceFunction,
    y: float,
    mu: float,
    tau: float,
) -> SaddlepointResult:
    """Renormalized saddlepoint density ``q0 = q * a0(mu, tau)``.

    ``a0(mu, tau) = 1 / integral_C q(x; mu, tau) nu(dx)`` is the normalizer of the proper
    dispersion model with carrier ``[2 pi tau V(x)]^(-1/2)``, from :func:`pdm.pdm_normalizer`
    (adaptive quadrature, or lattice summation for discrete supports).  Boundary observations,
    where V degenerates, carry no mass.
    """
    if not d.regular:
        raise DomainError(f"deviance {d.name} is not regular; saddlepoint undefined")
    a0 = pdm_normalizer(d, lambda x: _saddlepoint_value(0.0, V(x), tau), tau, d.support, mu)
    try:
        value = a0 * _saddlepoint_value(eval_deviance(d, y, mu), V(y), tau)
    except (DomainError, NumericalError):
        value = 0.0
    return SaddlepointResult(value=value, saddle=None, renormalized=True)


def lugannani_rice(fam: EdmFamily, y: float, theta: float, tau: float, n: int = 1) -> SaddlepointResult:
    """Lugannani-Rice tail probability ``Phi(r) + phi(r) (1/r - 1/u)`` of the mean of n draws.

    The residuals are standardized at dispersion tau/n:
    ``r = sgn(y - mu) sqrt(n d(y; mu) / tau)`` is the deviance residual and
    ``u = sqrt(n / tau) sqrt(V(y)) (q(y) - theta)`` the dual score residual
    (dd/dy = 2 (q(y) - q(mu))).  ``saddle`` is ``t(y) = (q(y) - theta)/tau``,
    the root of K'(t) = y for one observation.  Within ``sqrt(d) < 1e-5`` of
    the mean the 0/0 correction is replaced by its series limit
    ``sqrt(tau/n) V'(mu) / (6 sqrt(V(mu)))``, blending linearly out to
    ``sqrt(d) = 1e-4``.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    fam.support.interior().require(y, "y")
    fam.theta_domain.require(theta, "theta")
    fam.dispersion_domain.require(tau, "tau")
    mu = edm.mean_value(fam, theta)
    scale = math.sqrt(n / tau)
    r_dev = math.copysign(math.sqrt(edm.edm_deviance(fam, y, mu)), y - mu)
    q_gap = edm.inverse_mean(fam, y) - theta
    r = scale * r_dev
    u = scale * math.sqrt(edm.variance_function(fam, y)) * q_gap
    abs_r = abs(r_dev)
    if abs_r >= _R_BLEND:
        correction = 1.0 / r - 1.0 / u
    else:
        limit = edm.variance_prime(fam, mu) / (6.0 * math.sqrt(edm.variance_function(fam, mu)))
        limit /= scale
        if abs_r <= _R_LIMIT:
            correction = limit
        else:
            w = (abs_r - _R_LIMIT) / (_R_BLEND - _R_LIMIT)
            correction = w * (1.0 / r - 1.0 / u) + (1.0 - w) * limit
    value = float(ndtr(r)) + math.exp(-0.5 * r * r) / math.sqrt(2.0 * math.pi) * correction
    return SaddlepointResult(value=min(max(value, 0.0), 1.0), saddle=q_gap / tau, r=r, u=u)


def lugannani_rice_cdf(fam: EdmFamily, y: float, theta: float, tau: float) -> float:
    """Lugannani-Rice tail probability of one observation (see :func:`lugannani_rice`)."""
    return lugannani_rice(fam, y, theta, tau).value


def sample_mean_cdf(fam: EdmFamily, y: float, theta: float, tau: float, n: int) -> float:
    """Lugannani-Rice tail probability of the mean of n iid observations.

    The mean is EDM(theta, tau/n), so this is the single-observation
    formula at dispersion tau/n (see :func:`lugannani_rice`).
    """
    return lugannani_rice(fam, y, theta, tau, n).value
