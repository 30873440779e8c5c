"""Saddlepoint density approximations and Lugannani-Rice tail probabilities.

For an EDM with unit variance function V and unit deviance d, the
saddlepoint density is ``[2 pi tau V(y)]^(-1/2) exp(-d(y; mu)/(2 tau))``,
exact for the normal family and asymptotically exact as tau -> 0.  The
renormalized variant divides by its own integral, the normalizer of the
proper dispersion model with carrier ``[2 pi tau V(y)]^(-1/2)``.  Tail
areas use the Lugannani-Rice formula built from the standardized deviance
residual r and dual score residual u.  Its correction 1/r - 1/u, a 0/0 at
y = mu, is its limit from the third cumulant within ``sqrt(d) < _R_LIMIT``
of the mean; the deviance is accurate there, so no blend is needed.  The
mean of n observations lies in the same family at dispersion tau/n (the
reproductive property), so its tail area is the same formula at tau/n:
:func:`lugannani_rice` holds it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _elementary as el, edm
from .deviance import UnitDeviance, VarianceFunction, eval_deviance
from .edm import EdmFamily
from .errors import DomainError, NumericalError, refuses_numerical_failure
from .pdm import pdm_normalizer

__all__ = [
    "SaddlepointResult",
    "saddlepoint_density",
    "renormalized_saddlepoint",
    "lugannani_rice",
    "lugannani_rice_cdf",
    "sample_mean_cdf",
]

# the edm layer undecorated: the refusal rule is paid once, and names the saddlepoint call
_mean_value, _edm_deviance, _inverse_mean, _variance_function, _cumulant = (
    f.__wrapped__ for f in (edm.mean_value, edm.edm_deviance, edm.inverse_mean, edm.variance_function, edm.cumulant))

# sqrt(d) below which the Lugannani-Rice correction is its limit at y = mu:
# there 1/r - 1/u loses digits to cancellation and the limit is off by O(r)
_R_LIMIT = 1e-5


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


def _saddlepoint_value(dev, v, tau: float):
    """``[2 pi tau V]^(-1/2) exp(-d/(2 tau))`` from the deviance d and the variance V at y (floats or ndarrays)."""
    return el.exp(-dev / (2.0 * tau)) / el.sqrt(2.0 * math.pi * tau * v)


@refuses_numerical_failure
def saddlepoint_density(fam: EdmFamily, y: float, theta: float, tau: float) -> SaddlepointResult:
    """Saddlepoint density ``[2 pi tau V(y)]^(-1/2) exp(-d(y; mu)/(2 tau))``.

    The saddle field is ``(q(y) - theta)/tau``.  Boundary observations
    (where V degenerates) are rejected.
    """
    fam.support.interior().require(y, "y")
    fam.theta_domain.require(theta, "theta")
    fam.dispersion_domain.require(tau, "tau")
    mu = _mean_value(fam, theta)
    value = _saddlepoint_value(_edm_deviance(fam, y, mu), _variance_function(fam, y), tau)
    return SaddlepointResult(value=value, saddle=(_inverse_mean(fam, y) - theta) / tau)


@refuses_numerical_failure
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
    (adaptive quadrature, or lattice summation for discrete supports), which calls the carrier on
    arrays of nodes.  Boundary observations, where V degenerates, carry no mass.  ``y`` may be an
    ndarray, each entry as its float call, except that a boundary entry is refused (``DomainError``).
    """
    if not d.regular:
        raise DomainError(f"deviance {d.name} is not regular; saddlepoint undefined")

    def carrier(x: np.ndarray) -> np.ndarray:
        inside = V.domain.contains(x)  # a boundary node: 0
        value = np.zeros(x.shape)
        value[inside] = (2.0 * math.pi * tau * el.call(V.fn, x[inside])) ** -0.5
        return value

    a0 = pdm_normalizer(d, carrier, tau, mu)
    try:
        value = a0 * _saddlepoint_value(eval_deviance(d, y, mu), V(y), tau)
    except (DomainError, NumericalError):
        if isinstance(y, np.ndarray):
            raise
        value = 0.0
    return SaddlepointResult(value=value, saddle=None, renormalized=True)


@refuses_numerical_failure
def lugannani_rice(fam: EdmFamily, y: float, theta: float, tau: float, n: int = 1) -> SaddlepointResult:
    """Lugannani-Rice tail probability ``Phi(r) + phi(r) (1/r - 1/u)`` of the mean of n draws.

    The residuals are standardized at dispersion tau/n:
    ``r = sgn(y - mu) sqrt(n d(y; mu) / tau)`` is the deviance residual and
    ``u = sqrt(n / tau) sqrt(V(y)) (q(y) - theta)`` the dual score residual
    (dd/dy = 2 (q(y) - q(mu))).  ``saddle`` is ``t(y) = (q(y) - theta)/tau``,
    the root of K'(t) = y for one observation.  The correction is
    ``1/r - 1/u`` where ``sqrt(d) >= 1e-5``.  Closer to the mean, where it
    is a 0/0, it is its limit ``sqrt(tau/n) kappa_3 / (6 V(mu)^(3/2))``,
    with ``kappa_3 = b'''(theta)`` and ``V(mu) = b''(theta)``.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    fam.support.interior().require(y, "y")
    fam.theta_domain.require(theta, "theta")
    fam.dispersion_domain.require(tau, "tau")
    mu = _mean_value(fam, theta)
    scale = math.sqrt(n / tau)
    r_dev = math.copysign(math.sqrt(_edm_deviance(fam, y, mu)), y - mu)
    q_gap = _inverse_mean(fam, y) - theta
    r = scale * r_dev
    u = scale * math.sqrt(_variance_function(fam, y)) * q_gap
    if abs(r_dev) >= _R_LIMIT:
        correction = 1.0 / r - 1.0 / u
    else:
        v_mu = _cumulant(fam, 2, theta, 1.0)
        correction = _cumulant(fam, 3, theta, 1.0) / (6.0 * v_mu * math.sqrt(v_mu) * scale)
    value = float(el.special.ndtr(r)) + math.exp(-0.5 * r * r) / math.sqrt(2.0 * math.pi) * correction
    # a nan value (r = inf * 0 where sqrt(n/tau) overflows at y = mu) passes the clamp and is refused
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
