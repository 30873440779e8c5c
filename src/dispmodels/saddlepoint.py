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
:func:`lugannani_rice` holds it once.  As everywhere, a public function
checks its arguments once, here and in :func:`_checked_mean`, and evaluates
the private formulas of ``edm`` (d, q and V = b'' o q) on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _elementary as el
from .deviance import UnitDeviance, VarianceFunction, eval_deviance
from .edm import EdmFamily, _deviance, _inverse_mean, _variance_at
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

# sqrt(d) below which the Lugannani-Rice correction is its limit at y = mu:
# there 1/r - 1/u loses digits to cancellation and the limit is off by O(r)
_R_LIMIT = 1e-5


@dataclass(frozen=True, init=False)
class SaddlepointResult:
    """Value of a saddlepoint-type approximation plus its diagnostics.

    ``saddle`` is the canonical-scale saddlepoint (lambda-hat or t(y));
    ``r``/``u`` the standardized residual pair of a tail area (see
    :func:`lugannani_rice`);
    ``renormalized`` marks densities divided by their own integral.
    ``__init__`` fills the fields in one update of the instance dict, not in
    one ``object.__setattr__`` each: that halves the cost of a result.
    """

    value: float
    saddle: Optional[float] = None
    r: Optional[float] = None
    u: Optional[float] = None
    renormalized: bool = False

    def __init__(self, value: float, saddle: Optional[float] = None, r: Optional[float] = None,
                 u: Optional[float] = None, renormalized: bool = False):
        self.__dict__.update(value=value, saddle=saddle, r=r, u=u, renormalized=renormalized)


def _saddlepoint_value(dev, v, tau: float):
    """``[2 pi tau V]^(-1/2) exp(-d/(2 tau))`` from the deviance d and the variance V at y (floats or ndarrays)."""
    return el.exp(-dev / (2.0 * tau)) / el.sqrt(2.0 * math.pi * tau * v)


def _checked_mean(fam: EdmFamily, y: float, theta: float, tau: float) -> float:
    """The mean b'(theta) of a pointwise approximation, after one check of each argument and of the mean:
    y inside the support (and in the mean domain, which a steep family implies), theta inside its domain,
    tau in the dispersion domain, and b'(theta) in the mean domain (an overflow to inf is refused)."""
    fam.support.interior().require(y, "y")
    if not fam.steep:
        fam.mean_domain.require(y, "y")
    fam.theta_domain.interior().require(theta, "theta")
    fam.dispersion_domain.require(tau, "tau")
    return fam.mean_domain.require(fam._b_derivative(1, theta), "mu")


@refuses_numerical_failure
def saddlepoint_density(fam: EdmFamily, y: float, theta: float, tau: float) -> SaddlepointResult:
    """Saddlepoint density ``[2 pi tau V(y)]^(-1/2) exp(-d(y; mu)/(2 tau))``.

    The saddle field is ``(q(y) - theta)/tau``.  Boundary observations
    (where V degenerates) are rejected.
    """
    mu = _checked_mean(fam, y, theta, tau)
    dev, q_y = _deviance(fam, y, mu), _inverse_mean(fam, y)
    return SaddlepointResult(_saddlepoint_value(dev, _variance_at(fam, q_y), tau), (q_y - theta) / tau)


@refuses_numerical_failure
def renormalized_saddlepoint(d: UnitDeviance, V: VarianceFunction, y: float, mu: float,
                             tau: float) -> SaddlepointResult:
    """Renormalized saddlepoint density ``q0 = q * a0(mu, tau)``.

    ``a0(mu, tau) = 1 / integral_C q(x; mu, tau) nu(dx)`` is the normalizer of the proper
    dispersion model with carrier ``[2 pi tau V(x)]^(-1/2)``, from :func:`pdm.pdm_normalizer`
    (adaptive quadrature, or lattice summation for discrete supports), which calls the carrier on
    arrays of nodes.  An EDM's deviance carries its unit variance, so the integral is sized from
    the spread ``sqrt(tau V(mu))`` (see ``_numdiff``).  Boundary observations, where V
    degenerates, carry no mass.  ``y`` may be an ndarray, each entry as its float call, except
    that a boundary entry is refused (``DomainError``).
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
    with ``kappa_3 = b'''(theta)`` and ``V(mu) = b''(theta)``.  The mean of n draws needs a
    whole n >= 1.
    """
    if not (n >= 1 and float(n).is_integer()):  # nan and inf too
        raise DomainError(f"n must be a whole number >= 1, got {n}")
    mu = _checked_mean(fam, y, theta, tau)
    scale = math.sqrt(n / tau)
    r_dev = math.copysign(math.sqrt(_deviance(fam, y, mu)), y - mu)
    q_y = _inverse_mean(fam, y)
    q_gap = q_y - theta
    r = scale * r_dev
    u = scale * math.sqrt(_variance_at(fam, q_y)) * q_gap
    if abs(r_dev) >= _R_LIMIT:
        correction = 1.0 / r - 1.0 / u
    else:
        v_mu = fam._b_derivative(2, theta)
        correction = fam._b_derivative(3, theta) / (6.0 * v_mu * math.sqrt(v_mu) * scale)
    value = float(el.special.ndtr(r)) + math.exp(-0.5 * r * r) / math.sqrt(2.0 * math.pi) * correction
    # a nan value (r = inf * 0 where sqrt(n/tau) overflows at y = mu) passes the clamp and is refused
    return SaddlepointResult(min(max(value, 0.0), 1.0), q_gap / tau, r, u)


def lugannani_rice_cdf(fam: EdmFamily, y: float, theta: float, tau: float) -> float:
    """Lugannani-Rice tail probability of one observation (see :func:`lugannani_rice`)."""
    return lugannani_rice(fam, y, theta, tau).value


def sample_mean_cdf(fam: EdmFamily, y: float, theta: float, tau: float, n: int) -> float:
    """Lugannani-Rice tail probability of the mean of n iid observations.

    The mean is EDM(theta, tau/n), so this is the single-observation
    formula at dispersion tau/n (see :func:`lugannani_rice`).
    """
    return lugannani_rice(fam, y, theta, tau, n).value
