"""Exponential dispersion models built from cumulant generators.

A family is determined by a strictly convex generator ``b`` on an open
canonical domain: the cgf of a member is ``K(t) = [b(theta + tau t) -
b(theta)] / tau``, the mean is ``b'(theta)``, the variance function is
``b''`` composed with the inverse mean mapping, and the unit deviance is
``2 * integral_mu^y (y - t) / V(t) dt``.  Densities use the exact additive
normalizer ``c(y; tau)`` where one is known; otherwise the renormalized
saddlepoint approximation stands in (and the caller can see that through
``has_exact_density``).  Every built-in family has one, written once here
in closed form (the gsh one is the NEF-GHS complex log-gamma form), and
the Tweedie families reuse them at p = 0, 1, 2 and 3.

``inverse_mean``, ``variance_function``, ``edm_deviance`` and
``saturated_loglik_kernel`` take a float or an ndarray.  An array is
domain-checked once and mapped by the family's own callables in one call,
which is what lets IRLS make O(1) library calls per iteration; families
without an analytic mean inverse or closed-form deviance (JSON-config
families, quadrature deviances) are evaluated element by element.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np
from scipy.special import factorial2, gammaln, loggamma, polygamma

from . import _elementary as el
from ._numdiff import _bracketed_newton, _quad, derivative
from .errors import ConvergenceError, DomainError, NumericalError
from .expressions import compile_expression
from .support import POSITIVE_REALS, REALS, RealInterval

if TYPE_CHECKING:  # deviance imports this module; see unit_deviance_of
    from .deviance import UnitDeviance, VarianceFunction

__all__ = [
    "EdmFamily",
    "MorrisSpec",
    "cgf",
    "mean_value",
    "inverse_mean",
    "variance_function",
    "variance_prime",
    "cumulant",
    "edm_deviance",
    "density",
    "log_density",
    "saturated_loglik_kernel",
    "sample_mean_family",
    "morris_family",
    "family_from_config",
    "unit_deviance_of",
    "variance_function_of",
    "gsh_log_normalizer",
    "get_family",
    "FAMILIES",
]

_UNIT_TAU = RealInterval(1.0, 1.0, closed_lower=True, closed_upper=True)


@dataclass(frozen=True)
class EdmFamily:
    """An EDM specified by its cumulant generator and domain metadata.

    ``b_nth(order, theta)`` may return ``None`` for orders it does not
    know.  Every derivative of ``b`` that is not registered comes from
    ``_numdiff.derivative`` on ``theta_domain``: ``b'`` and ``b''`` from
    ``b``, the cumulants of order 3 to 6 from ``b''`` (or ``b``); a
    JSON-config family registers ``b`` alone.  ``exact_normalizer`` is
    the additive term ``c(y; tau)`` of the log density, on the log scale.

    ``b``, ``b_double_prime``, ``mean_inverse``, ``deviance_closed_form``
    and ``dc_dtau`` (in its ``y`` argument) must accept an ndarray as well
    as a float; the built-in families write each formula once with
    ``_elementary``, which keeps floats on ``math``.  Where
    ``mean_inverse`` or ``b_double_prime`` is ``None`` the mean inverse or
    the variance function of an array is computed element by element (a
    Newton solve, finite differences); where ``deviance_closed_form`` is
    ``None`` the deviance comes from ``b`` and the inverse mean, element by
    element.
    """

    name: str
    theta_domain: RealInterval
    b: Callable[[float], float]
    mean_domain: RealInterval
    support: RealInterval
    dispersion_domain: RealInterval
    b_prime: Optional[Callable[[float], float]] = None
    b_double_prime: Optional[Callable[[float], float]] = None
    b_nth: Optional[Callable[[int, float], Optional[float]]] = None
    exact_normalizer: Optional[Callable[[float, float], float]] = None
    dc_dtau: Optional[Callable[[float, float], float]] = None
    mean_inverse: Optional[Callable[[float], float]] = None
    deviance_closed_form: Optional[Callable[[float, float], float]] = None
    tau_mle_closed_form: Optional[Callable[[np.ndarray, float, int], float]] = None

    @property
    def has_exact_density(self) -> bool:
        return self.exact_normalizer is not None

    def _b_prime(self, theta: float) -> float:
        if self.b_prime is not None:
            return float(self.b_prime(theta))
        return derivative(self.b, theta, 1, self.theta_domain)

    def _b_double_prime(self, theta: float) -> float:
        if self.b_double_prime is not None:
            return float(self.b_double_prime(theta))
        return derivative(self.b, theta, 2, self.theta_domain)


# Each public function that takes an ndarray branches once, on entry, into
# its array form; the float path below the branch is the pointwise API.  The
# branch tests ``type(x) is not float`` first: it costs a fifth of the
# ``isinstance`` call that floats would otherwise pay for on every call.


def _float_array(value, like: np.ndarray) -> np.ndarray:
    """A callable's value on an array, as a fresh float array of ``like``'s shape
    (a constant such as the normal ``b''`` broadcasts)."""
    return np.full(like.shape, value, dtype=float)


def _elementwise(fn, *args: np.ndarray) -> np.ndarray:
    """The float routine ``fn`` applied entry by entry (the fallback path).

    Callers pass ``partial(f, fam)``, not a lambda: a closure over ``fam``
    would make every float call of the caller pay for a cell.
    """
    return np.vectorize(fn, otypes=[float])(*args)


def cgf(fam: EdmFamily, t: float, theta: float, tau: float) -> float:
    """Cumulant generating function ``K(t; theta, tau) = [b(theta + tau t) - b(theta)] / tau``."""
    fam.theta_domain.require(theta, "theta")
    fam.dispersion_domain.require(tau, "tau")
    shifted = theta + tau * t
    if not fam.theta_domain.contains(shifted):
        raise DomainError(
            f"cgf of {fam.name} does not exist at t={t}: theta + tau*t = {shifted} "
            f"outside {fam.theta_domain}"
        )
    return (fam.b(shifted) - fam.b(theta)) / tau


def mean_value(fam: EdmFamily, theta: float) -> float:
    """Mean value mapping ``mu = b'(theta)``."""
    fam.theta_domain.interior().require(theta, "theta")
    return fam._b_prime(theta)


def inverse_mean(fam: EdmFamily, mu):
    """Solve ``b'(theta) = mu`` for theta (the mapping q).

    Uses the registered analytic inverse when present, else safeguarded
    Newton with a bisection fallback, to ``|b'(theta) - mu| <= 1e-10 *
    max(1, |mu|)``.  ``mu`` may be an ndarray; the Newton fallback then
    runs once per entry.
    """
    if type(mu) is not float and isinstance(mu, np.ndarray):
        fam.mean_domain.require_all(mu, "mu")
        if fam.mean_inverse is None:
            return _elementwise(partial(inverse_mean, fam), mu)
        return _float_array(fam.mean_inverse(mu), mu)
    fam.mean_domain.require(mu, "mu")
    if fam.mean_inverse is not None:
        return float(fam.mean_inverse(mu))
    return _solve_increasing(
        fam._b_prime,
        mu,
        fam.theta_domain,
        tol=1e-10 * max(1.0, abs(mu)),
        g_prime=fam._b_double_prime,
    )


def _domain_probe(domain: RealInterval, toward_upper: bool, k: int) -> float:
    """Points marching geometrically toward one end of an open interval."""
    lo, hi = domain.lower, domain.upper
    if toward_upper:
        if math.isfinite(hi):
            ref = lo if math.isfinite(lo) else hi - 1.0
            return hi - (hi - ref) * 0.5 ** (k + 1)
        return lo + 2.0**k if math.isfinite(lo) else 2.0**k - 2.0
    if math.isfinite(lo):
        ref = hi if math.isfinite(hi) else lo + 1.0
        return lo + (ref - lo) * 0.5 ** (k + 1)
    return hi - 2.0**k if math.isfinite(hi) else 2.0 - 2.0**k


def _solve_increasing(g, target: float, domain: RealInterval, tol: float, g_prime) -> float:
    """Root of increasing ``g(x) = target`` on an open interval.

    Brackets the root by probing geometrically toward each end of the
    domain, then runs the shared safeguarded Newton, which falls back to
    bisection whenever a step leaves the bracket.
    """
    lo = hi = None
    for toward_upper in (False, True):
        for k in range(60):
            x = _domain_probe(domain, toward_upper, k)
            if not domain.contains(x):
                continue
            try:
                val = g(x)
            except (DomainError, ValueError, OverflowError, ZeroDivisionError):
                continue
            if not math.isfinite(val):
                continue
            if toward_upper and val >= target:
                hi = x
                break
            if not toward_upper and val <= target:
                lo = x
                break
    if lo is None or hi is None:
        raise ConvergenceError(f"cannot bracket the target {target} inside {domain}")

    def slope(x: float) -> float:
        # a failed or non-positive derivative makes the step a bisection
        try:
            s = g_prime(x)
        except (DomainError, ValueError, OverflowError, ZeroDivisionError):
            return 0.0
        return s if s > 0 else 0.0

    return _bracketed_newton(lambda x: g(x) - target, slope, lo, hi, tol, what="inverse mean solve")


def variance_function(fam: EdmFamily, mu):
    """Unit variance function ``V(mu) = b''(q(mu))``; ``mu`` may be an ndarray."""
    theta = inverse_mean(fam, mu)
    if type(theta) is not float and isinstance(theta, np.ndarray):
        if fam.b_double_prime is None:
            v = _elementwise(fam._b_double_prime, theta)
        else:
            v = _float_array(fam.b_double_prime(theta), theta)
        bad = ~(v > 0.0)
        if bad.any():
            raise NumericalError(f"b'' not positive at theta={theta[bad][0]} for {fam.name}")
        return v
    v = fam._b_double_prime(theta)
    if not v > 0.0:
        raise NumericalError(f"b'' not positive at theta={theta} for {fam.name}")
    return v


def variance_prime(fam: EdmFamily, mu: float) -> float:
    """Derivative of the variance function, ``V'(mu) = b'''(q(mu)) / V(mu)``.

    ``b'''`` is the third cumulant at unit dispersion: analytic where the
    family registers it, a finite difference of ``b''`` or ``b`` otherwise.
    """
    return cumulant(fam, 3, inverse_mean(fam, mu), 1.0) / variance_function(fam, mu)


def cumulant(fam: EdmFamily, r: int, theta: float, tau: float) -> float:
    """r-th cumulant ``tau^(r-1) b^(r)(theta)``.

    Orders above 2 use the registered ``b_nth`` when it knows the order.
    Otherwise ``b^(r)`` is ``derivative`` of order r - 2 of a registered
    ``b''``, or of order r of ``b``; orders above 6 without an analytic
    form are refused as numerically unstable.
    """
    if r < 1:
        raise DomainError("cumulant order must be >= 1")
    fam.theta_domain.interior().require(theta, "theta")
    fam.dispersion_domain.require(tau, "tau")
    if r == 1:
        deriv = fam._b_prime(theta)
    elif r == 2:
        deriv = fam._b_double_prime(theta)
    else:
        deriv = fam.b_nth(r, theta) if fam.b_nth is not None else None
        if deriv is None:
            if r > 6:
                raise NumericalError(
                    f"cumulant order {r} requires an analytic derivative of b for {fam.name}"
                )
            if fam.b_double_prime is not None:
                deriv = derivative(fam.b_double_prime, theta, r - 2, fam.theta_domain)
            else:
                deriv = derivative(fam.b, theta, r, fam.theta_domain)
    return tau ** (r - 1) * float(deriv)


def edm_deviance(fam: EdmFamily, y, mu):
    """Unit deviance ``2 integral_mu^y (y - t)/V(t) dt``.

    Closed forms are used where the family registers one.  Otherwise the
    generator form ``2 [y (q(y) - q(mu)) - b(q(y)) + b(q(mu))]`` serves ``y``
    inside the mean domain, and quadrature of the integrand serves ``y`` on
    its boundary (a count of 0) or next to ``mu``; an ndarray is then
    evaluated one entry at a time.  The result is nonnegative and vanishes
    exactly at ``y == mu``.
    """
    if not (type(y) is float and type(mu) is float) and (
        isinstance(y, np.ndarray) or isinstance(mu, np.ndarray)
    ):
        y, mu = np.asarray(y, dtype=float), np.asarray(mu, dtype=float)
        fam.support.require_all(y, "y")
        fam.mean_domain.require_all(mu, "mu")
        if fam.deviance_closed_form is None:
            return _elementwise(partial(_generator_deviance, fam), y, mu)
        return np.where(y == mu, 0.0, fam.deviance_closed_form(y, mu))
    fam.support.require(y, "y")
    fam.mean_domain.require(mu, "mu")
    if y == mu:
        return 0.0
    if fam.deviance_closed_form is not None:
        return float(fam.deviance_closed_form(y, mu))
    return _generator_deviance(fam, y, mu)


def _generator_deviance(fam: EdmFamily, y: float, mu: float) -> float:
    """The deviance from ``b`` and the inverse mean; quadrature outside int(M) or next to mu."""
    if y == mu:
        return 0.0
    if not fam.mean_domain.contains(y):
        return deviance_by_quadrature(fam, y, mu)
    theta_y, theta_mu = inverse_mean(fam, y), inverse_mean(fam, mu)
    terms = (y * theta_y, -y * theta_mu, -fam.b(theta_y), fam.b(theta_mu))
    value = 2.0 * math.fsum(terms)
    # next to the diagonal the terms cancel; quadrature keeps the sign there
    if value <= 1e-8 * sum(map(abs, terms)):
        return deviance_by_quadrature(fam, y, mu)
    return value


def deviance_by_quadrature(fam: EdmFamily, y: float, mu: float) -> float:
    """Unit deviance by adaptive quadrature of ``2 (y - t)/V(t)``, ignoring closed forms."""
    fam.support.require(y, "y")
    fam.mean_domain.require(mu, "mu")
    if y == mu:
        return 0.0
    value, err = _quad(lambda t: 2.0 * (y - t) / variance_function(fam, t), mu, y)
    if not math.isfinite(value) or err > 1e-6 * max(1.0, abs(value)):
        raise NumericalError(f"deviance quadrature failed for {fam.name} at (y={y}, mu={mu})")
    return float(value)


def log_density(fam: EdmFamily, y: float, theta: float, tau: float) -> float:
    """Exact log density ``[y theta - b(theta)]/tau + c(y; tau)``.

    Requires an exact normalizer; :func:`density` provides the
    saddlepoint-backed fallback for families without one.
    """
    _require_observation(fam, y)
    fam.theta_domain.require(theta, "theta")
    fam.dispersion_domain.require(tau, "tau")
    if fam.exact_normalizer is None:
        raise DomainError(f"family {fam.name} has no exact normalizer")
    return (y * theta - fam.b(theta)) / tau + fam.exact_normalizer(y, tau)


def density(fam: EdmFamily, y: float, theta: float, tau: float) -> float:
    """Density (or probability mass) at ``y``.

    When no exact normalizer is registered, the value is the renormalized
    saddlepoint approximation; ``fam.has_exact_density`` tells the two
    cases apart.
    """
    if fam.exact_normalizer is not None:
        return math.exp(log_density(fam, y, theta, tau))
    _require_observation(fam, y)
    fam.theta_domain.require(theta, "theta")
    fam.dispersion_domain.require(tau, "tau")
    from .saddlepoint import renormalized_saddlepoint

    mu = mean_value(fam, theta)
    result = renormalized_saddlepoint(unit_deviance_of(fam), variance_function_of(fam), y, mu, tau)
    return result.value


def _require_observation(fam: EdmFamily, y: float) -> None:
    fam.support.require(y, "y")
    if fam.support.lattice and abs(y - round(y)) > 1e-9:
        raise DomainError(f"{fam.name} has lattice support; y={y} is not a lattice point")


def saturated_loglik_kernel(fam: EdmFamily, y):
    """The theta-part of the log likelihood at mu = y: ``y q(y) - b(q(y))``.

    ``y`` may be an ndarray.
    """
    theta = inverse_mean(fam, y)
    return y * theta - fam.b(theta)


def sample_mean_family(fam: EdmFamily, theta: float, tau: float, n: int) -> tuple[float, float]:
    """Parameters ``(theta, tau/n)`` of the sample mean of n iid draws.

    The mean of an EDM sample stays in the same family; the call fails when
    ``tau/n`` leaves the family's dispersion domain (the closure requires
    infinite divisibility).
    """
    if n < 1:
        raise DomainError("sample size must be >= 1")
    fam.theta_domain.require(theta, "theta")
    fam.dispersion_domain.require(tau, "tau")
    new_tau = tau / n
    if not fam.dispersion_domain.contains(new_tau):
        raise DomainError(
            f"tau/n = {new_tau} outside the dispersion domain {fam.dispersion_domain} of {fam.name}"
        )
    return theta, new_tau


def unit_deviance_of(fam: EdmFamily) -> UnitDeviance:
    """The family's unit deviance packaged for the deviance-core operations."""
    # imported here: ``deviance`` builds its EDM entries from this module
    from .deviance import UnitDeviance

    # lambdas, not ``partial``: calls go through the module globals at call time
    return UnitDeviance(
        name=fam.name,
        support=fam.support,
        fn=lambda y, mu: edm_deviance(fam, y, mu),
        variance=lambda mu: variance_function(fam, mu),
    )


def variance_function_of(fam: EdmFamily) -> VarianceFunction:
    from .deviance import VarianceFunction

    return VarianceFunction(
        name=f"V[{fam.name}]",
        domain=fam.mean_domain,
        fn=lambda mu: variance_function(fam, mu),
    )


# ----------------------------------------------------------------------
# Built-in families
# ----------------------------------------------------------------------


def _normal_family() -> EdmFamily:
    return EdmFamily(
        name="normal",
        theta_domain=REALS,
        b=lambda th: 0.5 * th * th,
        b_prime=lambda th: th,
        b_double_prime=lambda th: 1.0,
        b_nth=lambda r, th: 0.0,
        mean_domain=REALS,
        support=REALS,
        dispersion_domain=POSITIVE_REALS,
        exact_normalizer=lambda y, tau: -0.5 * y * y / tau - 0.5 * math.log(2.0 * math.pi * tau),
        dc_dtau=lambda y, tau: 0.5 * y * y / tau**2 - 0.5 / tau,
        mean_inverse=lambda mu: mu,
        deviance_closed_form=lambda y, mu: (y - mu) ** 2,
        tau_mle_closed_form=lambda y, deviance, n: deviance / n,
    )


def _gamma_family() -> EdmFamily:
    return EdmFamily(
        name="gamma",
        theta_domain=RealInterval(-math.inf, 0.0),
        b=lambda th: -el.log(-th),
        b_prime=lambda th: -1.0 / th,
        b_double_prime=lambda th: 1.0 / th**2,
        b_nth=lambda r, th: math.gamma(r) * (-th) ** (-r),
        mean_domain=POSITIVE_REALS,
        support=POSITIVE_REALS,
        dispersion_domain=POSITIVE_REALS,
        exact_normalizer=lambda y, tau: (1.0 / tau - 1.0) * math.log(y)
        - math.log(tau) / tau
        - gammaln(1.0 / tau),
        dc_dtau=lambda y, tau: (-el.log(y) + math.log(tau) - 1.0 + polygamma(0, 1.0 / tau))
        / tau**2,
        mean_inverse=lambda mu: -1.0 / mu,
        deviance_closed_form=lambda y, mu: 2.0 * (y / mu - el.log(y / mu) - 1.0),
    )


def _poisson_family() -> EdmFamily:
    return EdmFamily(
        name="poisson",
        theta_domain=REALS,
        b=el.exp,
        b_prime=el.exp,
        b_double_prime=el.exp,
        b_nth=lambda r, th: math.exp(th),
        mean_domain=POSITIVE_REALS,
        support=RealInterval(0.0, math.inf, closed_lower=True, lattice=True),
        dispersion_domain=_UNIT_TAU,
        exact_normalizer=lambda y, tau: -(y / tau) * math.log(tau) - float(gammaln(y / tau + 1.0)),
        mean_inverse=el.log,
        deviance_closed_form=lambda y, mu: 2.0 * (el.xlogy(y, y / mu) - y + mu),
    )


def _inverse_gaussian_family() -> EdmFamily:
    return EdmFamily(
        name="inverse_gaussian",
        theta_domain=RealInterval(-math.inf, 0.0),
        b=lambda th: -el.sqrt(-2.0 * th),
        b_prime=lambda th: (-2.0 * th) ** -0.5,
        b_double_prime=lambda th: (-2.0 * th) ** -1.5,
        b_nth=lambda r, th: float(factorial2(2 * r - 3)) * (-2.0 * th) ** (-(2 * r - 1) / 2.0)
        if r >= 2
        else (-2.0 * th) ** -0.5,
        mean_domain=POSITIVE_REALS,
        support=POSITIVE_REALS,
        dispersion_domain=POSITIVE_REALS,
        exact_normalizer=lambda y, tau: -0.5 / (tau * y)
        - 0.5 * math.log(2.0 * math.pi * tau)
        - 1.5 * math.log(y),
        dc_dtau=lambda y, tau: 0.5 / (tau**2 * y) - 0.5 / tau,
        mean_inverse=lambda mu: -0.5 / mu**2,
        deviance_closed_form=lambda y, mu: (y - mu) ** 2 / (mu**2 * y),
        tau_mle_closed_form=lambda y, deviance, n: deviance / n,
    )


def _binomial_family() -> EdmFamily:
    def sigma(th):
        return 1.0 / (1.0 + el.exp(-th))

    def b_nth(r, th):
        s = sigma(th)
        if r == 3:
            return s * (1.0 - s) * (1.0 - 2.0 * s)
        if r == 4:
            return s * (1.0 - s) * (1.0 - 6.0 * s + 6.0 * s * s)
        return None

    return EdmFamily(
        name="binomial",
        theta_domain=REALS,
        b=lambda th: el.positive_part(th) + el.log1p(el.exp(-abs(th))),
        b_prime=sigma,
        b_double_prime=lambda th: sigma(th) * (1.0 - sigma(th)),
        b_nth=b_nth,
        mean_domain=RealInterval(0.0, 1.0),
        support=RealInterval(0.0, 1.0, closed_lower=True, closed_upper=True, lattice=True),
        dispersion_domain=_UNIT_TAU,
        exact_normalizer=lambda y, tau: 0.0,
        mean_inverse=lambda mu: el.log(mu / (1.0 - mu)),
        deviance_closed_form=lambda y, mu: 2.0
        * (el.xlogy(y, y / mu) + el.xlogy(1.0 - y, (1.0 - y) / (1.0 - mu))),
    )


def _negative_binomial_family() -> EdmFamily:
    def b_nth(r, th):
        q = math.exp(th)
        if r == 3:
            return q * (1.0 + q) / (1.0 - q) ** 3
        if r == 4:
            return q * (1.0 + 4.0 * q + q * q) / (1.0 - q) ** 4
        return None

    return EdmFamily(
        name="negative_binomial",
        theta_domain=RealInterval(-math.inf, 0.0),
        b=lambda th: -el.log1p(-el.exp(th)),
        b_prime=lambda th: el.exp(th) / (1.0 - el.exp(th)),
        b_double_prime=lambda th: el.exp(th) / (1.0 - el.exp(th)) ** 2,
        b_nth=b_nth,
        mean_domain=POSITIVE_REALS,
        support=RealInterval(0.0, math.inf, closed_lower=True, lattice=True),
        dispersion_domain=_UNIT_TAU,
        exact_normalizer=lambda y, tau: 0.0,
        mean_inverse=lambda mu: el.log(mu / (1.0 + mu)),
        deviance_closed_form=lambda y, mu: 2.0
        * (el.xlogy(y, y / mu) - (1.0 + y) * el.log((1.0 + y) / (1.0 + mu))),
    )


def gsh_log_normalizer(y: float, tau: float) -> float:
    """Normalizer ``c(y; tau)`` of the generalized secant hyperbolic family.

    With ``lambda = 1/tau``, ``Y = tau X`` where X has the NEF-GHS base
    density ``2^(lambda-2) |Gamma(lambda/2 + i x/2)|^2 / (pi Gamma(lambda))``
    (Morris 1982), so ``c(y; tau) = (lambda - 2) log 2 - log pi -
    log Gamma(lambda) + 2 Re log Gamma(lambda/2 + i y/(2 tau)) - log tau``.
    """
    if not tau > 0.0:
        raise DomainError("tau must be positive")
    lam = 1.0 / tau
    return (
        (lam - 2.0) * math.log(2.0)
        - math.log(math.pi)
        - float(gammaln(lam))
        + 2.0 * float(loggamma(complex(0.5 * lam, 0.5 * y / tau)).real)
        - math.log(tau)
    )


def _gsh_family() -> EdmFamily:
    def b_nth(r, th):
        sec2 = 1.0 / math.cos(th) ** 2
        tan = math.tan(th)
        if r == 3:
            return 2.0 * sec2 * tan
        if r == 4:
            return 2.0 * sec2 * (sec2 + 2.0 * tan * tan)
        return None

    return EdmFamily(
        name="gsh",
        theta_domain=RealInterval(-0.5 * math.pi, 0.5 * math.pi),
        b=lambda th: -el.log(el.cos(th)),
        b_prime=el.tan,
        b_double_prime=lambda th: 1.0 / el.cos(th) ** 2,
        b_nth=b_nth,
        mean_domain=REALS,
        support=REALS,
        dispersion_domain=POSITIVE_REALS,
        exact_normalizer=gsh_log_normalizer,
        mean_inverse=el.atan,
    )


FAMILIES: dict[str, EdmFamily] = {
    fam.name: fam
    for fam in (
        _normal_family(),
        _gamma_family(),
        _poisson_family(),
        _inverse_gaussian_family(),
        _binomial_family(),
        _negative_binomial_family(),
        _gsh_family(),
    )
}


def get_family(name: str) -> EdmFamily:
    try:
        return FAMILIES[name]
    except KeyError:
        raise DomainError(
            f"unknown family {name!r}; available: {', '.join(sorted(FAMILIES))}"
        ) from None


# ----------------------------------------------------------------------
# Morris quadratic-variance classification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MorrisSpec:
    """Coefficients of a quadratic variance function V(mu) = a mu^2 + b mu + c."""

    a: float
    b: float
    c: float


_MORRIS_PATTERNS = {
    (0.0, 0.0, 1.0): "normal",
    (1.0, 0.0, 0.0): "gamma",
    (0.0, 1.0, 0.0): "poisson",
    (-1.0, 1.0, 0.0): "binomial",
    (1.0, 1.0, 0.0): "negative_binomial",
    (1.0, 0.0, 1.0): "gsh",
}


def morris_family(spec: MorrisSpec) -> EdmFamily:
    """The EDM with quadratic variance function ``a mu^2 + b mu + c``.

    Only six coefficient patterns admit an EDM (Morris' classification);
    anything else is rejected.
    """
    key = (float(spec.a), float(spec.b), float(spec.c))
    name = _MORRIS_PATTERNS.get(key)
    if name is None:
        raise DomainError(
            f"(a, b, c) = {key} is not one of the six admissible quadratic variance patterns"
        )
    return FAMILIES[name]


# ----------------------------------------------------------------------
# User-defined families from declarative configs
# ----------------------------------------------------------------------


def _interval_from_config(entry, default: RealInterval) -> RealInterval:
    if entry is None:
        return default
    lo, hi = entry[0], entry[1]
    lo = -math.inf if lo in (None, "-inf") else float(lo)
    hi = math.inf if hi in (None, "inf") else float(hi)
    flags = entry[2] if len(entry) > 2 else ""
    return RealInterval(lo, hi, closed_lower="[" in flags, closed_upper="]" in flags)


def family_from_config(config) -> EdmFamily:
    """Build a family from a declarative config (dict, JSON string, or path).

    Required keys: ``name`` and ``b`` (an expression in ``theta`` using
    literals, ``+ - * / ^`` and ``log exp sqrt cos``).  Optional keys:
    ``theta_domain``, ``mean_domain``, ``support`` (each ``[lo, hi]`` or
    ``[lo, hi, "[]"]`` for closed endpoints, with null for infinite),
    ``lattice`` (bool).  Derivatives of ``b`` are taken numerically.
    """
    if isinstance(config, str):
        try:
            with open(config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except OSError:
            config = json.loads(config)
    if "b" not in config or "name" not in config:
        raise DomainError("family config requires 'name' and 'b' entries")
    b = compile_expression(config["b"], ["theta"])
    support = _interval_from_config(config.get("support"), REALS)
    if config.get("lattice"):
        support = RealInterval(
            support.lower, support.upper, support.closed_lower, support.closed_upper, True
        )
    return EdmFamily(
        name=str(config["name"]),
        theta_domain=_interval_from_config(config.get("theta_domain"), REALS),
        b=b,
        mean_domain=_interval_from_config(config.get("mean_domain"), REALS),
        support=support,
        dispersion_domain=POSITIVE_REALS,
    )
