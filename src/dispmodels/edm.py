"""Exponential dispersion models built from cumulant generators.

A family is determined by a strictly convex generator ``b`` on an open
canonical domain: the cgf of a member is ``K(t) = [b(theta + tau t) -
b(theta)] / tau``, the mean is ``b'(theta)``, the variance function is
``b''`` composed with the inverse mean mapping, the r-th cumulant is
``tau^(r-1) b^(r)(theta)``, and the unit deviance is
``2 * integral_mu^y (y - t) / V(t) dt``.  Densities use the exact additive
normalizer ``c(y; tau)`` where one is known; otherwise the renormalized
saddlepoint approximation stands in (and the caller can see that through
``has_exact_density``).  Every built-in family has one, written once here
in closed form (the gsh one is the NEF-GHS complex log-gamma form).  The
normal, Poisson, gamma and inverse Gaussian families are the power-variance
family of ``_power_family`` at p = 0, 1, 2 and 3, the one constructor that
also builds every Tweedie family.

``inverse_mean``, ``variance_function``, ``edm_deviance`` and
``saturated_loglik_kernel`` take a float or an ndarray.  An array is
domain-checked once and mapped by the family's own callables, or by array
code on ``b`` alone (JSON-config families), in O(1) calls, which is what
lets IRLS make O(1) library calls per iteration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from . import _elementary as el
from ._numdiff import _bracketed_newton, _length_scale, _quadrature, derivative
from .errors import ConvergenceError, DomainError, NumericalError, lookup, refuses_numerical_failure, require_positive
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
_LATTICE_SLACK = 1e-9  # a lattice family's y is a point of tau N0 if y/tau lies this close to a whole count


@dataclass(frozen=True)
class EdmFamily:
    """An EDM specified by its cumulant generator and domain metadata.

    ``b_nth(r, theta)`` is the one table of the derivatives ``b^(r)``: it
    knows orders 1 and 2 and may return ``None`` for a higher order.
    ``_b_derivative`` is the one rule that reads it: the registered value
    where there is one, else ``_numdiff.derivative`` on ``theta_domain`` of
    order r - 2 of ``b_nth(2, .)``, or of order r of ``b`` where ``b_nth``
    is ``None`` (a JSON-config family registers ``b`` alone); orders above
    6 are refused.  ``exact_normalizer`` is the additive term ``c(y; tau)``
    of the log density, on the log scale.

    ``b``, ``b_nth`` (at every order it knows), ``mean_inverse``,
    ``deviance_closed_form``, and ``exact_normalizer`` and ``dc_dtau`` (in
    their ``y`` argument) must accept an ndarray as well as a float; the built-in families write each
    formula once with ``_elementary``, which keeps floats on ``math``.
    Without ``mean_inverse`` or ``deviance_closed_form``, the mean inverse
    (``_solve_increasing``) and the deviance (``_generator_deviance``) come
    from ``b``.  These and the finite differences run on whole arrays, and
    on a float as a 0-d or one-entry array: ``math`` and numpy differ in the
    last bit of some values, and a finite difference amplifies that.
    """

    name: str
    theta_domain: RealInterval
    b: Callable[[float], float]
    mean_domain: RealInterval
    support: RealInterval
    dispersion_domain: RealInterval
    b_nth: Optional[Callable[[int, float], Optional[float]]] = None
    exact_normalizer: Optional[Callable[[float, float], float]] = None
    dc_dtau: Optional[Callable[[float, float], float]] = None
    mean_inverse: Optional[Callable[[float], float]] = None
    deviance_closed_form: Optional[Callable[[float, float], float]] = None
    tau_mle_closed_form: Optional[Callable[[np.ndarray, float, int], float]] = None

    @property
    def has_exact_density(self) -> bool:
        return self.exact_normalizer is not None

    @cached_property
    def steep(self) -> bool:
        """Whether the mean domain holds the interior of the support, as for every built-in family (not
        for Tweedie p < 0).  Then a y inside the support, and every point between a y in the support and
        a mean, is a mean."""
        return self.mean_domain.lower <= self.support.lower and self.support.upper <= self.mean_domain.upper

    def _b_derivative(self, r: int, theta):
        """``b^(r)(theta)``, ``theta`` a float or an ndarray, by the rule of the class docstring."""
        value = None if self.b_nth is None else self.b_nth(r, theta)
        if value is None:
            if r > 6:
                raise NumericalError(f"cumulant order {r} requires an analytic derivative of b for {self.name}")
            f, order = (self.b, r) if self.b_nth is None else (partial(self.b_nth, 2), r - 2)
            return derivative(f, theta, order, self.theta_domain)
        if type(theta) is not float and isinstance(theta, np.ndarray):
            return np.full(theta.shape, value, dtype=float)  # a constant such as the normal b'' broadcasts
        return float(value)


# A public function checks each argument once, on entry, and evaluates
# private formulas that take checked arguments: ``fam._b_derivative(1, .)``
# for b', ``_inverse_mean`` for q, ``_variance`` and ``_variance_at`` for
# V = b'' o q, ``_deviance`` and ``_deviance_by_quadrature`` for d, and
# ``_log_density``.  The library's own callers call the formulas after checks
# of their own, which must imply the formula's domain: a y inside the support
# is a mean of a steep family (``EdmFamily.steep``), every built-in one.  A
# function that takes an ndarray branches once, on entry, into its array
# form; the float path below the branch is the pointwise API.  The branch
# tests ``type(x) is not float`` first: it costs a fifth of the
# ``isinstance`` call that floats would otherwise pay for on every call.


@refuses_numerical_failure
def cgf(fam: EdmFamily, t: float, theta: float, tau: float) -> float:
    """Cumulant generating function ``K(t; theta, tau) = [b(theta + tau t) - b(theta)] / tau``."""
    fam.theta_domain.require(theta, "theta")
    fam.dispersion_domain.require(tau, "tau")
    shifted = theta + tau * t
    if not fam.theta_domain.contains(shifted):
        raise DomainError(f"cgf of {fam.name} does not exist at t={t}: theta + tau*t = {shifted} "
                          f"outside {fam.theta_domain}")
    return (fam.b(shifted) - fam.b(theta)) / tau


@refuses_numerical_failure
def mean_value(fam: EdmFamily, theta: float) -> float:
    """Mean value mapping ``mu = b'(theta)``."""
    fam.theta_domain.interior().require(theta, "theta")
    return fam._b_derivative(1, theta)


@refuses_numerical_failure
def inverse_mean(fam: EdmFamily, mu):
    """Solve ``b'(theta) = mu`` for theta (the mapping q); ``mu`` may be an ndarray.

    Uses the registered analytic inverse when present, else the safeguarded
    Newton of ``_solve_increasing`` to ``|b'(theta) - mu| <= 1e-10 s``, with
    ``s`` the step rule's ``min(max(1, |mu|), distance from mu to the nearest
    finite end of the mean domain)``; ``b'`` takes no value on a closed end
    (a count of 0), so there it raises ``DomainError``.
    """
    return _inverse_mean(fam, fam.mean_domain.require(mu, "mu"))


def _inverse_mean(fam: EdmFamily, mu):
    """q(mu) at a float or an ndarray mu in the mean domain."""
    array = type(mu) is not float and isinstance(mu, np.ndarray)
    if fam.mean_inverse is not None:
        return el.call(fam.mean_inverse, mu) if array else float(fam.mean_inverse(mu))
    flat = np.asarray(mu, dtype=float).reshape(-1)
    if fam.mean_domain.closed_lower or fam.mean_domain.closed_upper:  # b' takes no value on a closed end
        fam.mean_domain.interior().require(flat, "mu")
    theta = _solve_increasing(fam, flat, 1e-10 * _length_scale(flat, fam.mean_domain))
    return theta.reshape(mu.shape) if array else float(theta[0])


def _domain_probe(domain: RealInterval, toward_upper: bool, k: np.ndarray) -> np.ndarray:
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


def _solve_increasing(fam: EdmFamily, target: np.ndarray, tol) -> np.ndarray:
    """Roots of ``b'(theta) = target`` for a 1-d ``target``: each between the first of 60 probes
    marching toward each end of ``theta_domain`` where ``b'`` passes it (``b'`` at all 120 from
    one call), then the shared safeguarded Newton."""
    probes = np.concatenate([_domain_probe(fam.theta_domain, up, np.arange(60.0)) for up in (False, True)])
    inside = fam.theta_domain.interior().contains(probes)
    values = np.full(probes.shape, np.nan)
    values[inside] = fam._b_derivative(1, probes[inside])
    values[~np.isfinite(values)] = np.nan  # passes no target
    below, above = values[:60, None] <= target, values[60:, None] >= target
    missing = ~(below.any(axis=0) & above.any(axis=0))
    if missing.any():
        bad = target[np.argmax(missing)]
        raise ConvergenceError(f"cannot bracket the target {bad} inside {fam.theta_domain}")
    lo, hi = probes[:60][below.argmax(axis=0)], probes[60:][above.argmax(axis=0)]
    return _bracketed_newton(lambda x: fam._b_derivative(1, x) - target, partial(fam._b_derivative, 2),
                             lo, hi, tol, what="inverse mean solve")


@refuses_numerical_failure
def variance_function(fam: EdmFamily, mu):
    """Unit variance function ``V(mu) = b''(q(mu))``; ``mu`` may be an ndarray."""
    return _variance(fam, fam.mean_domain.require(mu, "mu"))


def _variance(fam: EdmFamily, mu):
    """V(mu) at a float or an ndarray mu in the mean domain."""
    return _variance_at(fam, _inverse_mean(fam, mu))


def _variance_at(fam: EdmFamily, theta):
    """V at the mean b'(theta), that is b''(theta), refused where it is not positive."""
    return require_positive(fam._b_derivative(2, theta), "b'' of", fam, "theta", theta)


def variance_prime(fam: EdmFamily, mu: float) -> float:
    """Derivative of the variance function, ``V'(mu) = b'''(q(mu)) / V(mu)``.

    ``b'''`` is the third cumulant at unit dispersion: analytic where the
    family registers it, a finite difference of ``b''`` or ``b`` otherwise.
    """
    return cumulant(fam, 3, inverse_mean(fam, mu), 1.0) / variance_function(fam, mu)


@refuses_numerical_failure
def cumulant(fam: EdmFamily, r: int, theta: float, tau: float) -> float:
    """r-th cumulant ``tau^(r-1) b^(r)(theta)``.

    ``b^(r)`` is the family's ``b_nth`` where it knows the order, else a
    finite difference of order r - 2 of ``b''`` (of order r of ``b`` where
    no ``b_nth`` is registered); orders above 6 without an analytic form
    are refused as numerically unstable.
    """
    if r < 1:
        raise DomainError("cumulant order must be >= 1")
    fam.theta_domain.interior().require(theta, "theta")
    fam.dispersion_domain.require(tau, "tau")
    return tau ** (r - 1) * fam._b_derivative(r, theta)


@refuses_numerical_failure
def edm_deviance(fam: EdmFamily, y, mu):
    """Unit deviance ``2 integral_mu^y (y - t)/V(t) dt``.

    Closed forms are used where the family registers one, else
    :func:`_generator_deviance`, a float as a one-entry array.  The result
    is nonnegative and vanishes exactly at ``y == mu``.
    """
    if not (type(y) is float and type(mu) is float) and (isinstance(y, np.ndarray) or isinstance(mu, np.ndarray)):
        y, mu = (a if type(a) is float else np.asarray(a, dtype=float) for a in (y, mu))  # a float stays a float
    fam.support.require(y, "y")
    fam.mean_domain.require(mu, "mu")
    return _deviance(fam, y, mu)


def _deviance(fam: EdmFamily, y, mu):
    """d(y; mu) at y in the support and mu in the mean domain: floats, or float ndarrays (or one of them)."""
    if (type(y) is float and type(mu) is float) or not (isinstance(y, np.ndarray) or isinstance(mu, np.ndarray)):
        if y == mu:
            return 0.0
        if fam.deviance_closed_form is not None:
            return float(fam.deviance_closed_form(y, mu))
        return float(_generator_deviance(fam, np.array([y], dtype=float), np.array([mu], dtype=float))[0])
    if fam.deviance_closed_form is None:
        return _generator_deviance(fam, y, mu)
    with np.errstate(over="ignore"):  # a deviance past the largest float is +inf
        return np.where(y == mu, 0.0, fam.deviance_closed_form(y, mu))


def _generator_deviance(fam: EdmFamily, y: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """``2 [y (q(y) - q(mu)) - b(q(y)) + b(q(mu))]`` on ndarrays (not 0-d), from one inverse-mean
    solve and one call of ``b``; one quadrature for the entries with ``y`` outside int(M) (a count of
    0) or where the terms cancel to 1e-8 of their size next to the diagonal: it keeps the sign there.
    A solved (not registered) q takes one more Newton step: the solve stops at ``|b' - mu| <= 1e-10
    s``, and d carries that residual times ``y - mu``."""
    y, mu = np.broadcast_arrays(y, mu)
    generator = fam.mean_domain.interior().contains(y) & (y != mu)
    y_in, n = y[generator], np.count_nonzero(generator)
    targets = np.concatenate((y_in, mu[generator]))
    theta = _inverse_mean(fam, targets)
    if fam.mean_inverse is None:
        theta = theta - (fam._b_derivative(1, theta) - targets) / fam._b_derivative(2, theta)
    b = fam.b(theta)
    d = np.zeros(y.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # a term past the largest float: quadrature
        terms = (y_in * theta[:n], -y_in * theta[n:], -b[:n], b[n:])
        d[generator] = value = 2.0 * sum(terms)
        generator[generator] = value > 1e-8 * sum(map(abs, terms))
    quadrature = ~generator & (y != mu)
    if quadrature.any():
        d[quadrature] = _deviance_by_quadrature(fam, y[quadrature], mu[quadrature])
    return d


@refuses_numerical_failure
def deviance_by_quadrature(fam: EdmFamily, y, mu):
    """Unit deviance ``2 integral_mu^y (y - t)/V(t) dt`` by ``_numdiff._quadrature``, ignoring closed
    forms.  ``y`` and ``mu`` may be ndarrays, each entry an integral of one quadrature; the empty
    integral at ``y == mu`` is exactly 0."""
    y, mu = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(mu, dtype=float))
    fam.support.require(y, "y")
    fam.mean_domain.require(mu, "mu")
    return _deviance_by_quadrature(fam, y, mu)


def _deviance_by_quadrature(fam: EdmFamily, y: np.ndarray, mu: np.ndarray):
    """The defining integral of d at y in the support and mu in the mean domain (ndarrays of one shape),
    in the fraction s = v/(1 + v) of the way from mu to y, v in [0, inf): ``2 (y - mu) integral_0^inf (y -
    mu) (1 - s)^3 / V(t) dv``.  t is mu + (y - mu) s below s = 1/2 and y - (y - mu)(1 - s) above, with
    1 - s = 1/(1 + v), so that a node next to either end is as accurate as its distance to it, and y - t =
    (y - mu)(1 - s) does not cancel next to the diagonal: an integral of 1e-27 there keeps its relative
    error.  The points t of a family that is not steep are checked as means."""
    ys, mus = y.ravel(), mu.ravel()
    variance = partial(_variance if fam.steep else variance_function, fam)

    def integrand(v, i):
        gap, rest = ys[i, None] - mus[i, None], 1.0 / (1.0 + v)  # rest = 1 - s
        t = np.where(v < 1.0, mus[i, None] + gap * (v * rest), ys[i, None] - gap * rest)
        return gap * rest**3 / variance(t)

    with np.errstate(over="ignore", invalid="ignore"):  # a gap or a value that is not finite is refused
        integral, err = _quadrature(integrand, np.zeros(y.shape), np.full(y.shape, np.inf))
        value, err = 2.0 * (y - mu) * integral, 2.0 * np.abs(y - mu) * err
    # a 0 off the diagonal is an integrand that underflowed at every node, not a deviance
    bad = np.ravel(~(err <= 1e-6 * np.maximum(1.0, np.abs(value))) | ~np.isfinite(value)
                   | ((value == 0.0) & (y != mu)))
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalError(f"deviance quadrature failed for {fam.name} at (y={ys[i]}, mu={mus[i]})")
    return value if y.ndim else float(value)


@refuses_numerical_failure
def log_density(fam: EdmFamily, y: float, theta: float, tau: float) -> float:
    """Exact log density ``[y theta - b(theta)]/tau + c(y; tau)``; ``y`` may be an ndarray.

    A y of a lattice family lies on ``tau N0`` (tau is checked first).  Requires an exact normalizer;
    :func:`density` provides the saddlepoint-backed fallback for families without one.
    """
    fam.dispersion_domain.require(tau, "tau")
    _require_observation(fam, y, tau)
    fam.theta_domain.require(theta, "theta")
    if fam.exact_normalizer is None:
        raise DomainError(f"family {fam.name} has no exact normalizer")
    return _log_density(fam, y, theta, tau)


def _log_density(fam: EdmFamily, y, theta: float, tau: float):
    """The exact log density at checked arguments, of a family with an exact normalizer."""
    # an ndarray y under the array contract, so that a float-only normalizer is refused as such
    c = el.call(fam.exact_normalizer, y, tau) if isinstance(y, np.ndarray) else fam.exact_normalizer(y, tau)
    return (y * theta - fam.b(theta)) / tau + c


@refuses_numerical_failure
def density(fam: EdmFamily, y: float, theta: float, tau: float) -> float:
    """Density (or probability mass) at ``y``, which lies on ``tau N0`` for a lattice family.

    When no exact normalizer is registered, the value is the renormalized
    saddlepoint approximation at the mean b'(theta), theta inside its domain;
    ``fam.has_exact_density`` tells the two cases apart.
    """
    exact = fam.exact_normalizer is not None
    fam.dispersion_domain.require(tau, "tau")
    _require_observation(fam, y, tau)
    (fam.theta_domain if exact else fam.theta_domain.interior()).require(theta, "theta")
    if exact:
        return el.exp(_log_density(fam, y, theta, tau))
    from .saddlepoint import renormalized_saddlepoint

    mu = fam._b_derivative(1, theta)
    return renormalized_saddlepoint(unit_deviance_of(fam), variance_function_of(fam), y, mu, tau).value


def _require_observation(fam: EdmFamily, y, tau: float) -> None:
    """Refuses y outside the support, or a lattice y whose y/tau is more than ``_LATTICE_SLACK`` from a count."""
    fam.support.require(y, "y")
    if fam.support.lattice:
        if type(y) is float:  # no numpy call; round of an infinite count raises OverflowError
            off = abs(y / tau - round(y / tau)) > _LATTICE_SLACK
        else:
            with np.errstate(over="ignore", invalid="raise"):  # inf - inf of an infinite count raises
                counts = np.divide(y, tau)
                off = np.abs(counts - np.rint(counts)) > _LATTICE_SLACK
        if off is not False and np.any(off):  # a bool, a numpy bool or an array of them
            raise DomainError(f"{fam.name}: y={np.asarray(y)[off].flat[0]} is not a lattice point at tau={tau}")


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
        raise DomainError(f"tau/n = {new_tau} outside the dispersion domain {fam.dispersion_domain} of {fam.name}")
    return theta, new_tau


def unit_deviance_of(fam: EdmFamily) -> UnitDeviance:
    """The family's unit deviance packaged for the deviance-core operations."""
    # imported here: ``deviance`` builds its EDM entries from this module
    from .deviance import UnitDeviance

    # eval_deviance and unit_variance check y in the support and mu inside it, a mean of a steep family
    steep = fam.steep
    return UnitDeviance(
        name=fam.name,
        support=fam.support,
        fn=partial(_deviance if steep else edm_deviance, fam),
        variance=partial(_variance if steep else variance_function, fam),
    )


def variance_function_of(fam: EdmFamily) -> VarianceFunction:
    from .deviance import VarianceFunction

    # VarianceFunction checks mu in the mean domain
    return VarianceFunction(name=f"V[{fam.name}]", domain=fam.mean_domain, fn=partial(_variance, fam))


# ----------------------------------------------------------------------
# Built-in families
# ----------------------------------------------------------------------


def _power_family(p: float, name: str, dispersion_domain: RealInterval = POSITIVE_REALS, **extras) -> EdmFamily:
    """The power-variance family ``V(mu) = mu^p`` at a p outside (0, 1) (Jorgensen 1997, ch. 4).

    ``b(theta) = [(1-p) theta]^((p-2)/(p-1)) / (2-p)``, ``q(mu) = mu^(1-p)/(1-p)``, ``b^(r)(theta) =
    prod_{i=1}^{r-2} (1 - i (1-p)) [(1-p) theta]^(1/(1-p) - (r-1))`` and the deviance
    ``_elementary.power_deviance``, each picked here once for the p: exp and log at p = 1 and
    -log(-theta) at p = 2 are the limits of the removable singularities, and p = 0, 2 and 3 keep the
    forms whose last bits a pow would move.  ``extras`` are the member's own fields: its normalizer,
    ``dc_dtau`` and tau-MLE closed form; the Poisson passes its unit dispersion domain.
    """
    if p == 1.0:
        b, b_nth, mean_inverse = el.exp, (lambda r, th: el.exp(th)), el.log
    else:
        alpha, c = (p - 2.0) / (p - 1.0), 1.0 / (1.0 - p)

        def b(th):
            return ((1.0 - p) * th) ** alpha / (2.0 - p)

        def b_nth(r, th):
            coeff = 1.0
            for i in range(1, r - 1):
                coeff *= 1.0 - i * (1.0 - p)
            return coeff * ((1.0 - p) * th) ** (c - (r - 1.0)) if coeff else 0.0  # 0 at p = 0, r >= 3

        def mean_inverse(mu):
            return mu ** (1.0 - p) / (1.0 - p)

    deviance = lambda y, mu: el.power_deviance(p, y, mu)
    if p == 0.0:  # a product, not ** 2: a float product overflows to +inf where the power raises
        b, deviance = (lambda th: 0.5 * th * th), (lambda y, mu: (y - mu) * (y - mu))
    elif p == 2.0:  # b' and b'' apart from Gamma(r) (-theta)^(-r), whose pow would move their last bits
        b, mean_inverse, b_pow = (lambda th: -el.log(-th)), (lambda mu: -1.0 / mu), b_nth
        b_nth = lambda r, th: -1.0 / th if r == 1 else 1.0 / th**2 if r == 2 else b_pow(r, th)
    elif p == 3.0:  # d = x (x/y), x = y/mu - 1: neither (y - mu)^2 nor x^2 overflows where d is finite
        b, mean_inverse = (lambda th: -el.sqrt(-2.0 * th)), (lambda mu: -0.5 / mu**2)
        deviance = lambda y, mu: (x := (y - mu) / mu) * (x / y)
    return EdmFamily(
        name=name,
        theta_domain=REALS if p in (0.0, 1.0) else POSITIVE_REALS if p < 0.0 else RealInterval(-math.inf, 0.0),
        b=b,
        b_nth=b_nth,
        mean_domain=REALS if p == 0.0 else POSITIVE_REALS,
        support=REALS if p <= 0.0 else POSITIVE_REALS if p >= 2.0
        else RealInterval(0.0, math.inf, closed_lower=True, lattice=p == 1.0),
        dispersion_domain=dispersion_domain,
        mean_inverse=mean_inverse,
        deviance_closed_form=deviance,
        **extras,
    )


def _binomial_family() -> EdmFamily:
    def sigma(th):
        return 1.0 / (1.0 + el.exp(-th))

    def b_nth(r, th):
        s = sigma(th)
        if r == 1:
            return s
        if r == 2:
            return s * (1.0 - s)
        if r == 3:
            return s * (1.0 - s) * (1.0 - 2.0 * s)
        if r == 4:
            return s * (1.0 - s) * (1.0 - 6.0 * s + 6.0 * s * s)
        return None

    return EdmFamily(
        name="binomial",
        theta_domain=REALS,
        b=lambda th: el.positive_part(th) + el.log1p(el.exp(-abs(th))),
        b_nth=b_nth,
        mean_domain=RealInterval(0.0, 1.0),
        support=RealInterval(0.0, 1.0, closed_lower=True, closed_upper=True, lattice=True),
        dispersion_domain=_UNIT_TAU,
        exact_normalizer=lambda y, tau: 0.0,
        mean_inverse=lambda mu: el.log(mu / (1.0 - mu)),
        # the Poisson deviances of the successes and the failures; their linear terms cancel
        deviance_closed_form=lambda y, mu: el.power_deviance(1.0, y, mu)
        + el.power_deviance(1.0, 1.0 - y, 1.0 - mu, mu - y),
    )


def _negative_binomial_family() -> EdmFamily:
    def b_nth(r, th):
        q = el.exp(th)
        if r == 1:
            return q / (1.0 - q)
        if r == 2:
            return q / (1.0 - q) ** 2
        if r == 3:
            return q * (1.0 + q) / (1.0 - q) ** 3
        if r == 4:
            return q * (1.0 + 4.0 * q + q * q) / (1.0 - q) ** 4
        return None

    return EdmFamily(
        name="negative_binomial",
        theta_domain=RealInterval(-math.inf, 0.0),
        b=lambda th: -el.log1p(-el.exp(th)),
        b_nth=b_nth,
        mean_domain=POSITIVE_REALS,
        support=RealInterval(0.0, math.inf, closed_lower=True, lattice=True),
        dispersion_domain=_UNIT_TAU,
        exact_normalizer=lambda y, tau: 0.0,
        mean_inverse=lambda mu: el.log(mu / (1.0 + mu)),
        # d_Poisson(y; mu) - d_Poisson(1 + y; 1 + mu): the linear terms cancel
        deviance_closed_form=lambda y, mu: el.power_deviance(1.0, y, mu)
        - el.power_deviance(1.0, 1.0 + y, 1.0 + mu, y - mu),
    )


def gsh_log_normalizer(y, tau: float):
    """Normalizer ``c(y; tau)`` of the generalized secant hyperbolic family, at a float or an ndarray y.

    With ``lambda = 1/tau``, ``Y = tau X`` where X has the NEF-GHS base
    density ``2^(lambda-2) |Gamma(lambda/2 + i x/2)|^2 / (pi Gamma(lambda))``
    (Morris 1982), so ``c(y; tau) = (lambda - 2) log 2 - log pi -
    log Gamma(lambda) + 2 Re log Gamma(lambda/2 + i y/(2 tau)) - log tau``.
    """
    if not tau > 0.0:
        raise DomainError("tau must be positive")
    lam = 1.0 / tau
    part = el.special.loggamma(0.5 * lam + 0.5j * y / tau).real
    return (
        (lam - 2.0) * math.log(2.0)
        - math.log(math.pi)
        - float(el.special.gammaln(lam))
        + 2.0 * (part if part.ndim else float(part))
        - math.log(tau)
    )


def _gsh_family() -> EdmFamily:
    def b_nth(r, th):
        if r == 1:
            return el.tan(th)
        sec2 = 1.0 / el.cos(th) ** 2
        if r == 2:
            return sec2
        tan = el.tan(th)
        if r == 3:
            return 2.0 * sec2 * tan
        if r == 4:
            return 2.0 * sec2 * (sec2 + 2.0 * tan * tan)
        return None

    return EdmFamily(
        name="gsh",
        theta_domain=RealInterval(-0.5 * math.pi, 0.5 * math.pi),
        b=lambda th: -el.log(el.cos(th)),
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
        _power_family(
            0.0, "normal",
            exact_normalizer=lambda y, tau: -0.5 * y * y / tau - 0.5 * math.log(2.0 * math.pi * tau),
            dc_dtau=lambda y, tau: 0.5 * y * y / tau**2 - 0.5 / tau,
            tau_mle_closed_form=lambda y, deviance, n: deviance / n,
        ),
        _power_family(
            2.0, "gamma",
            exact_normalizer=lambda y, tau: (1.0 / tau - 1.0) * el.log(y)
            - math.log(tau) / tau
            - float(el.special.gammaln(1.0 / tau)),
            dc_dtau=lambda y, tau: (-el.log(y) + math.log(tau) - 1.0 + el.special.polygamma(0, 1.0 / tau))
            / tau**2,
        ),
        _power_family(
            1.0, "poisson",
            dispersion_domain=_UNIT_TAU,
            exact_normalizer=lambda y, tau: -(y / tau) * math.log(tau) - el.special.gammaln(y / tau + 1.0),
        ),
        _power_family(
            3.0, "inverse_gaussian",
            exact_normalizer=lambda y, tau: -0.5 / (tau * y)
            - 0.5 * math.log(2.0 * math.pi * tau)
            - 1.5 * el.log(y),
            dc_dtau=lambda y, tau: 0.5 / (tau**2 * y) - 0.5 / tau,
            tau_mle_closed_form=lambda y, deviance, n: deviance / n,
        ),
        _binomial_family(),
        _negative_binomial_family(),
        _gsh_family(),
    )
}


def get_family(name: str) -> EdmFamily:
    return lookup(FAMILIES, name, "family")


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
        raise DomainError(f"(a, b, c) = {key} is not one of the six admissible quadratic variance patterns")
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
