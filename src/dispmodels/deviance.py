"""Unit deviances: definition, validation, transformation, differentiation.

A unit deviance ``d(y; mu)`` generalizes the squared Euclidean distance of
the normal density: it vanishes exactly on the diagonal ``y == mu`` and is
positive everywhere else on its domain ``C x Omega`` (``Omega = int(C)``).
A *regular* unit deviance is twice continuously differentiable with
positive curvature along the diagonal, and then carries a unit variance
function ``V(mu) = 2 / d_mumu(mu; mu)``.

The module ships the six classic deviances (normal, gamma, Poisson,
von Mises, simplex, inverse Gaussian) and the operations needed by the
rest of the library: curvature extraction, diagonal-identity diagnostics,
re-parametrization by a monotone transformation, and the variance
stabilizing transformation.  The four EDM deviances and variance
functions are not written here: they are derived from the cumulant
generators of ``edm.FAMILIES`` (``d = 2 integral_mu^y (y - t)/V(t) dt`` in
closed form, ``V = b'' o q``), so each formula has one home.

``UnitDeviance.fn`` and :func:`eval_deviance` take a float or an ndarray
in each argument; built-in formulas use ``_elementary``, and a caller's
float-only callable is vectorised once, when its deviance is built.  A
deviance that registers ``V`` has diagonal curvature ``2/V`` without
finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _elementary as el
from ._numdiff import _quad, derivative
from .edm import FAMILIES, unit_deviance_of, variance_function_of
from .errors import DomainError, NumericalError
from .support import UNIT_INTERVAL, RealInterval

__all__ = [
    "UnitDeviance",
    "VarianceFunction",
    "eval_deviance",
    "unit_variance",
    "second_derivative_identity",
    "transform_deviance",
    "variance_stabilizing_transform",
    "check_unit_deviance",
    "get_deviance",
    "DEVIANCES",
    "VARIANCE_FUNCTIONS",
]

# Probes for regularity/positivity checks are clipped inward by this
# fraction of the interval width to avoid boundary singularities.
_BOUNDARY_CLIP = 1e-6


@dataclass(frozen=True)
class UnitDeviance:
    """A bivariate deviance function with its domain metadata.

    ``support`` is the convex support C (plus a lattice flag for discrete
    dominating measures); the parameter domain is ``int(C)``, or all of C
    on a circle.  ``fn`` takes a float or an ndarray in each argument.
    ``regular`` is a declared flag; :func:`check_unit_deviance` verifies it
    lazily.  ``variance`` is the unit variance ``V(mu)`` when it is known
    in closed form; when absent, ``_numdiff.derivative`` measures the
    diagonal curvature instead.
    """

    name: str
    support: RealInterval
    fn: Callable[[float, float], float]
    regular: bool = True
    variance: Optional[Callable[[float], float]] = None
    circular: bool = False

    @property
    def omega(self) -> RealInterval:
        # on a circle every support point is interior (wraparound domain)
        return self.support if self.circular else self.support.interior()

    def __call__(self, y: float, mu: float) -> float:
        return eval_deviance(self, y, mu)


@dataclass(frozen=True)
class VarianceFunction:
    """A positive function on an open interval: the unit variance V(mu)."""

    name: str
    domain: RealInterval
    fn: Callable[[float], float]

    def __call__(self, mu: float) -> float:
        self.domain.require(mu, "mu")
        v = float(self.fn(mu))
        if not v > 0.0:
            raise NumericalError(f"variance function {self.name} not positive at mu={mu}: {v}")
        return v


def eval_deviance(d: UnitDeviance, y, mu):
    """Evaluate ``d(y; mu)``; exactly zero where ``y == mu``.

    ``y`` and ``mu`` may be ndarrays (or one of them); an array is
    domain-checked once and the deviance is one call of ``d.fn``.
    """
    if not (type(y) is float and type(mu) is float) and (
        isinstance(y, np.ndarray) or isinstance(mu, np.ndarray)
    ):
        y, mu = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(mu, dtype=float))
        d.support.require_all(y, "y")
        d.omega.require_all(mu, "mu")
        value = np.where(y == mu, 0.0, d.fn(y, mu))
        bad = ~np.isfinite(value)
        if bad.any():
            raise NumericalError(f"deviance {d.name} not finite at (y={y[bad][0]}, mu={mu[bad][0]})")
        return value
    y = float(y)
    mu = float(mu)
    d.support.require(y, "y")
    d.omega.require(mu, "mu")
    if y == mu:
        return 0.0
    value = float(d.fn(y, mu))
    if not math.isfinite(value):
        raise NumericalError(f"deviance {d.name} not finite at (y={y}, mu={mu})")
    return value


def unit_variance(d: UnitDeviance, mu: float) -> float:
    """Unit variance function ``V(mu) = 2 / d_mumu(mu; mu)``.

    Uses the registered ``d.variance`` when present, otherwise
    ``_numdiff.derivative`` of ``d(mu; .)`` on Omega, at ``mu`` clipped
    inward off the ends of Omega.
    """
    if not d.regular:
        raise DomainError(f"deviance {d.name} is not regular; no unit variance")
    d.omega.require(mu, "mu")
    if d.variance is not None:
        return float(d.variance(mu))
    mu_c = d.omega.clip_inward(mu, _BOUNDARY_CLIP)
    curving = derivative(lambda m: d.fn(mu_c, m), mu_c, 2, d.omega)
    if not curving > 0.0:
        raise NumericalError(
            f"second derivative of {d.name} at mu={mu} is {curving}; deviance not regular there"
        )
    return 2.0 / curving


def second_derivative_identity(d: UnitDeviance, mu: float) -> tuple[float, float, float]:
    """The three diagonal second derivatives ``(d_yy, d_mumu, d_ymu)`` at ``(mu, mu)``.

    For any regular unit deviance these satisfy
    ``d_yy = d_mumu = -d_ymu = 2/V(mu)``; with a registered ``V`` that is
    the value returned.  Otherwise each is a ``_numdiff.derivative`` at
    ``mu`` clipped inward (the mixed one as two nested first derivatives),
    and callers assert the identity at their own tolerance.
    """
    if not d.regular:
        raise DomainError(f"deviance {d.name} is not regular")
    d.omega.require(mu, "mu")
    if d.variance is not None:
        curving = 2.0 / float(d.variance(mu))
        return (curving, curving, -curving)
    mu_c = d.omega.clip_inward(mu, _BOUNDARY_CLIP)
    return (
        derivative(lambda y: d.fn(y, mu_c), mu_c, 2, d.omega),
        derivative(lambda m: d.fn(mu_c, m), mu_c, 2, d.omega),
        derivative(lambda y: derivative(lambda m: d.fn(y, m), mu_c, 1, d.omega), mu_c, 1, d.omega),
    )


def _map_endpoint(f, x: float, side: int, interval: RealInterval) -> float:
    """Image of an interval endpoint under monotone f, probing open/infinite ends.

    ``side`` is -1 for the lower endpoint, +1 for the upper.  The limit is
    estimated along a geometric probe sequence; divergence is mapped to
    +-inf.
    """
    closed = interval.closed_lower if side < 0 else interval.closed_upper
    if math.isfinite(x) and closed:
        return float(f(x))
    width = interval.width if interval.finite else 1.0
    if math.isfinite(x):
        probes = [x - side * width * 10.0**-k for k in range(3, 13)]
    else:
        probes = [side * 10.0**k for k in range(1, 9)]
    values = []
    for p in probes:
        try:
            v = float(f(p))
        except (ValueError, OverflowError, ZeroDivisionError):
            continue
        if math.isfinite(v):
            values.append(v)
    if not values:
        raise DomainError("cannot determine image interval of the transformation")
    if len(values) >= 2:
        # converging probe sequence -> finite endpoint; otherwise divergence
        if abs(values[-1] - values[-2]) < 1e-6 * (1.0 + abs(values[-1])):
            return values[-1]
        return math.copysign(math.inf, values[-1] - values[-2])
    return values[-1]


def transform_deviance(
    d: UnitDeviance,
    f: Callable[[float], float],
    f_inverse: Callable[[float], float],
    f_prime: Callable[[float], float],
    twice_differentiable: bool = True,
    name: str | None = None,
) -> UnitDeviance:
    """Re-parametrize ``d`` by a monotone one-to-one map ``f: C -> C_f``.

    Returns ``d_f(z; xi) = d(f^{-1}(z); f^{-1}(xi))``.  Monotonicity is
    screened by the sign of ``f_prime`` on a probe grid; a sign change or a
    zero rejects the map.  If ``d`` is regular and ``f`` twice continuously
    differentiable the result is flagged regular, with unit variance
    ``V_f(xi) = V(f^{-1}(xi)) * f'(f^{-1}(xi))^2``.
    """
    probes = d.omega.grid(33, _BOUNDARY_CLIP)
    signs = np.sign([f_prime(p) for p in probes])
    if np.any(signs == 0) or len(set(signs.tolist())) != 1:
        raise DomainError("transformation is not monotone on the deviance domain")
    s = d.support
    lo_img = _map_endpoint(f, s.lower, -1, s)
    hi_img = _map_endpoint(f, s.upper, +1, s)
    if signs[0] > 0:
        new_support = RealInterval(lo_img, hi_img, s.closed_lower, s.closed_upper, s.lattice)
    else:
        new_support = RealInterval(hi_img, lo_img, s.closed_upper, s.closed_lower, s.lattice)
    return UnitDeviance(
        name=name or f"{d.name}_transformed",
        support=new_support,
        fn=el.vectorize(lambda z, xi: d.fn(f_inverse(z), f_inverse(xi))),
        regular=d.regular and twice_differentiable,
    )


def variance_stabilizing_transform(V: VarianceFunction, y_star: float, y: float) -> float:
    """``f(y) = integral_{y_star}^{y} V(v)^{-1/2} dv`` by adaptive quadrature.

    The transformed deviance has constant unit variance 1.  Fails if V
    vanishes (or is invalid) anywhere on the integration path.
    """
    V.domain.require(y_star, "y_star")
    V.domain.require(y, "y")
    if y == y_star:
        return 0.0
    lo, hi = min(y_star, y), max(y_star, y)
    for v in np.linspace(lo, hi, 17):
        value = V.fn(float(v))
        if not value > 0.0:
            raise NumericalError(f"variance function vanishes on the path at {v}")
    integral, err = _quad(lambda v: V.fn(v) ** -0.5, y_star, y)
    if not math.isfinite(integral) or err > 1e-6 * max(1.0, abs(integral)):
        raise NumericalError("quadrature failure in variance stabilizing transform")
    return float(integral)


def _sample_interval(interval: RealInterval, rng: np.random.Generator, n: int):
    lo = interval.lower if math.isfinite(interval.lower) else -10.0
    hi = interval.upper if math.isfinite(interval.upper) else 10.0
    width = hi - lo
    return interval.clip_inward(lo + width * rng.random(n), _BOUNDARY_CLIP)


def check_unit_deviance(d: UnitDeviance, rng: np.random.Generator | None = None, n: int = 100) -> list[str]:
    """Verify the unit-deviance axioms on random probes.

    Returns a list of human-readable failures (empty means all checks
    passed): zero on the diagonal, positivity off it, and — for deviances
    flagged regular — positive diagonal curvature.
    """
    rng = rng or np.random.default_rng(0)
    failures: list[str] = []
    mus = _sample_interval(d.omega, rng, n)
    ys = _sample_interval(d.support, rng, n)
    off_zero = np.nonzero(eval_deviance(d, mus, mus) != 0.0)[0]
    if len(off_zero):
        failures.append(f"d(mu; mu) != 0 at mu={mus[off_zero[0]]}")
    not_positive = np.nonzero(~(eval_deviance(d, ys, mus) > 0.0) & (ys != mus))[0]
    if len(not_positive):
        i = not_positive[0]
        failures.append(f"d(y; mu) <= 0 at (y={ys[i]}, mu={mus[i]})")
    if d.regular:
        for mu in mus[: min(8, n)]:
            try:
                unit_variance(d, float(mu))
            except (DomainError, NumericalError) as exc:
                failures.append(f"curvature check failed at mu={mu}: {exc}")
                break
    return failures


# ----------------------------------------------------------------------
# Built-in deviances: the normal, gamma, Poisson and inverse-Gaussian
# entries are those of their EDMs, derived from the cumulant generators in
# ``edm.FAMILIES``; von Mises and simplex are PDM-only
# ----------------------------------------------------------------------

_CIRCLE = RealInterval(0.0, 2.0 * math.pi, closed_lower=True)

DEVIANCES: dict[str, UnitDeviance] = {
    "normal": unit_deviance_of(FAMILIES["normal"]),
    "gamma": unit_deviance_of(FAMILIES["gamma"]),
    "poisson": unit_deviance_of(FAMILIES["poisson"]),
    "vonmises": UnitDeviance(
        name="vonmises",
        support=_CIRCLE,
        fn=lambda y, mu: 2.0 * (1.0 - el.cos(y - mu)),
        variance=lambda mu: 1.0,
        circular=True,
    ),
    # no registered variance: exercises the FD path
    "simplex": UnitDeviance(
        name="simplex",
        support=UNIT_INTERVAL,
        fn=lambda y, mu: (y - mu) ** 2 / (y * (1.0 - y) * mu**2 * (1.0 - mu) ** 2),
    ),
    "inverse_gaussian": unit_deviance_of(FAMILIES["inverse_gaussian"]),
}

VARIANCE_FUNCTIONS: dict[str, VarianceFunction] = {
    "normal": variance_function_of(FAMILIES["normal"]),
    "gamma": variance_function_of(FAMILIES["gamma"]),
    "poisson": variance_function_of(FAMILIES["poisson"]),
    # the circle's parameter domain includes the representative 0
    "vonmises": VarianceFunction("vonmises", _CIRCLE, lambda mu: 1.0),
    "simplex": VarianceFunction("simplex", UNIT_INTERVAL, lambda mu: mu**3 * (1.0 - mu) ** 3),
    "inverse_gaussian": variance_function_of(FAMILIES["inverse_gaussian"]),
}


def get_deviance(name: str) -> UnitDeviance:
    try:
        return DEVIANCES[name]
    except KeyError:
        raise DomainError(
            f"unknown deviance {name!r}; available: {', '.join(sorted(DEVIANCES))}"
        ) from None
