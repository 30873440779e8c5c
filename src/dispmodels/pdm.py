"""Proper dispersion models: densities a0(tau) b(y) exp(-d(y; mu)/(2 tau)).

The defining property is that the normalizer factorizes into a
tau-part and an observation-part; equivalently the integral
``integral_C b(y) exp(-d(y; mu)/(2 tau)) nu(dy)`` does not depend on mu,
which also makes ``d(Y, mu)`` a pivotal statistic.  The module provides
the quadrature-backed normalizer, density evaluation with a thread-safe
per-tau cache, yoke machinery for building unit deviances from functions
maximized on the diagonal, a Monte Carlo pivotality diagnostic, and the
transformation-group construction (location models on the line, rotation
models on the circle).

``PdmSpec.carrier`` and the deviance's ``fn`` take a float or an ndarray,
so :func:`pdm_density` takes a whole grid of y in one call; the float-only
callables of yokes and user carriers are vectorised once, when the model
is built.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import PchipInterpolator

from . import _elementary as el
from ._numdiff import _support_integral
from .deviance import UnitDeviance, check_unit_deviance, eval_deviance, unit_variance
from .deviance import DEVIANCES
from .errors import DomainError, NumericalError
from .support import RealInterval

__all__ = [
    "PdmSpec",
    "YokeSpec",
    "YokabilityReport",
    "PivotalReport",
    "pdm_normalizer",
    "pdm_density",
    "check_yokable",
    "yoke_to_deviance",
    "pivotal_check",
    "transformation_pdm",
    "sample_pdm",
    "get_pdm",
    "PDMS",
]


@dataclass
class PdmSpec:
    """A proper dispersion model: deviance, carrier and normalizer cache.

    The support is the deviance's.  ``carrier`` takes a float or an
    ndarray.  The cache maps tau to a0(tau); it is the only mutable state
    and is guarded by a lock (concurrent duplicate computation is
    tolerated, the first insert wins).
    """

    name: str
    deviance: UnitDeviance
    carrier: Callable[[float], float]
    _cache: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def support(self) -> RealInterval:
        return self.deviance.support

    def normalizer(self, tau: float) -> float:
        with self._lock:
            cached = self._cache.get(tau)
        if cached is not None:
            return cached
        probe_mu = self.deviance.omega.clip_inward(
            0.5 * (max(self.support.lower, -1.0) + min(self.support.upper, 1.0)), 1e-3
        )
        a0 = pdm_normalizer(self.deviance, self.carrier, tau, self.support, probe_mu)
        with self._lock:
            return self._cache.setdefault(tau, a0)


def pdm_normalizer(
    d: UnitDeviance,
    b: Callable[[float], float],
    tau: float,
    C: RealInterval,
    probe_mu: float,
) -> float:
    """``a0(tau) = 1 / integral_C b(y) exp(-d(y; mu)/(2 tau)) nu(dy)``.

    For a proper dispersion model the integral does not depend on the
    probe mu; re-evaluating at a different probe must agree within 1e-6
    relative, which is the pivotality diagnostic callers assert.
    """
    if not tau > 0.0:
        raise DomainError(f"tau must be positive, got {tau}")
    d.omega.require(probe_mu, "probe_mu")

    def integrand(y: float) -> float:
        try:
            dev = eval_deviance(d, y, probe_mu)
            weight = float(b(y))
        except (DomainError, NumericalError, ValueError, OverflowError, ZeroDivisionError):
            return 0.0
        return weight * math.exp(-dev / (2.0 * tau))

    value, err = _support_integral(integrand, C, probe_mu)
    if not math.isfinite(value) or value <= 0.0 or err > 1e-6 * max(value, 1e-300):
        raise NumericalError(
            f"normalizer integral for {d.name} diverged or failed (value={value}, err={err})"
        )
    return 1.0 / value


def pdm_density(p: PdmSpec, y, mu, tau: float):
    """Density ``a0(tau) b(y) exp(-d(y; mu)/(2 tau))`` with cached a0.

    ``y`` and ``mu`` may be ndarrays; :func:`eval_deviance` checks their
    domains before the carrier sees ``y``.
    """
    dev = eval_deviance(p.deviance, y, mu)
    return p.normalizer(tau) * p.carrier(y) * el.exp(-dev / (2.0 * tau))


# ----------------------------------------------------------------------
# Yokes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class YokeSpec:
    """A bivariate function t(y; theta) expected to peak exactly at theta = y."""

    fn: Callable[[float, float], float]
    domain: RealInterval
    name: str = "yoke"


@dataclass(frozen=True)
class YokabilityReport:
    finite_supremum: bool
    unique_maximizer: bool
    monotone_bijection: bool
    theta_hat: tuple[float, ...]
    witnesses: tuple[str, ...]

    @property
    def yokable(self) -> bool:
        return self.finite_supremum and self.unique_maximizer and self.monotone_bijection


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(fn, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    """Maximize unimodal fn on [lo, hi] by golden-section search."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol * (1.0 + abs(a) + abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


def _scan_window(domain: RealInterval, center: float, halfwidth: float = 8.0) -> tuple[float, float]:
    lo = domain.lower if math.isfinite(domain.lower) else center - halfwidth
    hi = domain.upper if math.isfinite(domain.upper) else center + halfwidth
    if math.isfinite(domain.lower):
        lo = domain.clip_inward(lo, 1e-9)
    if math.isfinite(domain.upper):
        hi = domain.clip_inward(hi, 1e-9)
    return lo, hi


def _local_maxima(vals: np.ndarray) -> list[int]:
    """Indices of the scan's local maxima (ends count), highest first."""
    padded = np.concatenate(([-math.inf], vals, [-math.inf]))
    peaks = np.nonzero((vals >= padded[:-2]) & (vals >= padded[2:]))[0]
    return sorted(peaks.tolist(), key=lambda i: -vals[i])


def _maximize_yoke(
    fn, domain: RealInterval, center: float, n_scan: int = 64
) -> tuple[float, float, list[tuple[float, float]]]:
    """(argmax, max, refined local maxima) by coarse scan + golden section.

    The scan window expands while the incumbent sits on an open edge.
    """
    halfwidth = 8.0
    for _ in range(30):
        lo, hi = _scan_window(domain, center, halfwidth)
        xs = np.linspace(lo, hi, n_scan)
        vals = np.array([fn(float(x)) for x in xs])
        best = int(np.argmax(vals))
        on_edge = (best == 0 and not math.isfinite(domain.lower)) or (
            best == n_scan - 1 and not math.isfinite(domain.upper)
        )
        if not on_edge:
            break
        halfwidth *= 2.0
    candidates = []
    for i in _local_maxima(vals)[:5]:
        a = xs[max(i - 1, 0)]
        b = xs[min(i + 1, n_scan - 1)]
        if a == b:
            candidates.append((float(xs[i]), float(vals[i])))
            continue
        x, v = _golden_section(fn, float(a), float(b))
        candidates.append((x, v))
    candidates.sort(key=lambda c: -c[1])
    return candidates[0][0], candidates[0][1], candidates


def check_yokable(t: YokeSpec, grid) -> YokabilityReport:
    """Verify the three yokability conditions on a finite grid of y.

    (i) finite supremum over theta for each y; (ii) unique maximizer
    (multi-start refinements must agree within 1e-6); (iii) the map
    y -> theta_hat(y) strictly monotone across the grid (bijection proxy).
    """
    grid = [float(g) for g in grid]
    witnesses: list[str] = []
    finite_sup = True
    unique = True
    theta_hats: list[float] = []
    for y in grid:
        t.domain.require(y, "grid point")
        arg, peak, candidates = _maximize_yoke(lambda th: t.fn(y, th), t.domain, y)
        if not math.isfinite(peak):
            finite_sup = False
            witnesses.append(f"sup over theta not finite at y={y}")
        rivals = [c for c in candidates if abs(c[1] - peak) <= 1e-9 * (1.0 + abs(peak))]
        spread = max(abs(c[0] - arg) for c in rivals) if rivals else 0.0
        if spread > 1e-6:
            unique = False
            witnesses.append(
                f"two maximizers at y={y}: theta={arg:.6g} and theta={arg + spread:.6g}"
            )
        theta_hats.append(arg)
    diffs = np.diff(theta_hats)
    monotone = bool(np.all(diffs > 0) or np.all(diffs < 0)) if len(theta_hats) > 1 else True
    if not monotone:
        witnesses.append("theta_hat not strictly monotone on the grid")
    return YokabilityReport(
        finite_supremum=finite_sup,
        unique_maximizer=unique,
        monotone_bijection=monotone,
        theta_hat=tuple(theta_hats),
        witnesses=tuple(witnesses),
    )


def yoke_to_deviance(t: YokeSpec) -> UnitDeviance:
    """Unit deviance ``d(y; mu) = 2 [t_hat(y) - t(y; theta_hat(mu))]``.

    ``theta_hat(mu)`` is the maximizer of ``t(mu; .)`` and ``t_hat(y)``
    the maximum of ``t(y; .)``, both numeric and cached.  The result is
    validated against the unit-deviance axioms on a probe grid before
    being returned.
    """
    report = check_yokable(t, t.domain.grid(9, 1e-3, span=4.0))
    if not report.yokable:
        raise DomainError(f"function is not yokable: {'; '.join(report.witnesses)}")

    cache: dict[float, tuple[float, float]] = {}
    lock = threading.Lock()

    def argmax_and_max(x: float) -> tuple[float, float]:
        with lock:
            hit = cache.get(x)
        if hit is not None:
            return hit
        arg, peak, _ = _maximize_yoke(lambda th: t.fn(x, th), t.domain, x)
        with lock:
            return cache.setdefault(x, (arg, peak))

    def fn(y: float, mu: float) -> float:
        t_hat_y = argmax_and_max(y)[1]
        theta_hat_mu = argmax_and_max(mu)[0]
        return 2.0 * (t_hat_y - t.fn(y, theta_hat_mu))

    result = UnitDeviance(name=f"yoke[{t.name}]", support=t.domain, fn=el.vectorize(fn))
    failures = check_unit_deviance(result, np.random.default_rng(0), n=32)
    if failures:
        raise NumericalError(f"yoke produced an invalid unit deviance: {failures[0]}")
    return result


# ----------------------------------------------------------------------
# Sampling and the pivotal diagnostic
# ----------------------------------------------------------------------


def sample_pdm(p: PdmSpec, mu: float, tau: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF sampling on a grid of 2^14 points with monotone cubic interpolation."""
    support = p.support
    if support.lattice:
        raise NumericalError("grid sampler only covers continuous PDMs")
    if support.finite:
        lo = support.clip_inward(support.lower, 1e-9)
        hi = support.clip_inward(support.upper, 1e-9)
    else:
        scale = math.sqrt(tau * unit_variance(p.deviance, mu)) if p.deviance.regular else math.sqrt(tau)
        lo = mu - 14.0 * scale
        hi = mu + 14.0 * scale
        lo = max(lo, support.lower + 1e-12) if math.isfinite(support.lower) else lo
        hi = min(hi, support.upper - 1e-12) if math.isfinite(support.upper) else hi
    xs = np.linspace(lo, hi, 2**14)
    dens = pdm_density(p, xs, mu, tau)
    cdf = cumulative_trapezoid(dens, xs, initial=0.0)
    total = cdf[-1]
    if not total > 0:
        raise NumericalError("sampler grid has no mass; resolution failure")
    cdf /= total
    # strictly increasing knots for the monotone interpolant
    keep = np.concatenate(([True], np.diff(cdf) > 1e-15))
    if keep.sum() < 8:
        raise NumericalError("sampler grid resolution failure: too few increasing knots")
    inverse = PchipInterpolator(cdf[keep], xs[keep], extrapolate=False)
    u = rng.uniform(cdf[keep][0], cdf[keep][-1], size=size)
    return np.asarray(inverse(u))


@dataclass(frozen=True)
class PivotalReport:
    mu_list: tuple[float, ...]
    ks_statistics: tuple[tuple[float, float, float], ...]  # (mu_i, mu_j, statistic)
    p_values: tuple[float, ...]

    @property
    def min_p_value(self) -> float:
        return min(self.p_values) if self.p_values else 1.0

    def passed(self, threshold: float = 0.001) -> bool:
        return self.min_p_value > threshold


def pivotal_check(
    p: PdmSpec, mu_list, tau: float, m: int = 10**4, seed: int = 0x5EED
) -> PivotalReport:
    """Monte Carlo check that d(Y, mu) has a mu-free distribution.

    Draws m samples per mu, computes the deviance statistics, and runs
    pairwise two-sample Kolmogorov-Smirnov tests; all pairwise p-values
    are expected above 0.001 at m = 10^4 when the model is a PDM.
    """
    from scipy.stats import ks_2samp  # lazy: scipy.stats is slow to import

    if m < 1:
        raise DomainError(f"the pivotal check needs m >= 1 draws per mu, got {m}")
    rng = np.random.default_rng(seed)
    mu_list = [float(mu) for mu in mu_list]
    samples = {mu: eval_deviance(p.deviance, sample_pdm(p, mu, tau, m, rng), mu) for mu in mu_list}
    stats = []
    pvals = []
    for i, mu_i in enumerate(mu_list):
        for mu_j in mu_list[i + 1 :]:
            res = ks_2samp(samples[mu_i], samples[mu_j])
            stats.append((mu_i, mu_j, float(res.statistic)))
            pvals.append(float(res.pvalue))
    return PivotalReport(tuple(mu_list), tuple(stats), tuple(pvals))


# ----------------------------------------------------------------------
# Transformation dispersion models
# ----------------------------------------------------------------------


def transformation_pdm(
    group_action: Callable[[float, float], float],
    t: Callable[[float], float],
    b_invariant: Callable[[float], float],
    domain: RealInterval,
    name: str = "transformation",
    circular: bool = False,
) -> PdmSpec:
    """Build a PDM from a group acting freely and transitively on the domain.

    ``group_action(g, y)`` is the action (translations on the line,
    rotations ``(g + y) mod 2 pi`` on the circle; the inverse of g is -g
    in this additive parametrization).  ``b_invariant`` must satisfy
    ``b(g y) = b(y)``; ``t`` composed with the inverse action provides the
    yoke whose deviance is ``2 [t_hat - t(g_hat(mu)^-1 y)]``.  The float-only
    ``b_invariant`` is vectorised once to serve as the carrier.
    """
    probes_y = domain.grid(9, 1e-3, span=4.0)
    probes_g = domain.grid(7, 1e-3, span=3.0)
    for g in probes_g:
        for y in probes_y:
            moved = group_action(float(g), float(y))
            if abs(float(b_invariant(moved)) - float(b_invariant(float(y)))) > 1e-10:
                raise DomainError(
                    f"carrier is not invariant under the group action at (g={g}, y={y})"
                )

    yoke = YokeSpec(
        fn=lambda y, g: float(t(group_action(-g, y))),
        domain=domain,
        name=f"{name}-orbit",
    )
    deviance = replace(yoke_to_deviance(yoke), name=name, circular=circular)
    spec = PdmSpec(name=name, deviance=deviance, carrier=el.vectorize(b_invariant))
    # existence probe: the normalizer must be finite at tau = 1
    spec.normalizer(1.0)
    return spec


# ----------------------------------------------------------------------
# Built-in proper dispersion models
# ----------------------------------------------------------------------


# one spec per model, so that its normalizer cache lives as long as the process
PDMS: dict[str, PdmSpec] = {
    name: PdmSpec(name=name, deviance=DEVIANCES[name], carrier=carrier)
    for name, carrier in (
        ("vonmises", lambda y: 1.0),
        ("simplex", lambda y: (y * (1.0 - y)) ** -1.5),
        ("normal", lambda y: 1.0),
        ("gamma", lambda y: 1.0 / y),
    )
}


def get_pdm(name: str) -> PdmSpec:
    try:
        return PDMS[name]
    except KeyError:
        raise DomainError(
            f"unknown proper dispersion model {name!r}; available: {', '.join(sorted(PDMS))}"
        ) from None
