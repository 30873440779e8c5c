"""Proper dispersion models: densities a0(tau) b(y) exp(-d(y; mu)/(2 tau)).

The defining property is that the normalizer factorizes into a
tau-part and an observation-part; equivalently the integral
``integral_C b(y) exp(-d(y; mu)/(2 tau)) nu(dy)`` does not depend on mu,
which also makes ``d(Y, mu)`` a pivotal statistic.  The module provides
the quadrature-backed normalizer, density evaluation with a bounded
per-tau memo, yoke machinery for building unit deviances from functions
maximized on the diagonal, a Monte Carlo pivotality diagnostic, and the
transformation-group construction (location models on the line, rotation
models on the circle).

``PdmSpec.carrier``, the deviance's ``fn``, yokes, group actions and
invariant carriers keep the array contract of ``_elementary.call``, so
:func:`pdm_density` takes a whole grid of y in one call, and the normalizer
integral calls them once per round of refinement or block of lattice terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from . import _elementary as el
from ._numdiff import _refined_maxima, _support_integral
from .deviance import UnitDeviance, check_unit_deviance, eval_deviance, unit_variance
from .deviance import DEVIANCES
from .errors import DomainError, NumericalError, lookup, refuses_numerical_failure
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


# a0 per spec: room for a sweep of 128 tau (the evaluate benchmark repeats 30 per model each pass)
_NORMALIZERS = 128
# yoke maxima: a sample_pdm grid (2^14) and a pivotal-check mu's 10^4 draws, so the next mu reuses the grid
_YOKE_MAXIMA = 2**15


@dataclass
class PdmSpec:
    """A proper dispersion model: deviance, carrier and normalizer memo.

    The support is the deviance's.  ``carrier`` takes a float or an
    ndarray.  ``normalizer(tau)`` is a0(tau), memoized per spec for the
    last ``_NORMALIZERS`` distinct tau: the memo is the only mutable state.
    """

    name: str
    deviance: UnitDeviance
    carrier: Callable[[float], float]

    def __post_init__(self):
        self.normalizer = lru_cache(maxsize=_NORMALIZERS)(self._normalizer)

    @property
    def support(self) -> RealInterval:
        return self.deviance.support

    def _normalizer(self, tau: float) -> float:
        probe_mu = self.deviance.omega.clip_inward(
            0.5 * (max(self.support.lower, -1.0) + min(self.support.upper, 1.0)), 1e-3
        )
        return pdm_normalizer(self.deviance, self.carrier, tau, probe_mu)


@refuses_numerical_failure
def pdm_normalizer(d: UnitDeviance, b: Callable[[float], float], tau: float, probe_mu: float) -> float:
    """``a0(tau) = 1 / integral_C b(y) exp(-d(y; mu)/(2 tau)) nu(dy)``, C the support of ``d``.

    For a proper dispersion model the integral does not depend on the
    probe mu; re-evaluating at a different probe must agree within 1e-6
    relative, which is the pivotality diagnostic callers assert.  Where ``d``
    carries its unit variance, ``sqrt(tau V(probe_mu))``, if positive and
    finite, is the integrand's spread, which sizes an infinite end of the
    quadrature (see ``_numdiff``).  A node of
    ``_numdiff._support_integral`` where the exponential underflows adds 0
    unseen by ``b``; a value not finite elsewhere raises ``NumericalError``.
    """
    if not tau > 0.0:
        raise DomainError(f"tau must be positive, got {tau}")
    d.omega.require(probe_mu, "probe_mu")

    def integrand(y: np.ndarray) -> np.ndarray:
        value = np.exp(el.call(d.fn, y, probe_mu) / (-2.0 * tau))
        live = value > 0.0
        value[live] *= el.call(b, y[live])
        return value

    v = math.nan if d.variance is None else tau * el.call(d.variance, probe_mu)
    value, err = _support_integral(integrand, d.support, probe_mu, math.sqrt(v) if 0.0 < v < math.inf else None)
    if not 0.0 < value < math.inf or err > 1e-6 * value:
        raise NumericalError(f"normalizer integral for {d.name} diverged or failed (value={value}, err={err})")
    return 1.0 / value


@refuses_numerical_failure
def pdm_density(p: PdmSpec, y, mu, tau: float):
    """Density ``a0(tau) b(y) exp(-d(y; mu)/(2 tau))`` with cached a0.

    ``y`` and ``mu`` may be ndarrays; :func:`eval_deviance` checks their
    domains before the carrier sees ``y``.
    """
    dev = eval_deviance(p.deviance, y, mu)
    return p.normalizer(tau) * el.call(p.carrier, y) * el.exp(-dev / (2.0 * tau))


# ----------------------------------------------------------------------
# Yokes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class YokeSpec:
    """A bivariate function t(y; theta), under the array contract, expected to peak exactly at theta = y."""

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


def _scan_window(domain: RealInterval, center: float, halfwidth: float) -> tuple[float, float]:
    lo = domain.lower if math.isfinite(domain.lower) else center - halfwidth
    hi = domain.upper if math.isfinite(domain.upper) else center + halfwidth
    if math.isfinite(domain.lower):
        lo = domain.clip_inward(lo, 1e-9)
    if math.isfinite(domain.upper):
        hi = domain.clip_inward(hi, 1e-9)
    return lo, hi


def _maximize_yoke(t: YokeSpec, y: float) -> tuple[float, float, list[tuple[float, float]]]:
    """(argmax, max, the five highest refined local maxima, ends counted) of a scan of t(y; .).

    Each scan is one call of ``t.fn`` at 64 points; the window widens while the best sits on an open edge.
    """
    halfwidth = 8.0
    for _ in range(30):
        lo, hi = _scan_window(t.domain, y, halfwidth)
        xs = np.linspace(lo, hi, 64)
        vals = el.call(t.fn, y, xs)
        best = int(np.argmax(vals))
        on_edge = (best == 0 and not math.isfinite(t.domain.lower)) or (
            best == xs.size - 1 and not math.isfinite(t.domain.upper)
        )
        if not on_edge:
            break
        halfwidth *= 2.0
    candidates = _refined_maxima(lambda th: t.fn(y, th), xs, vals, 1e-10, ends=True)
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
        arg, peak, candidates = _maximize_yoke(t, y)
        if not math.isfinite(peak):
            finite_sup = False
            witnesses.append(f"sup over theta not finite at y={y}")
        rivals = [c for c in candidates if abs(c[1] - peak) <= 1e-9 * (1.0 + abs(peak))]
        spread = max(abs(c[0] - arg) for c in rivals) if rivals else 0.0
        if spread > 1e-6:
            unique = False
            witnesses.append(f"two maximizers at y={y}: theta={arg:.6g} and theta={arg + spread:.6g}")
        theta_hats.append(arg)
    diffs = np.diff(theta_hats)
    monotone = bool(np.all(diffs > 0) or np.all(diffs < 0)) if len(theta_hats) > 1 else True
    if not monotone:
        witnesses.append("theta_hat not strictly monotone on the grid")
    return YokabilityReport(finite_supremum=finite_sup, unique_maximizer=unique, monotone_bijection=monotone,
                            theta_hat=tuple(theta_hats), witnesses=tuple(witnesses))


def yoke_to_deviance(t: YokeSpec) -> UnitDeviance:
    """Unit deviance ``d(y; mu) = 2 [t_hat(y) - t(y; theta_hat(mu))]``.

    ``theta_hat(mu)`` is the maximizer of ``t(mu; .)`` and ``t_hat(y)``
    the maximum of ``t(y; .)``, both numeric, one maximization per
    distinct entry, memoized; ``t`` itself is called once per deviance
    call.  The result is validated against the unit-deviance axioms on a
    probe grid before being returned.
    """
    report = check_yokable(t, t.domain.grid(9, 1e-3, span=4.0))
    if not report.yokable:
        raise DomainError(f"function is not yokable: {'; '.join(report.witnesses)}")

    @lru_cache(maxsize=_YOKE_MAXIMA)
    def argmax_and_max(x: float) -> tuple[float, float]:
        return _maximize_yoke(t, x)[:2]

    def peak(x, which: int):
        if isinstance(x, np.ndarray):
            return np.array([argmax_and_max(v)[which] for v in x.ravel().tolist()]).reshape(x.shape)
        return argmax_and_max(float(x))[which]

    def fn(y, mu):
        return 2.0 * (peak(y, 1) - el.call(t.fn, y, peak(mu, 0)))

    result = UnitDeviance(name=f"yoke[{t.name}]", support=t.domain, fn=fn)
    failures = check_unit_deviance(result, np.random.default_rng(0), n=32)
    if failures:
        raise NumericalError(f"yoke produced an invalid unit deviance: {failures[0]}")
    return result


# ----------------------------------------------------------------------
# Sampling and the pivotal diagnostic
# ----------------------------------------------------------------------

_PIVOTAL_LEVEL, _PIVOTAL_DRAWS = 0.001, 10**4


def sample_pdm(p: PdmSpec, mu: float, tau: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF sampling on a grid of 2^14 points: the cumulative trapezoid rule of the density,
    inverted by ``np.interp`` (monotone, piecewise linear) between its strictly increasing knots."""
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
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(xs) * (dens[1:] + dens[:-1]) / 2.0)))
    total = cdf[-1]
    if not total > 0:
        raise NumericalError("sampler grid has no mass; resolution failure")
    cdf /= total
    # strictly increasing knots for the monotone interpolant
    keep = np.concatenate(([True], np.diff(cdf) > 1e-15))
    if keep.sum() < 8:
        raise NumericalError("sampler grid resolution failure: too few increasing knots")
    u = rng.uniform(cdf[keep][0], cdf[keep][-1], size=size)
    return np.interp(u, cdf[keep], xs[keep])


@dataclass(frozen=True)
class PivotalReport:
    """The pairwise KS tests of :func:`pivotal_check`, passed when every p-value is above ``_PIVOTAL_LEVEL``."""

    mu_list: tuple[float, ...]
    ks_statistics: tuple[tuple[float, float, float], ...]  # (mu_i, mu_j, statistic)
    p_values: tuple[float, ...]

    @property
    def min_p_value(self) -> float:
        return min(self.p_values) if self.p_values else 1.0

    def passed(self) -> bool:
        return self.min_p_value > _PIVOTAL_LEVEL


def _ks_two_sample(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic D and its exact two-sided p-value, for n draws each.

    D = h/n, h the largest gap between the two empirical counts.  The p-value is
    ``2 sum_{j >= 1} (-1)^(j+1) C(2n, n - jh) / C(2n, n)`` (Gnedenko & Korolyuk 1951), the
    binomial ratios from one cumulative product of (n - i + 1)/(n + i), cut where they fall below
    e^-50 (i ~ sqrt(50 n)) but never before the first term.  ``scipy.stats.ks_2samp`` sums the
    same series for n <= 10^4 and switches to an asymptotic p-value above.
    """
    n = len(x)
    x, y = np.sort(x), np.sort(y)
    both = np.concatenate([x, y])
    h = int(np.max(np.abs(np.searchsorted(x, both, side="right") - np.searchsorted(y, both, side="right"))))
    if h == 0:
        return 0.0, 1.0
    i = np.arange(1.0, min(n, max(h, math.ceil(math.sqrt(50.0 * n)))) + 1.0)
    terms = np.cumprod((n - i + 1.0) / (n + i))[h - 1 :: h]  # C(2n, n - jh) / C(2n, n), j = 1, 2, ...
    return h / n, min(1.0, 2.0 * float(terms[0::2].sum() - terms[1::2].sum()))


def pivotal_check(p: PdmSpec, mu_list, tau: float, m: int = _PIVOTAL_DRAWS, seed: int = 0x5EED) -> PivotalReport:
    """Monte Carlo check that d(Y, mu) has a mu-free distribution.

    Draws m samples per mu, computes the deviance statistics, and runs
    pairwise two-sample Kolmogorov-Smirnov tests; for a PDM every p-value is
    expected above ``_PIVOTAL_LEVEL`` at m = ``_PIVOTAL_DRAWS``.  The p-values
    are exact for every m, from the closed form for equal sample sizes, so
    the check does not import ``scipy.stats``.
    """
    if m < 1:
        raise DomainError(f"the pivotal check needs m >= 1 draws per mu, got {m}")
    rng = np.random.default_rng(seed)
    mu_list = [float(mu) for mu in mu_list]
    samples = {mu: eval_deviance(p.deviance, sample_pdm(p, mu, tau, m, rng), mu) for mu in mu_list}
    stats = []
    pvals = []
    for i, mu_i in enumerate(mu_list):
        for mu_j in mu_list[i + 1 :]:
            statistic, pvalue = _ks_two_sample(samples[mu_i], samples[mu_j])
            stats.append((mu_i, mu_j, statistic))
            pvals.append(pvalue)
    return PivotalReport(tuple(mu_list), tuple(stats), tuple(pvals))


# ----------------------------------------------------------------------
# Transformation dispersion models
# ----------------------------------------------------------------------


def transformation_pdm(group_action: Callable[[float, float], float], t: Callable[[float], float],
                       b_invariant: Callable[[float], float], domain: RealInterval, name: str = "transformation",
                       circular: bool = False) -> PdmSpec:
    """Build a PDM from a group acting freely and transitively on the domain.

    ``group_action(g, y)`` is the action (translations on the line,
    rotations ``(g + y) mod 2 pi`` on the circle; the inverse of g is -g
    in this additive parametrization).  ``b_invariant`` must satisfy
    ``b(g y) = b(y)``; ``t`` composed with the inverse action provides the
    yoke whose deviance is ``2 [t_hat - t(g_hat(mu)^-1 y)]``.  The three
    callables keep the array contract of ``_elementary.call``; ``b_invariant``
    is the carrier.
    """
    g = domain.grid(7, 1e-3, span=3.0)[:, None]
    y = domain.grid(9, 1e-3, span=4.0)[None, :]
    b = el.call(b_invariant, np.vstack([y, el.call(group_action, g, y)]))  # at y, then at each g y
    bad = np.argwhere(np.abs(b[1:] - b[0]) > 1e-10)
    if bad.size:
        i, j = bad[0]
        raise DomainError(f"carrier is not invariant under the group action at (g={g[i, 0]}, y={y[0, j]})")

    yoke = YokeSpec(fn=lambda y, g: t(group_action(-g, y)), domain=domain, name=f"{name}-orbit")
    deviance = replace(yoke_to_deviance(yoke), name=name, circular=circular)
    spec = PdmSpec(name=name, deviance=deviance, carrier=b_invariant)
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
    return lookup(PDMS, name, "proper dispersion model")
