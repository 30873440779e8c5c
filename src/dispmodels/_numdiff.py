"""Numerical routines shared across modules.

``derivative`` is the one finite-difference routine.  It evaluates the
O(h^2) central stencil of order r (1 to 6) at the steps h, h/2 and h/4 and
extrapolates twice (Richardson), which leaves an O(h^6) truncation error.
Rounding in the finest stencil costs about eps |f| / (h/4)^r, and the two
balance where h^6 = eps 4^r / h^r, so the step is

    h = (eps 4^r)^(1/(r+6)) * min(max(1, |x|), distance from x to the
                                  nearest finite end of the domain).

The second factor is the length on which f varies: |x| away from the
origin, and the distance to a finite boundary, where generators and
deviances are singular.  The first factor is below 0.1 for every order and
the widest stencil reaches 3h, so no probe leaves the domain.  Callers
pass the domain, never a step.  ``derivative`` has one array path: ``f``
is called once on all stencil points of every entry, and a float runs as a
0-d array and returns a float.  ``_bracketed_newton`` runs floats and
ndarrays alike, one call of ``fn`` per iteration.

``_quad`` is the one call of ``quad``: an interval whose ends lie on one
side of 0 and more than two decades apart gets a breakpoint per decade, so
adaptive bisection cannot miss mass that sits near its small end.  Both import ``scipy.integrate`` (which loads
``scipy.optimize`` and ``scipy.special``) on their first call, so fits,
deviances and the closed-form densities never load it.  No module of the
package imports scipy when it loads: ``scipy.special`` comes with the first
special-function call, through ``_elementary.special``.

Three private solvers are written here once: ``_bracketed_newton`` (the
inverse mean mapping, the dispersion MLE), ``_support_integral`` (the
normalizing integrals and sums of the PDM layer, which the renormalized
saddlepoint shares, and of the self-checks) and ``_refined_maxima`` (the
maximizer of yokes and the lattice scan of characteristic functions).  Each
caller keeps its own error gate.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np

from .errors import ConvergenceError, DomainError, NumericalError
from .support import REALS, RealInterval

EPS = float(np.finfo(float).eps)
_QUAD_LIMIT = 400
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

__all__ = ["EPS", "derivative"]

# Central stencil coefficients (offset -> weight, divided by h^order), O(h^2).
_STENCILS = {
    1: {-1: -0.5, 1: 0.5},
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    3: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
    4: {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0},
    5: {-3: -0.5, -2: 2.0, -1: -2.5, 1: 2.5, 2: -2.0, 3: 0.5},
    6: {-3: 1.0, -2: -6.0, -1: 15.0, 0: -20.0, 1: 15.0, 2: -6.0, 3: 1.0},
}
# order -> the offsets of the stencils at h, h/2 and h/4 in units of h, a row each, and their
# weights times 2^(i order), as the stencil at h/2^i divides by (h/2^i)^order = h^order / 2^(i order)
_GRIDS = {order: (np.outer([1.0, 0.5, 0.25], list(stencil)),
                  np.outer([1.0, 2.0**order, 4.0**order], list(stencil.values())))
          for order, stencil in _STENCILS.items()}


def _length_scale(x, domain: RealInterval):
    """``min(max(1, |x|), distance from x to the nearest finite end of domain)``, entry by entry."""
    scale = np.maximum(1.0, abs(x))
    for end in (domain.lower, domain.upper):
        if math.isfinite(end):
            scale = np.minimum(scale, abs(x - end))
    return scale


def derivative(f, x, order: int, domain: RealInterval = REALS):
    """The ``order``-th derivative of ``f`` at ``x`` inside the open ``domain``.

    Stencils at h, h/2 and h/4 with two Richardson levels and the step of
    the module docstring; orders above 6 are refused (rounding noise at the
    required steps dominates).  ``f`` must take ndarrays: it is called once
    on every stencil point, each entry with its own step, so an entry of an
    ndarray equals its call on that entry alone.  A float runs as a 0-d
    array and returns a float.  A point outside the domain raises
    ``DomainError`` (naming the entry of an n-d ``x``).  A value that is not
    finite raises ``NumericalError`` for a float or a 0-d array; an n-d
    array returns it for the caller to gate.
    """
    if order not in _STENCILS:
        raise NumericalError(f"no finite difference of order {order}; register an analytic form")
    x = np.asarray(x, dtype=float)
    h = (EPS * 4.0**order) ** (1.0 / (order + 6)) * _length_scale(x, domain)
    if x.size and not domain.lower < x.min() <= x.max() < domain.upper:
        if not x.ndim:
            raise DomainError(f"finite difference at {float(x)} outside the interior of {domain}")
        i = int(np.argmax(~((domain.lower < x) & (x < domain.upper))))
        raise DomainError(f"finite difference at entry {i}, {x.flat[i]}, outside the interior "
                          f"of {domain}")
    offsets, weights = (a.reshape(a.shape + (1,) * x.ndim) for a in _GRIDS[order])
    with np.errstate(invalid="ignore", over="ignore"):
        # a running sum (cumsum adds in order) rounds each entry as a sum over its own stencil
        value = _richardson((weights * f(x + offsets * h)).cumsum(axis=1)[:, -1], h, order)
    if x.ndim:
        return value
    if not math.isfinite(value):
        raise NumericalError(f"finite-difference derivative of order {order} at {float(x)} is not finite")
    return float(value)


def _richardson(sums, h, order: int):
    """The derivative from the stencil sums at h, h/2 and h/4, each times 2^(i order).

    Over h^order they estimate it with errors C h^2 / 4^i + O(h^4), so two
    Richardson levels remove C h^2.  ``sums`` has a row per step, each of
    ``h``'s shape (0-d for a float).
    """
    s0, s1, s2 = sums
    coarse, fine = (4.0 * s1 - s0) / 3.0, (4.0 * s2 - s1) / 3.0
    return (16.0 * fine - coarse) / 15.0 / math.prod([h] * order)


def _bracketed_newton(fn, slope, lo, hi, tol, increasing: bool = True, max_iter: int = 200,
                      what: str = "root"):
    """Roots of the monotone ``fn`` inside the brackets ``(lo, hi)``, floats or ndarrays.

    Safeguarded Newton from the midpoint: each iterate shrinks the bracket
    by the sign of ``fn``, and a step that leaves the bracket (or a zero or
    non-finite ``slope``) is replaced by bisection, so the iteration cannot
    diverge.  Each entry takes these steps in its own bracket and stops at
    its first iterate with ``|fn| <= tol`` (then stays put); ``fn`` and
    ``slope`` see all iterates in one call per iteration.  Floats run as 0-d
    arrays and return a float.  After ``max_iter`` evaluations raises
    ``ConvergenceError`` naming the residual, the last iterate and, for an
    ndarray, the first entry that did not stop.
    """
    x = 0.5 * (np.asarray(lo, dtype=float) + np.asarray(hi, dtype=float))
    tol = np.broadcast_to(tol, np.shape(x))
    running = np.ones(np.shape(x), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_iter):
            val = np.asarray(fn(x), dtype=float)
            running &= ~(np.abs(val) <= tol)
            if not running.any():
                return x if np.ndim(x) else float(x)
            up = (val < 0.0) == increasing
            lo, hi = np.where(up, x, lo), np.where(up, hi, x)  # a stopped entry's bracket is not read
            candidate = x - val / slope(x)  # a zero slope gives a non-finite candidate
            inside = (lo < candidate) & (candidate < hi)  # false where it is nan or infinite
            x, last = np.where(running, np.where(inside, candidate, 0.5 * (lo + hi)), x), x
    i = int(np.argmax(running))
    val, last, tol = (np.ravel(a)[i] for a in (val, last, tol))
    where = f" at entry {i}" if np.ndim(x) else ""
    raise ConvergenceError(
        f"{what}{where} did not converge in {max_iter} iterations: residual {abs(val):.3g} "
        f"at x = {last:.6g} against the tolerance {tol:.3g}"
    )


def _refined_maxima(fn, xs: np.ndarray, vals: np.ndarray, tol: float, floor: float = -math.inf,
                    ends: bool = False) -> list[tuple[float, float]]:
    """``(x, fn(x))`` at the local maxima of the scan ``vals = fn(xs)``, refined, highest first.

    A maximum is a scan point at least as high as its neighbours; the first
    and last points count only when ``ends`` is set.  The five highest
    whose scan value is at least ``floor`` are refined by golden section
    between their neighbours until the bracket [a, b] is below
    ``tol (1 + |a| + |b|)``.  Golden section needs no smoothness, so a cusped
    peak is found as closely as a smooth one.
    """
    edge = -math.inf if ends else math.inf
    padded = np.concatenate(([edge], vals, [edge]))
    peaks = np.nonzero((vals >= padded[:-2]) & (vals >= padded[2:]) & (vals >= floor))[0]
    peaks = peaks[np.argsort(-vals[peaks], kind="stable")][:5]
    found = []
    for i in peaks.tolist():
        a, b = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, len(xs) - 1)])
        c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
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
        found.append((x, fn(x)))
    return sorted(found, key=lambda peak: -peak[1])


def _quad(fn, lower: float, upper: float) -> tuple[float, float]:
    """``(integral, error estimate)`` of ``fn`` from ``lower`` to ``upper``.

    ``quad`` with ``limit=400`` and its integration warnings silenced: the
    caller gates the returned error.  When both ends are finite, nonzero,
    on one side of 0 and more than two decades apart, one geometric
    breakpoint per decade (at most ``limit/2``) is passed as ``points``.
    ``scipy.integrate`` is imported on the first call, not with the package.
    """
    from scipy.integrate import IntegrationWarning, quad

    points = None
    if math.isfinite(lower) and math.isfinite(upper) and lower * upper > 0.0:
        decades = abs(math.log10(upper / lower))
        if decades > 2.0:
            count = min(math.ceil(decades) - 1, _QUAD_LIMIT // 2)
            with np.errstate(over="ignore"):  # of an end within rounding of the largest float
                points = np.geomspace(lower, upper, count + 2)[1:-1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, err = quad(fn, lower, upper, limit=_QUAD_LIMIT, points=points)
    return float(value), float(err)


def _support_integral(fn, support, center: Optional[float] = None) -> tuple[float, float]:
    """``(integral, error estimate)`` of ``fn`` over a ``RealInterval``.

    A lattice support is summed over its integer points from ``max(lower, 0)`` upward, a run
    stopping after three consecutive terms below 1e-14 of the running total (the error estimate
    then gains the last term) or at an end of the support.  Given the ``center`` where ``fn``
    peaks, the sum runs up from the lattice point nearest it and then down from there, and a zero
    term counts as negligible too, so a sum whose every term underflows stops at once.  More than
    10^7 terms, a start beyond 2^53, or a term 10^7 points above the centre not below 1e-14 of the
    centre's (told before summing), raise ``NumericalError``.  Any other support goes to ``_quad``.
    """
    if not support.lattice:
        return _quad(fn, support.lower, support.upper)
    lower = math.ceil(max(support.lower, 0.0) if math.isfinite(support.lower) else 0.0)
    start = lower if center is None else max(lower, min(round(center), support.upper))
    if not start < 2**53:
        raise NumericalError(f"lattice sum from {start:.3g}, beyond the integers a float holds")
    if center is not None and start + 10**7 <= support.upper and fn(start + 1e7) > 1e-14 * fn(float(start)):
        raise NumericalError(f"lattice sum from {start} cannot converge within 10^7 terms: the term "
                             "10^7 points above it is not below 1e-14 of its own")
    total, error, terms = 0.0, 0.0, 0
    for k, step in ((start, 1), (start - 1, -1)):
        quiet = 0
        while lower <= k <= support.upper and quiet < 3:
            term = fn(float(k))
            total += term
            negligible = term < 1e-14 * total or (center is not None and term == 0.0)
            quiet = quiet + 1 if negligible else 0
            k, terms = k + step, terms + 1
            if terms > 10**7:
                raise NumericalError("lattice sum did not converge within 10^7 terms")
        error += term if quiet >= 3 else 0.0
    return total, error
