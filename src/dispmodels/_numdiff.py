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
pass the domain, never a step.

``_quad`` is the one call of ``quad`` outside the Tweedie Fourier inversion: an
interval whose ends lie on one side of 0 and more than two decades apart
gets a breakpoint per decade, so adaptive bisection cannot miss mass that
sits near its small end.

Two private solvers are written here once: ``_bracketed_newton`` (the
inverse mean mapping, the dispersion MLE) and ``_support_integral`` (the
normalizing integrals and sums of the PDM layer, which the renormalized
saddlepoint shares, and of the self-checks).  Each caller keeps its own error
gate.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import ConvergenceError, DomainError, NumericalError
from .support import REALS, RealInterval

EPS = float(np.finfo(float).eps)
_QUAD_LIMIT = 400

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


def _stencil(f, x: float, h: float, order: int) -> float:
    return sum(w * f(x + offset * h) for offset, w in _STENCILS[order].items()) / h**order


def derivative(f, x: float, order: int, domain: RealInterval = REALS) -> float:
    """The ``order``-th derivative of ``f`` at ``x`` inside the open ``domain``.

    Stencils at h, h/2 and h/4 with two Richardson levels and the step of
    the module docstring.  Orders above 6 are refused: rounding noise at
    the required steps dominates the estimate.
    """
    if order not in _STENCILS:
        raise NumericalError(f"no finite difference of order {order}; register an analytic form")
    if not domain.lower < x < domain.upper:
        raise DomainError(f"finite difference at {x} outside the interior of {domain}")
    scale = max(1.0, abs(x))
    for end in (domain.lower, domain.upper):
        if math.isfinite(end):
            scale = min(scale, abs(x - end))
    h = (EPS * 4.0**order) ** (1.0 / (order + 6)) * scale
    table = [_stencil(f, x, h / 2**i, order) for i in range(3)]
    # Richardson: the error is C h^2 + O(h^4); halving h divides C h^2 by 4
    for factor in (4.0, 16.0):
        table = [(factor * fine - coarse) / (factor - 1.0)
                 for coarse, fine in zip(table, table[1:])]
    value = float(table[0])
    if not math.isfinite(value):
        raise NumericalError(f"finite-difference derivative of order {order} at {x} is not finite")
    return value


def _bracketed_newton(fn, slope, lo: float, hi: float, tol: float, increasing: bool = True,
                      max_iter: int = 200, what: str = "root") -> float:
    """Root of the monotone ``fn`` inside the bracket ``(lo, hi)``.

    Safeguarded Newton from the midpoint: each iterate shrinks the bracket
    by the sign of ``fn``, and a step that leaves the bracket (or a zero or
    non-finite ``slope``) is replaced by bisection, so the iteration cannot
    diverge.  Returns the first iterate with ``|fn| <= tol``; raises
    ``ConvergenceError``, naming the residual and the last iterate, after
    ``max_iter`` evaluations.
    """
    x = 0.5 * (lo + hi)
    for _ in range(max_iter):
        val = fn(x)
        if abs(val) <= tol:
            return x
        if (val < 0.0) == increasing:
            lo = x
        else:
            hi = x
        s = slope(x)
        candidate = x - val / s if s else math.nan
        if not (math.isfinite(candidate) and lo < candidate < hi):
            candidate = 0.5 * (lo + hi)
        x, last = candidate, x
    raise ConvergenceError(
        f"{what} did not converge in {max_iter} iterations: residual {abs(val):.3g} "
        f"at x = {last:.6g} against the tolerance {tol:.3g}"
    )


def _quad(fn, lower: float, upper: float) -> tuple[float, float]:
    """``(integral, error estimate)`` of ``fn`` from ``lower`` to ``upper``.

    ``quad`` with ``limit=400`` and its integration warnings silenced: the
    caller gates the returned error.  When both ends are finite, nonzero,
    on one side of 0 and more than two decades apart, one geometric
    breakpoint per decade (at most ``limit/2``) is passed as ``points``.
    """
    points = None
    if math.isfinite(lower) and math.isfinite(upper) and lower * upper > 0.0:
        decades = abs(math.log10(upper / lower))
        if decades > 2.0:
            count = min(math.ceil(decades) - 1, _QUAD_LIMIT // 2)
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
    10^7 terms, or a start beyond 2^53, raise ``NumericalError``.  Any other support goes to
    ``_quad``.
    """
    if not support.lattice:
        return _quad(fn, support.lower, support.upper)
    lower = math.ceil(max(support.lower, 0.0) if math.isfinite(support.lower) else 0.0)
    start = lower if center is None else max(lower, min(round(center), support.upper))
    if not start < 2**53:
        raise NumericalError(f"lattice sum from {start:.3g}, beyond the integers a float holds")
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
