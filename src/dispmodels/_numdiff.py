"""Numerical routines shared across modules.

Finite differences: second derivatives use 5-point central stencils with
steps scaled by the cube root of machine epsilon; higher orders use
central stencils plus 3-level Richardson extrapolation.  Probe points near
interval endpoints are the caller's responsibility (see
``RealInterval.clip_inward``).

Two private solvers are written here once: ``_bracketed_newton`` (the
inverse mean mapping, the dispersion MLE) and ``_support_integral`` (the
normalizing integrals and sums of the saddlepoint, PDM, self-check and
Tweedie layers).  Each caller keeps its own error gate.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import ConvergenceError, NumericalError

EPS = float(np.finfo(float).eps)
CBRT_EPS = EPS ** (1.0 / 3.0)

__all__ = [
    "EPS",
    "CBRT_EPS",
    "fd_step",
    "second_derivative",
    "mixed_second_derivative",
    "first_derivative",
    "nth_derivative",
]


def fd_step(x: float) -> float:
    return max(CBRT_EPS * abs(x), CBRT_EPS)


def first_derivative(f, x: float, h: float | None = None) -> float:
    """4th-order central first derivative."""
    if h is None:
        h = fd_step(x)
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def second_derivative(f, x: float, h: float | None = None) -> float:
    """5-point central second derivative, O(h^4) truncation."""
    if h is None:
        h = fd_step(x)
    return (
        -f(x - 2 * h) + 16 * f(x - h) - 30 * f(x) + 16 * f(x + h) - f(x + 2 * h)
    ) / (12 * h * h)


def mixed_second_derivative(f, x: float, y: float, h: float | None = None, k: float | None = None) -> float:
    """Cross-stencil mixed partial d2 f / dx dy."""
    if h is None:
        h = fd_step(x)
    if k is None:
        k = fd_step(y)
    return (f(x + h, y + k) - f(x + h, y - k) - f(x - h, y + k) + f(x - h, y - k)) / (4 * h * k)


# Central stencil coefficients (offset -> weight, divided by h^order), O(h^2).
_STENCILS = {
    1: {-1: -0.5, 1: 0.5},
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    3: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
    4: {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0},
    5: {-3: -0.5, -2: 2.0, -1: -2.5, 1: 2.5, 2: -2.0, 3: 0.5},
    6: {-3: 1.0, -2: -6.0, -1: 15.0, 0: -20.0, 1: 15.0, 2: -6.0, 3: 1.0},
}


def _stencil_eval(f, x, h, order):
    weights = _STENCILS[order]
    acc = 0.0
    for offset, w in weights.items():
        acc += w * f(x + offset * h)
    return acc / h**order


def nth_derivative(f, x: float, order: int, h: float | None = None) -> float:
    """Central-stencil n-th derivative with Richardson extrapolation.

    The stencils are all O(h^2); three Richardson levels with halved
    steps raise the order by 2 per level.  Orders above 6 are refused:
    rounding noise at the required step sizes dominates the estimate.
    """
    if order < 1:
        raise ValueError("derivative order must be >= 1")
    if order > 6:
        raise NumericalError(
            f"numerical derivative of order {order} is unstable; register an analytic form"
        )
    if h is None:
        # balance truncation O(h^2) against rounding O(eps / h^order)
        h = max(EPS ** (1.0 / (order + 2)) * abs(x), EPS ** (1.0 / (order + 2)))
    table = [_stencil_eval(f, x, h / 2**i, order) for i in range(3)]
    # Richardson: error ~ C h^2, halving h divides the error by 4
    for level in range(1, 3):
        factor = 4.0**level
        table = [
            (factor * table[i + 1] - table[i]) / (factor - 1.0)
            for i in range(len(table) - 1)
        ]
    value = table[0]
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


def _support_integral(fn, support) -> tuple[float, float]:
    """``(integral, error estimate)`` of ``fn`` over a ``RealInterval``.

    A lattice support is summed over its integer points from
    ``max(lower, 0)``, stopping after three consecutive terms below 1e-14
    of the running total (the error estimate is then the last term) or at
    the upper end (error 0); more than 10^7 terms raise
    ``NumericalError``.  Any other support goes to ``quad`` with
    ``limit=400``, its integration warnings silenced: the caller gates the
    returned error.
    """
    if not support.lattice:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            value, err = quad(fn, support.lower, support.upper, limit=400)
        return float(value), float(err)
    k = math.ceil(max(support.lower, 0.0) if math.isfinite(support.lower) else 0.0)
    total, quiet = 0.0, 0
    while k <= support.upper:
        term = fn(float(k))
        total += term
        quiet = quiet + 1 if term < 1e-14 * total else 0
        if quiet >= 3:
            return total, term
        k += 1
        if k > 10**7:
            raise NumericalError("lattice sum did not converge within 10^7 terms")
    return total, 0.0
