"""Finite-difference stencils shared across modules.

Second derivatives use 5-point central stencils with steps scaled by the
cube root of machine epsilon; higher orders use central stencils plus
3-level Richardson extrapolation.  Probe points near interval endpoints
are the caller's responsibility (see ``RealInterval.clip_inward``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

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


def fd_step(x: float, scale: float = CBRT_EPS) -> float:
    return max(scale * abs(x), scale)


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


def nth_derivative(f, x: float, order: int, h: float | None = None, levels: int = 3) -> float:
    """Central-stencil n-th derivative with Richardson extrapolation.

    The stencils are all O(h^2); ``levels`` Richardson steps with halved
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
    table = [_stencil_eval(f, x, h / 2**i, order) for i in range(levels)]
    # Richardson: error ~ C h^2, halving h divides the error by 4
    for level in range(1, levels):
        factor = 4.0**level
        table = [
            (factor * table[i + 1] - table[i]) / (factor - 1.0)
            for i in range(len(table) - 1)
        ]
    value = table[0]
    if not math.isfinite(value):
        raise NumericalError(f"finite-difference derivative of order {order} at {x} is not finite")
    return value
