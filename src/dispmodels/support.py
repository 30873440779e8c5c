"""Real intervals used as supports, parameter domains and dispersion domains.

An interval carries open/closed endpoint flags and an optional ``lattice``
flag marking integer-lattice supports (counting measure).  The convex
support of a lattice set is still the interval itself; the flag only
matters for density evaluation and normalization sums.

``contains``, ``require`` and ``clip_inward`` take a float or an ndarray.
``require`` is the one membership refusal: a float costs one ``contains``
call and a truth test, and an ndarray one vectorized pass that names its
first offender, so a domain check costs O(1) Python calls however many
observations it covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError

__all__ = ["RealInterval", "REALS", "POSITIVE_REALS", "UNIT_INTERVAL"]


@dataclass(frozen=True)
class RealInterval:
    lower: float = -math.inf
    upper: float = math.inf
    closed_lower: bool = False
    closed_upper: bool = False
    lattice: bool = False

    def __post_init__(self):
        if self.lower > self.upper:
            raise DomainError(f"empty interval: [{self.lower}, {self.upper}]")
        if math.isinf(self.lower) and self.closed_lower:
            object.__setattr__(self, "closed_lower", False)
        if math.isinf(self.upper) and self.closed_upper:
            object.__setattr__(self, "closed_upper", False)

    def contains(self, x):
        """Whether ``x`` lies in the interval (nan never does); on an ndarray, entry by entry."""
        lo_ok = x >= self.lower if self.closed_lower else x > self.lower
        hi_ok = x <= self.upper if self.closed_upper else x < self.upper
        return lo_ok & hi_ok

    __contains__ = contains

    def interior(self) -> "RealInterval":
        # built once per interval: dataclasses.replace costs microseconds,
        # and pointwise evaluations ask for the interior on every call
        inner = self.__dict__.get("_interior")
        if inner is None:
            inner = replace(self, closed_lower=False, closed_upper=False, lattice=False)
            object.__setattr__(self, "_interior", inner)
        return inner

    @property
    def finite(self) -> bool:
        return math.isfinite(self.lower) and math.isfinite(self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def clip_inward(self, x: float, frac: float = 1e-6) -> float:
        """Pull ``x`` off an endpoint by ``frac`` of the interval width.

        For unbounded intervals the margin falls back to ``frac`` itself.
        Used to keep finite-difference probes away from boundary
        singularities.
        """
        margin = frac * self.width if self.finite else frac
        lo = self.lower + margin if math.isfinite(self.lower) else -math.inf
        hi = self.upper - margin if math.isfinite(self.upper) else math.inf
        if isinstance(x, np.ndarray):
            return np.clip(x, lo, hi)
        return min(max(x, lo), hi)

    def require(self, x, what: str = "value"):
        """``x`` if it lies in the interval (every entry of an ndarray), else ``DomainError`` naming
        ``x`` or the first entry outside it."""
        inside = self.contains(x)
        if inside is True:  # a float or an int inside
            return x
        if isinstance(x, np.ndarray):
            if np.count_nonzero(inside) == inside.size:
                return x
            x = float(x[~inside].flat[0])
        elif inside:  # a numpy scalar inside
            return x
        raise DomainError(f"{what} {x!r} outside {self}")

    def grid(self, n: int, frac: float = 1e-6, span: float = 10.0) -> np.ndarray:
        """n interior probe points, clipped inward; unbounded sides use ``span``."""
        lo = self.lower if math.isfinite(self.lower) else -span
        hi = self.upper if math.isfinite(self.upper) else span
        return self.clip_inward(np.linspace(lo, hi, n + 2)[1:-1], frac)

    def __str__(self):
        lb = "[" if self.closed_lower else "("
        rb = "]" if self.closed_upper else ")"
        tag = " lattice" if self.lattice else ""
        return f"{lb}{self.lower}, {self.upper}{rb}{tag}"


REALS = RealInterval()
POSITIVE_REALS = RealInterval(0.0, math.inf)
UNIT_INTERVAL = RealInterval(0.0, 1.0)
