"""Elementary functions that take a float or an ndarray.

The family callables (``b``, ``b''``, the mean inverse, closed-form
deviances, ``dc/dtau``) are written once and serve both the pointwise API
and the array path of IRLS.  A float goes to ``math``, an ndarray to numpy:
a numpy ufunc on a Python float costs about three times the ``math`` call
and returns a numpy scalar that slows the arithmetic after it, and the
pointwise API must not pay for the array path.  :func:`power_deviance` is
the one kernel of the gamma, Poisson, binomial, negative binomial and
Tweedie deviances.

:func:`call` holds the array contract of every callable a library user
passes in: it takes a float or an ndarray in each argument, like the family
callables.  A float-only callable, such as ``math.cos``, is refused.

``special`` is ``scipy.special``, imported on its first attribute lookup:
``import dispmodels`` loads no scipy module, and deviances, IRLS fits
without the dispersion MLE and the cf construction never load it.
``scipy.interpolate`` loads with the first sample; quadrature is
``_numdiff``'s own and loads no scipy module, and no module loads
``scipy.stats``: the pivotal check's Kolmogorov-Smirnov p-value is
``pdm``'s own closed form.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import DispersionModelError, DomainError

__all__ = ["log", "log1p", "exp", "sqrt", "cos", "tan", "atan", "positive_part", "power_deviance", "call", "special"]

# |x| = |y - mu|/mu below which J_p is its series: the closed forms lose eps/|x|, 5e-15 at the edge
_SERIES_BAND = 0.05
# log 0 as the most negative float, so that 0 log 0 = 0 and expm1(a log 0) = -1 for a > 0
_LOG_ZERO = -sys.float_info.max
_LOG_MAX = math.log(sys.float_info.max)
# x below which 1 + x, about eps mu/(2 y) off, keeps fewer digits than log y - log mu
_FAR_BELOW = -0.9375


def _dispatch(scalar, array):
    def fn(x):
        if type(x) is float or not isinstance(x, np.ndarray):
            return scalar(x)
        return array(x)

    fn.__name__ = scalar.__name__
    return fn


log = _dispatch(math.log, np.log)
log1p = _dispatch(math.log1p, np.log1p)
exp = _dispatch(math.exp, np.exp)
sqrt = _dispatch(math.sqrt, np.sqrt)
cos = _dispatch(math.cos, np.cos)
tan = _dispatch(math.tan, np.tan)
atan = _dispatch(math.atan, np.arctan)
_expm1 = _dispatch(math.expm1, np.expm1)


class _LazySpecial:
    def __getattr__(self, name):  # only on a miss: later lookups find the stored ufunc
        import scipy.special

        setattr(self, name, getattr(scipy.special, name))
        return self.__dict__[name]


special = _LazySpecial()


def power_deviance(p: float, y, mu, delta=None):
    """Unit deviance ``d_p(y; mu) = 2 integral_mu^y (y - t) t^(-p) dt = 2 mu^(2-p) J_p(x)``.

    ``J_p(x) = integral_0^x (x - s)(1 + s)^(-p) ds``, ``x = delta/mu``; pass ``delta = y - mu``
    where the caller has it exactly (the binomial's ``1 - y`` term).  J_p is its series for |x|
    below ``_SERIES_BAND``, else ``((1 + x) E_{1-p} - x)/(2 - p)`` for p < 3/2 and ``(x -
    E_{2-p})/(p - 1)`` otherwise, ``E_a = expm1(a L)/a``, ``E_0 = L`` (:func:`_closed_form`), off
    by about eps/|x|.  L = log(1 + x) is ``log y - log mu`` where 1 + x loses digits (y < mu/16)
    or overflows, and ``(1 + x)^(2 - p)`` is 0 for y <= 0 (the Tweedie ``max(y, 0)`` convention,
    p < 2).  Floats and ndarrays both.  An ndarray takes the closed form, whose cost is numpy's fixed
    cost per call at up to 10^4 entries, on every entry, and the series and the log fix only on the
    entries that select them, which none may; an entry that overflows is redone by the float path.
    The float path and numpy's log1p, expm1 and power differ in the last bit of some arguments.
    """
    if delta is None:
        delta = y - mu
    if type(y) is float and type(mu) is float or not (isinstance(y, np.ndarray) or isinstance(mu, np.ndarray)):
        try:
            scale = 2.0 if p == 2.0 else 2.0 * mu ** (2.0 - p)
        except OverflowError:  # p > 2 at a tiny mu, or p < 0 at a huge one: d = mu^(2-p) d_p(y/mu; 1)
            log_d = math.log(power_deviance(p, y / mu, 1.0, delta / mu)) + (2.0 - p) * math.log(mu)
            return math.exp(log_d) if log_d < _LOG_MAX else math.inf
        x = delta / mu
        if abs(x) < _SERIES_BAND:
            return scale * _series(p, x)
        if _FAR_BELOW < x < math.inf:
            log_ratio = math.log1p(x)
        else:  # 1 + x has lost digits or overflowed
            log_ratio = math.log(y) - math.log(mu) if y > 0.0 else _LOG_ZERO
        scale_x = scale * x if x < math.inf else scale * delta / mu
        if abs(scale_x) == math.inf:  # d is scale J_p(x) > 0, and overflows with scale x
            return math.inf
        try:
            if scale > 0.0:
                return _closed_form(p, scale, scale_x, log_ratio)
        except OverflowError:  # of a power of 1 + x in expm1
            pass
        # there, or where scale underflowed, p is 0.48 or more from 1 and 2: the (1-p)(2-p) form holds
        if scale == 0.0:  # scale * x is 0 as well, which would drop the y-linear term
            scale_x = 2.0 * mu ** (1.0 - p) * delta
        try:
            power = 2.0 * max(y, 0.0) ** (2.0 - p) - scale
        except OverflowError:  # of the y^(2-p) > 0 of d, p outside [1, 2]
            return math.inf
        return (power - (2.0 - p) * scale_x) / ((1.0 - p) * (2.0 - p))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = delta / mu
        if x.ndim == 0:  # 0-d arrays: numpy ufuncs return scalars for them
            return power_deviance(p, float(y), float(mu), float(delta))
        scale = 2.0 if p == 2.0 else 2.0 * np.power(mu, 2.0 - p)
        # below _FAR_BELOW: log 0, then log y - log mu where y > 0 (log1p itself is slow at y = 0)
        log_ratio = np.log1p(np.maximum(x, _FAR_BELOW))
        below = x <= _FAR_BELOW
        if np.count_nonzero(below):
            log_ratio[below] = _LOG_ZERO
            logs = below & (y > 0.0)
            if np.count_nonzero(logs):
                log_ratio[logs] = np.log(_at(y, logs)) - np.log(_at(mu, logs))
        d = _closed_form(p, scale, scale * x, log_ratio)
        near = np.abs(x) < _SERIES_BAND
        if np.count_nonzero(near):
            d[near] = _at(scale, near) * _series(p, x[near])
        # where x, scale or a power of 1 + x overflowed, or scale underflowed, the float path works from logs
        redo = ~np.isfinite(d) if p == 2.0 else ~np.isfinite(d) | (scale == 0.0)
        for i in zip(*np.nonzero(redo)):
            d[i] = power_deviance(p, *(float(np.broadcast_to(a, x.shape)[i]) for a in (y, mu, delta)))
        return d


def _at(a, mask):
    """The entries at ``mask`` of ``a``, which broadcasts to ``mask``'s shape; a 0-d ``a`` is every entry."""
    if np.ndim(a) == 0:
        return a
    return (a if a.shape == mask.shape else np.broadcast_to(a, mask.shape))[mask]


def _closed_form(p: float, scale, scale_x, log_ratio):
    """``scale J_p(x)`` from ``scale = 2 mu^(2-p)``, ``scale_x = scale x`` and ``log_ratio = L =
    log(1 + x)`` by one of two forms, with ``E_a = expm1(a L)/a`` and ``E_0 = L``:

        p < 3/2:   ((scale + scale_x) E_{1-p} - scale_x) / (2 - p),
        p >= 3/2:  (scale_x - scale E_{2-p}) / (p - 1),

    neither of which leaves a 1/(p - 1) or 1/(2 - p) to cancel.  For 1 < p < 3/2 below the mean,
    where 1 + x may have lost digits, the product is ``scale (1 + x)^(2-p) E_{p-1}``.
    """
    if p >= 1.5:
        a = 2.0 - p
        return (scale_x - scale * (_expm1(a * log_ratio) / a if a else log_ratio)) / (p - 1.0)
    if p <= 1.0 or type(log_ratio) is float and log_ratio >= 0.0:
        a = 1.0 - p
        product = (scale + scale_x) * (_expm1(a * log_ratio) / a if a else log_ratio)
    elif type(log_ratio) is float:
        product = scale * math.exp((2.0 - p) * log_ratio) * (math.expm1((p - 1.0) * log_ratio) / (p - 1.0))
    else:  # an ndarray, each entry in the product for its side of the mean
        # at y = 0 the product is (scale + scale_x) expm1(0) = 0 from L = 0, not from exp of (2 - p) log 0,
        # which takes a slow path
        log_ratio = np.where(log_ratio > _LOG_ZERO, log_ratio, 0.0)
        below = log_ratio < 0.0
        a = np.where(below, p - 1.0, 1.0 - p)
        factor = np.where(below, scale * np.exp((2.0 - p) * log_ratio), scale + scale_x)
        product = factor * (np.expm1(a * log_ratio) / a)
    return (product - scale_x) / (2.0 - p)


@lru_cache(maxsize=64)
def _series_coefficients(p: float) -> tuple[float, ...]:
    """``c_14, ..., c_0`` of ``J_p(x) = x^2 sum_j c_j x^j``, ``c_j = (-1)^j (p)_j / (j + 2)!``: inside
    the band the first term left out is below 2e-17 of the sum for p < 6."""
    c = accumulate(range(1, 15), lambda c_j, j: -c_j * (p + j - 1.0) / (j + 2.0), initial=0.5)
    return tuple(reversed(list(c)))


def _series(p: float, x):
    """J_p(x) by Horner's rule on its series."""
    s = 0.0
    for c_j in _series_coefficients(p):
        s = s * x + c_j
    return s * x * x


def positive_part(x):
    """``max(x, 0)``."""
    return np.maximum(x, 0.0) if isinstance(x, np.ndarray) else max(x, 0.0)


def call(fn, *args):
    """``fn(*args)`` under the array contract: float arguments give a float; when any argument is
    an ndarray, ``fn`` returns values that broadcast to the arguments' broadcast shape (so ``lambda
    t: 1.0`` keeps it), and the value is a fresh float ndarray of that shape: ``fn``'s own value
    where that is one (it owns its memory and is none of the arguments), else a copy.  A ``fn`` that raises
    ``TypeError`` or ``ValueError`` on an ndarray, or returns values that do not broadcast, is
    refused with ``DomainError``: it is never looped over entry by entry."""
    shape = None
    for a in args:  # a loop: a generator in ``any`` would triple the cost of the float path
        if isinstance(a, np.ndarray):
            shape = a.shape if shape is None or shape == a.shape else np.broadcast_shapes(shape, a.shape)
    if shape is None:
        return float(fn(*args))
    try:
        value = fn(*args)
        fresh = type(value) is np.ndarray and value.base is None and all(value is not a for a in args)
        if fresh and value.shape == shape and value.dtype == float:
            return value
        return np.full(shape, value, dtype=float)
    except DispersionModelError:
        raise
    except (TypeError, ValueError) as exc:
        raise DomainError(
            f"{getattr(fn, '__name__', fn)} breaks the array contract: it must take a float or an ndarray "
            f"in each argument and return values that broadcast to their shape {shape} ({exc})"
        ) from exc
