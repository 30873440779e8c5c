"""Elementary functions that take a float or an ndarray.

The family callables (``b``, ``b''``, the mean inverse, closed-form
deviances, ``dc/dtau``) are written once and serve both the pointwise API
and the array path of IRLS.  A float goes to ``math``, an ndarray to numpy:
a numpy ufunc on a Python float costs about three times the ``math`` call
and returns a numpy scalar that slows the arithmetic after it, and the
pointwise API must not pay for the array path.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special

__all__ = ["log", "log1p", "exp", "sqrt", "cos", "tan", "atan", "xlogy", "positive_part", "vectorize"]


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


def xlogy(x, y):
    """``x log y`` with the convention ``0 log y = 0`` (also at y = 0)."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return scipy.special.xlogy(x, y)
    return x * math.log(y) if x != 0 else 0.0


def positive_part(x):
    """``max(x, 0)``."""
    return np.maximum(x, 0.0) if isinstance(x, np.ndarray) else max(x, 0.0)


def vectorize(fn):
    """A float-only ``fn`` that also maps ndarray arguments, entry by entry."""
    each = np.vectorize(fn, otypes=[float])

    def either(*args):
        if any(isinstance(a, np.ndarray) for a in args):
            return each(*args)
        return fn(*args)

    return either
