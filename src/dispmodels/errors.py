"""Exception hierarchy shared by all dispmodels modules, and the one refusal rule.

Two failure classes matter to callers: a *domain* problem (the inputs are outside the contract)
and a *numerical* problem (the inputs were fine but the computation could not be completed
reliably).  Every public evaluation function carries :func:`refuses_numerical_failure`.  A
``DispersionModelError`` passes through it; an ``ArithmeticError`` (float overflow, division by an
underflowed zero), any other ``ValueError`` (a ``math`` domain error) and a nan result (a float,
an ndarray or a tuple holding one, or the ``value`` of a ``SaddlepointResult``) become
``NumericalError``, whose message names the call and its bound arguments.  An infinite result
passes: a deviance is +inf where it overflows.  So a call on finite inputs returns a number or
raises one of the two classes, and the CLI's exit codes 1 and 2 follow from them.  On their hot
paths the decorated functions call each other undecorated (``__wrapped__``), so that the rule is
paid once per call and a refusal names the call that was made.
"""

import functools
import inspect

import numpy as np


class DispersionModelError(Exception):
    """Base class for all dispmodels errors."""


class DomainError(DispersionModelError, ValueError):
    """Input outside the mathematical domain of an operation."""


class NumericalError(DispersionModelError, RuntimeError):
    """A numerical procedure failed (instability, divergence, overflow)."""


class ConvergenceError(NumericalError):
    """An iterative solver exhausted its iteration budget."""


def _refusal(fn, args, kwargs, reason: str) -> NumericalError:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    shown = ", ".join(f"{k}={getattr(v, 'name', v)}" for k, v in bound.arguments.items())
    return NumericalError(f"{fn.__qualname__}({shown}) {reason}")


def _has_nan(value) -> bool:
    if isinstance(value, tuple):
        return any(map(_has_nan, value))
    value = getattr(value, "value", value)
    return bool(np.isnan(value).any()) if isinstance(value, np.ndarray) else value != value


def refuses_numerical_failure(fn):
    """``fn`` under the rule of the module docstring; the arguments are bound only to refuse a call,
    so a call that returns costs one frame and a nan test of its result."""

    @functools.wraps(fn)
    def refusing(*args, **kwargs):
        try:
            value = fn(*args, **kwargs)
        except DispersionModelError:
            raise
        except (ArithmeticError, ValueError) as exc:
            raise _refusal(fn, args, kwargs, f"failed: {type(exc).__name__}: {exc}") from exc
        if type(value) is float and value == value or not _has_nan(value):
            return value
        raise _refusal(fn, args, kwargs, "is nan")

    return refusing
