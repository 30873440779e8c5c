"""Exception hierarchy shared by all dispmodels modules, and the refusals written once.

Two failure classes matter to callers: a *domain* problem (the inputs are outside the contract)
and a *numerical* problem (the inputs were fine but the computation could not be completed
reliably).  Every public evaluation function carries :func:`refuses_numerical_failure`.  A
``DispersionModelError`` passes through it; an ``ArithmeticError`` (float overflow, division by an
underflowed zero), any other ``ValueError`` (a ``math`` domain error) and a nan result (a float,
an ndarray or a tuple holding one, or the ``value`` of a ``SaddlepointResult``) become
``NumericalError``, whose message names the call and its bound arguments.  An infinite result
passes: a deviance is +inf where it overflows.  So a call on finite inputs returns a number or
raises one of the two classes, and the CLI's exit codes 1 and 2 follow from them.  A public
function checks its arguments once and evaluates private formulas, which check nothing and carry
no decorator; the library's own callers call the formulas too, so that the rule and each domain
check are paid once per call and a refusal names the call that was made.

Next to the rule sit the refusals of bad inputs that are not domain membership (that is
``RealInterval.require``): :func:`require_positive` refuses a variance, or a curvature, that is
not positive, naming the first bad point, and :func:`lookup` refuses a name missing from a table
of families, deviances, PDMs or links, naming the names it holds.
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
    """``fn``, a public function that checks its arguments once and evaluates private formulas, under
    the rule of the module docstring; the arguments are bound only to refuse a call, so a call that
    returns costs one frame and a nan test of its result."""

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


def require_positive(value, what: str, model, at: str, point):
    """``value`` if it is positive (every entry of an ndarray), else ``NumericalError`` naming ``what`` of
    ``model`` (by its ``.name``) and the first ``at=point`` where it is not; ``point`` is a float or an
    ndarray of ``value``'s shape.  The message is built only to refuse."""
    if type(value) is float:
        if value > 0.0:
            return value
    else:
        positive = value > 0.0
        if np.count_nonzero(positive) == positive.size:
            return value
        i = int(np.argmax(~positive))
        point, value = np.ravel(point)[i], np.ravel(value)[i]
    raise NumericalError(f"{what} {model.name} not positive at {at}={point}: {value}")


def lookup(table: dict, name: str, what: str):
    """``table[name]``, else ``DomainError`` naming ``name`` and the names ``table`` holds."""
    try:
        return table[name]
    except KeyError:
        raise DomainError(f"unknown {what} {name!r}; available: {', '.join(sorted(table))}") from None
