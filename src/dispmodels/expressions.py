"""Tiny arithmetic-expression evaluator for declarative configs.

Supports literals, the binary operators ``+ - * / ^`` (``^`` is power),
unary minus, and the functions ``log``, ``exp``, ``sqrt``, ``cos``.  The
expression is validated against a whitelist of AST nodes before being
compiled, so arbitrary Python never executes.

A compiled expression evaluates floats with ``math`` and returns a float;
when any argument is an ndarray it evaluates once with numpy over the
whole array, and a value outside a function's domain becomes ``nan``
instead of raising.  The functions are ``_elementary``'s, which make that
choice by their argument.
"""

from __future__ import annotations

import ast
import math
from typing import Callable, Sequence

import numpy as np

from . import _elementary as el
from .errors import DomainError

__all__ = ["compile_expression"]

_FUNCTIONS = {"log": el.log, "exp": el.exp, "sqrt": el.sqrt, "cos": el.cos}
_CONSTANTS = {"pi": math.pi, "e": math.e}

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)


def _validate(node: ast.AST, variables: Sequence[str]) -> None:
    if isinstance(node, ast.Expression):
        _validate(node.body, variables)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
        _validate(node.left, variables)
        _validate(node.right, variables)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _ALLOWED_UNARY):
        _validate(node.operand, variables)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise DomainError(f"unknown function in expression: {ast.dump(node.func)}")
        if len(node.args) != 1 or node.keywords:
            raise DomainError(f"{node.func.id}() takes exactly one positional argument")
        _validate(node.args[0], variables)
    elif isinstance(node, ast.Name):
        if node.id not in variables and node.id not in _CONSTANTS:
            raise DomainError(f"unknown name in expression: {node.id!r}")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise DomainError(f"non-numeric literal in expression: {node.value!r}")
    else:
        raise DomainError(f"disallowed syntax in expression: {type(node).__name__}")


def compile_expression(expr: str, variables: Sequence[str]) -> Callable:
    """Compile ``expr`` into a function of the named ``variables`` (in order).

    ``^`` is rewritten to Python's ``**`` before parsing, so both spellings
    of exponentiation work.  The function returns a float for float
    arguments and a float ndarray when any argument is an ndarray.
    """
    source = expr.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise DomainError(f"cannot parse expression {expr!r}: {exc}") from exc
    _validate(tree, variables)
    code = compile(tree, "<expression>", "eval")
    namespace = {"__builtins__": {}, **_FUNCTIONS, **_CONSTANTS}

    def fn(*args):
        if len(args) != len(variables):
            raise TypeError(f"expected {len(variables)} arguments, got {len(args)}")
        if any(isinstance(a, np.ndarray) for a in args):
            # each variable at the full shape, so that every function of one gets an ndarray
            arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
            with np.errstate(all="ignore"):
                value = eval(code, namespace, dict(zip(variables, arrays)))
            return np.asarray(value, dtype=float)
        local = dict(zip(variables, (float(a) for a in args)))
        return float(eval(code, namespace, local))

    fn.__name__ = f"expr_{'_'.join(variables) or 'const'}"
    fn.expression = expr
    return fn
