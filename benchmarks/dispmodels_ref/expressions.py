"""Tiny arithmetic-expression evaluator for declarative configs.

Supports literals, the binary operators ``+ - * / ^`` (``^`` is power),
unary minus, and the functions ``log``, ``exp``, ``sqrt``, ``cos``.  The
expression is validated against a whitelist of AST nodes before being
compiled, so arbitrary Python never executes.
"""

from __future__ import annotations

import ast
import math
from typing import Callable, Sequence

from .errors import DomainError

__all__ = ["compile_expression"]

_FUNCTIONS = {"log": math.log, "exp": math.exp, "sqrt": math.sqrt, "cos": math.cos}
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


def compile_expression(expr: str, variables: Sequence[str]) -> Callable[..., float]:
    """Compile ``expr`` into a function of the named ``variables`` (in order).

    ``^`` is rewritten to Python's ``**`` before parsing, so both spellings
    of exponentiation work.
    """
    source = expr.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise DomainError(f"cannot parse expression {expr!r}: {exc}") from exc
    _validate(tree, variables)
    code = compile(tree, "<expression>", "eval")
    namespace = dict(_FUNCTIONS)
    namespace.update(_CONSTANTS)

    def fn(*args: float) -> float:
        if len(args) != len(variables):
            raise TypeError(f"expected {len(variables)} arguments, got {len(args)}")
        local = dict(zip(variables, (float(a) for a in args)))
        return float(eval(code, {"__builtins__": {}}, {**namespace, **local}))

    fn.__name__ = f"expr_{'_'.join(variables) or 'const'}"
    fn.expression = expr
    return fn
