"""The small expression language used by configs and the CLI."""

import math

import numpy as np
import pytest

from dispmodels.errors import DomainError
from dispmodels.expressions import compile_expression


def test_arithmetic_and_caret_power():
    fn = compile_expression("2*x^3 - x/4 + 1", ["x"])
    assert fn(2.0) == pytest.approx(2 * 8 - 0.5 + 1)


def test_functions():
    fn = compile_expression("log(exp(x)) + sqrt(x^2) + cos(0)", ["x"])
    assert fn(3.0) == pytest.approx(3.0 + 3.0 + 1.0)


def test_multiple_variables_positional():
    fn = compile_expression("a + 10*b", ["a", "b"])
    assert fn(1.0, 2.0) == 21.0


def test_constants():
    fn = compile_expression("cos(pi)", [])
    assert fn() == pytest.approx(-1.0)


def test_unary_minus():
    fn = compile_expression("-x^2", ["x"])
    assert fn(3.0) == -9.0


def test_unknown_name_rejected():
    with pytest.raises(DomainError):
        compile_expression("x + y", ["x"])


def test_unknown_function_rejected():
    with pytest.raises(DomainError):
        compile_expression("sin(x)", ["x"])


def test_attribute_access_rejected():
    with pytest.raises(DomainError):
        compile_expression("x.__class__", ["x"])


def test_call_arity_enforced():
    with pytest.raises(DomainError):
        compile_expression("log(x, 2)", ["x"])


def test_syntax_error_rejected():
    with pytest.raises(DomainError):
        compile_expression("x +", ["x"])


def test_array_arguments_evaluate_once_with_numpy():
    fn = compile_expression("b1*exp(-b2*x) + sqrt(x)", ["x", "b1", "b2"])
    x = np.array([0.0, 0.5, 2.0])
    out = fn(x, 2.0, 0.7)
    assert isinstance(out, np.ndarray) and out.shape == (3,)
    np.testing.assert_allclose(out, [fn(float(v), 2.0, 0.7) for v in x], rtol=1e-14)


def test_array_domain_violation_gives_nan():
    fn = compile_expression("log(x)", ["x"])
    with pytest.raises(ValueError):
        fn(-1.0)
    out = fn(np.array([1.0, -1.0]))
    assert out[0] == 0.0 and math.isnan(out[1])
