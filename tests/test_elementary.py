"""The array contract of ``_elementary.call`` for every callable the library takes."""

import ast
import math
import pathlib

import numpy as np
import pytest

from dispmodels import _elementary as el
from dispmodels.cf_construct import CfSpec, solve_convolution_grid, validate_cf
from dispmodels.deviance import (DEVIANCES, UnitDeviance, VarianceFunction, eval_deviance, second_derivative_identity,
                                 transform_deviance, unit_variance)
from dispmodels.errors import DomainError
from dispmodels.pdm import YokeSpec, transformation_pdm, yoke_to_deviance
from dispmodels.support import POSITIVE_REALS, REALS, RealInterval

_CIRCLE = RealInterval(0.0, 2.0 * math.pi)
_MATH_DEVIANCE = UnitDeviance("u", REALS, lambda y, mu: 2 * (1 - math.cos(y - mu)))


def test_floats_give_a_float_and_arrays_the_broadcast_shape():
    assert el.call(math.cos, 1.0) == math.cos(1.0) and type(el.call(np.cos, 1.0)) is float
    value = el.call(lambda y, mu: y - mu, np.zeros((3, 1)), np.arange(4.0))
    assert value.shape == (3, 4) and value.flags.writeable
    assert el.call(lambda t: 1.0, np.zeros(5)).tolist() == [1.0] * 5


def test_values_that_do_not_broadcast_are_refused():
    with pytest.raises(DomainError, match="array contract"):
        el.call(lambda t: np.ones(2), np.zeros(3))


def test_the_callables_own_domain_errors_pass_unchanged():
    def refusing(t):
        raise DomainError("outside the map's domain")

    with pytest.raises(DomainError, match="outside the map's domain"):
        el.call(refusing, np.zeros(3))


# one float-only (math) callable at each entry point that takes a callable
FLOAT_ONLY = {
    "transform_deviance f_inverse": lambda: eval_deviance(
        transform_deviance(DEVIANCES["gamma"], math.log, math.exp, lambda y: 1.0 / y), np.array([0.1, 0.2]), 0.0),
    "transform_deviance f_prime": lambda: transform_deviance(DEVIANCES["gamma"], math.log, np.exp, math.exp),
    "YokeSpec.fn": lambda: yoke_to_deviance(YokeSpec(fn=lambda y, th: math.cos(y - th), domain=_CIRCLE)),
    "transformation_pdm group_action": lambda: transformation_pdm(
        lambda g, y: math.fmod(g + y, 2.0 * math.pi), np.cos, lambda y: 1.0, _CIRCLE, circular=True),
    "transformation_pdm t": lambda: transformation_pdm(
        lambda g, y: (g + y) % (2.0 * math.pi), math.cos, lambda y: 1.0, _CIRCLE, circular=True),
    "transformation_pdm b_invariant": lambda: transformation_pdm(
        lambda g, y: (g + y) % (2.0 * math.pi), np.cos, lambda y: math.exp(0.0 * y), _CIRCLE, circular=True),
    "UnitDeviance.fn eval_deviance": lambda: eval_deviance(_MATH_DEVIANCE, np.array([1.0, 2.0]), 0.0),
    "UnitDeviance.fn unit_variance": lambda: unit_variance(_MATH_DEVIANCE, np.array([0.5, 1.0])),
    "UnitDeviance.fn second_derivative_identity": lambda: second_derivative_identity(_MATH_DEVIANCE, 0.5),
    "VarianceFunction.fn": lambda: VarianceFunction("exp", POSITIVE_REALS, math.exp)(np.array([1.0, 2.0])),
    "CfSpec.phi": lambda: validate_cf(CfSpec(phi=lambda t: math.exp(-t * t))),
    "kernel": lambda: solve_convolution_grid(lambda t: math.exp(-t * t), 1.0, 20.0, 2**10),
}


@pytest.mark.parametrize("entry", sorted(FLOAT_ONLY))
def test_a_float_only_callable_is_refused_naming_the_contract(entry):
    with pytest.raises(DomainError, match="array contract"):
        FLOAT_ONLY[entry]()


def test_no_entry_by_entry_wrapper_in_the_library():
    offenders = []
    for path in sorted(pathlib.Path(el.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
            if name in ("vectorize", "frompyfunc"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"callables keep the array contract of _elementary.call; found {offenders}"
