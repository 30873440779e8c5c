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


def _deviance_grid(p, n, rng):
    """n (y, mu) pairs, and where the array and float paths run the same operations: inside and at the
    edge of the series band (the same at p = 1 and 2, where the scale is exact), y = 0 (p < 2),
    y < mu/16, far entries, and pairs whose ratio or scale overflows into the float path (the same)."""
    band = el._SERIES_BAND
    x = np.concatenate([
        rng.uniform(-band, band, n), [band, -band, np.nextafter(band, 0.0), np.nextafter(-band, 0.0)],
        rng.uniform(-1.0, el._FAR_BELOW, n), rng.uniform(el._FAR_BELOW, 4.0, n), [-1.0] if p < 2.0 else [],
    ])
    mu = rng.uniform(0.2, 5.0, x.size)
    y = np.where(x == -1.0, 0.0, mu * (1.0 + x))
    same = (np.abs(x) < band) & (p in (1.0, 2.0))
    if p != 2.0:
        y, mu = np.concatenate([y, [1e300, 1e-300, 5.0]]), np.concatenate([mu, [1e-300, 1e300, 1e-200]])
        same = np.concatenate([same, [True, True, True]])
    pick = rng.permutation(y.size)[:n] if n < y.size else rng.integers(0, y.size, n)
    return y[pick], mu[pick], same[pick]


@pytest.mark.parametrize("p", [-0.5, 1.0, 1.25, 1.5, 2.0, 2.5, 3.5])
@pytest.mark.parametrize("n", [1, 16, 1024])
def test_power_deviance_arrays_agree_with_their_float_calls(p, n):
    # numpy's log1p, expm1 and power differ from libm's in the last bit of some arguments, which the
    # closed forms amplify by up to 1/|x| = 20 next to the band: each entry is its one-entry array call
    # bit for bit, its float call within 64 eps, and exactly that where both run the same operations
    y, mu, same = _deviance_grid(p, n, np.random.default_rng(n))
    values = el.power_deviance(p, y, mu)
    alone = np.array([el.power_deviance(p, y[i:i + 1], mu[i:i + 1])[0] for i in range(n)])
    floats = np.array([el.power_deviance(p, a, b) for a, b in zip(y.tolist(), mu.tolist())])
    assert values.tolist() == alone.tolist()
    assert values == pytest.approx(floats, rel=64 * np.finfo(float).eps, abs=0.0)
    assert values[same].tolist() == floats[same].tolist()


def test_power_deviance_broadcasts_its_arguments():
    y, mu = np.array([[0.0], [1.02], [3.0]]), np.array([0.5, 1.0, 2.0, 1e300])
    values = el.power_deviance(1.5, y, mu)
    assert values.shape == (3, 4)
    assert values.tolist() == [[el.power_deviance(1.5, y[i:i + 1, 0], mu[j:j + 1])[0] for j in range(4)]
                               for i in range(3)]
