"""The refusal rule of ``errors.py``: every public evaluation function, given finite floats, returns
a number that is not nan or raises ``DomainError`` or ``NumericalError``.

The property tests draw any finite float (hypothesis runs derandomized); the p > 2 Tweedie
densities and cdfs run in a child interpreter, because a crash of native code on their extreme
inputs would otherwise end the whole session.  One call per function that leaked another exception, a RuntimeWarning or nan
before the rule was written down runs on every seed.  An ``ast`` scan keeps the rule in one place.
"""

import ast
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispmodels import edm, errors, tweedie
from dispmodels.deviance import (DEVIANCES, VARIANCE_FUNCTIONS, VarianceFunction, eval_deviance,
                                 second_derivative_identity, unit_variance)
from dispmodels.edm import FAMILIES
from dispmodels.errors import (ConvergenceError, DomainError, NumericalError, refuses_numerical_failure)
from dispmodels.pdm import PDMS, pdm_density, pdm_normalizer
from dispmodels.saddlepoint import lugannani_rice, renormalized_saddlepoint, saddlepoint_density

FINITE = st.floats(allow_nan=False, allow_infinity=False)
EXTREMES = [5e-324, 1e-300, -1e-8, 1.0, 1e8, 1e300, -1e300, 0.0]


def _has_nan(value) -> bool:
    if isinstance(value, tuple):
        return any(map(_has_nan, value))
    return bool(np.isnan(getattr(value, "value", value)).any())


def _obeys_the_rule(fn, *args) -> None:
    try:
        value = fn(*args)
    except (DomainError, NumericalError):
        return
    assert not _has_nan(value), f"{fn.__qualname__}{args} returned {value}"


@pytest.mark.parametrize("name", sorted(FAMILIES))
@settings(derandomize=True, max_examples=100, deadline=None)
@given(a=FINITE, b=FINITE, c=FINITE, r=st.integers(1, 6), n=st.integers(1, 10))
def test_edm_functions_obey_the_rule(name, a, b, c, r, n):
    fam = FAMILIES[name]
    for fn, args in ((edm.cgf, (a, b, c)), (edm.cumulant, (r, b, c)), (edm.density, (a, b, c)),
                     (edm.log_density, (a, b, c)), (edm.edm_deviance, (a, b)), (edm.inverse_mean, (a,)),
                     (edm.mean_value, (b,)), (edm.variance_function, (a,)), (saddlepoint_density, (a, b, c)),
                     (lugannani_rice, (a, b, c, n))):
        _obeys_the_rule(fn, fam, *args)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(y=FINITE, mu=FINITE)
def test_deviance_by_quadrature_obeys_the_rule(name, y, mu):
    _obeys_the_rule(edm.deviance_by_quadrature, FAMILIES[name], y, mu)


@pytest.mark.parametrize("name", sorted(DEVIANCES))
@settings(derandomize=True, max_examples=100, deadline=None)
@given(y=FINITE, mu=FINITE)
def test_deviance_functions_obey_the_rule(name, y, mu):
    d = DEVIANCES[name]
    for fn, args in ((eval_deviance, (d, y, mu)), (unit_variance, (d, mu)),
                     (second_derivative_identity, (d, mu)),
                     (VarianceFunction.__call__, (VARIANCE_FUNCTIONS[name], mu))):
        _obeys_the_rule(fn, *args)


@pytest.mark.parametrize("p", [0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(y=FINITE, mu=FINITE, tau=FINITE)
def test_tweedie_functions_obey_the_rule(p, y, mu, tau):
    # a deviance may be +inf where it overflows; only nan is refused
    _obeys_the_rule(tweedie.tweedie_deviance, p, y, mu)
    _obeys_the_rule(tweedie.tweedie_zero_mass, p, mu, tau)
    if p <= 2.0:  # p > 2 runs the Fourier inversion: see test_tweedie_inversion_obeys_the_rule
        _obeys_the_rule(tweedie.tweedie_density, p, y, mu, tau)
        _obeys_the_rule(tweedie.tweedie_cdf, p, y, mu, tau)


def _inversion_property(name: str, p: float):
    """The rule for the p > 2 ``tweedie_<name>``, as a hypothesis test to call in a child."""
    fn = getattr(tweedie, f"tweedie_{name}")

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(y=FINITE, mu=FINITE, tau=FINITE)
    def inversion_obeys_the_rule(y, mu, tau):
        _obeys_the_rule(fn, p, y, mu, tau)

    return inversion_obeys_the_rule


@pytest.mark.parametrize("name", ["density", "cdf"])
def test_tweedie_inversion_obeys_the_rule(name):
    # the points reach native code on extreme inputs, whose crash would end the whole session, so they
    # run in a child
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(edm.__file__))
    code = ("import sys, warnings\n"
            f"sys.path.insert(0, {here!r})\n"
            "from scipy.integrate import IntegrationWarning\n"
            "warnings.simplefilter('error', RuntimeWarning)\n"
            "warnings.simplefilter('error', IntegrationWarning)\n"
            "import test_errors\n"
            f"for p in (2.5, 3.0, 3.5):\n    test_errors._inversion_property({name!r}, p)()\n")
    child = subprocess.run([sys.executable, "-X", "faulthandler", "-c", code], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert child.returncode == 0, child.stderr[-3000:]


@pytest.mark.parametrize("name", sorted(PDMS))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(y=FINITE, mu=FINITE, tau=st.sampled_from(EXTREMES))
def test_pdm_density_obeys_the_rule(name, y, mu, tau):
    # tau from a fixed set: each new tau is one more normalizer quadrature, cached for the process
    _obeys_the_rule(pdm_density, PDMS[name], y, mu, tau)


@pytest.mark.parametrize("name", sorted(DEVIANCES))
@pytest.mark.parametrize("y,mu,tau", [(5e-324, 1e-300, 5e-324), (1e300, 1e-8, 1e-300), (1e-8, 1e8, 1e8),
                                      (1.0, 1e300, 1e300), (0.0, 5e-324, 1.0), (-1e300, 1.0, 1.0)])
def test_normalizing_integrals_obey_the_rule_at_extreme_points(name, y, mu, tau):
    # fixed points only: a lattice sum at a large tau runs for seconds
    d, V = DEVIANCES[name], VARIANCE_FUNCTIONS[name]
    _obeys_the_rule(renormalized_saddlepoint, d, V, y, mu, tau)
    _obeys_the_rule(pdm_normalizer, d, lambda x: 1.0, tau, mu)


# one call per function that leaked a bare OverflowError, ZeroDivisionError, math-domain ValueError,
# RuntimeWarning or nan before the rule
LEAKS = [
    (edm.cgf, (FAMILIES["normal"], 5e-324, 1e300, 5e-324)),
    (edm.cumulant, (FAMILIES["normal"], 3, 1e-8, 1e300)),
    (edm.density, (FAMILIES["negative_binomial"], 5e-324, -5e-324, 1.0)),
    (edm.density, (FAMILIES["gamma"], 1e8, -5e-324, 5e-324)),
    (edm.log_density, (FAMILIES["negative_binomial"], 5e-324, -5e-324, 1.0)),
    (edm.inverse_mean, (FAMILIES["inverse_gaussian"], 5e-324)),
    (edm.mean_value, (FAMILIES["poisson"], 1e8)),
    (edm.variance_function, (FAMILIES["binomial"], 5e-324)),
    (eval_deviance, (DEVIANCES["simplex"], 5e-324, 1e-300)),
    (unit_variance, (DEVIANCES["gamma"], 1e-300)),
    (second_derivative_identity, (DEVIANCES["gamma"], 1e300)),
    (VarianceFunction.__call__, (VARIANCE_FUNCTIONS["gamma"], 1e-300)),
    (tweedie.tweedie_cdf, (2.0, 1e-8, 1e20, 5e-324)),
    (tweedie.tweedie_density, (1.0, 1e-8, 5e-324, 5e-324)),
    (tweedie.tweedie_density, (2.0, 1e8, 1e-300, 5e-324)),
    (tweedie.tweedie_density, (3.0, 5e-324, 1e-8, 5e-324)),
    (pdm_density, (PDMS["gamma"], 5e-324, 1e8, 1.0)),
    (pdm_density, (PDMS["simplex"], 5e-324, 5e-324, 1.0)),
]


@pytest.mark.parametrize("fn,args", LEAKS, ids=[f"{fn.__qualname__}{i}" for i, (fn, _) in enumerate(LEAKS)])
def test_former_leaks_are_refused(fn, args):
    with pytest.raises(NumericalError, match=re.escape(fn.__qualname__) + r"\("):
        fn(*args)


class TestDecorator:
    def test_message_names_the_call_with_its_defaults(self):
        # sqrt(1/tau) overflows at tau = 5e-324, and r = inf * 0 at the mean: nan
        with pytest.raises(NumericalError) as info:
            lugannani_rice(FAMILIES["normal"], -1e8, -1e8, 5e-324)
        assert str(info.value) == "lugannani_rice(fam=normal, y=-100000000.0, theta=-100000000.0, tau=5e-324, n=1) is nan"

    def test_call_is_named_and_the_cause_kept(self):
        # b''(q(y)) = 1/theta^2 overflows inside variance_function, called by saddlepoint_density
        with pytest.raises(NumericalError, match=r"^saddlepoint_density\(fam=gamma, y=1e-300, ") as info:
            saddlepoint_density(FAMILIES["gamma"], 1e-300, -1.0, 1.0)
        assert isinstance(info.value.__cause__, OverflowError)

    def test_dispersion_model_errors_pass_unchanged(self):
        error = ConvergenceError("budget used up")

        def fails():
            raise error

        with pytest.raises(ConvergenceError) as info:
            refuses_numerical_failure(fails)()
        assert info.value is error

    @pytest.mark.parametrize("value", [math.nan, np.array([1.0, math.nan]), (1.0, math.nan)])
    def test_nan_results_are_refused(self, value):
        with pytest.raises(NumericalError, match="is nan"):
            refuses_numerical_failure(lambda: value)()

    @pytest.mark.parametrize("value", [math.inf, np.array([0.0, math.inf]), (1.0, 2.0), None])
    def test_other_results_pass(self, value):
        assert refuses_numerical_failure(lambda: value)() is value

    def test_wrapper_keeps_the_name_and_module(self):
        # the benchmark tracer wraps the functions whose __module__ is their own module
        assert edm.density.__module__ == "dispmodels.edm" and edm.density.__name__ == "density"


def test_no_handler_outside_errors_only_re_raises_an_arithmetic_error():
    arithmetic = {"ArithmeticError", "OverflowError", "ZeroDivisionError", "FloatingPointError"}
    offenders = []
    for path in sorted(pathlib.Path(errors.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            caught = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
            if caught & arithmetic and all(
                    isinstance(s, ast.Raise) and isinstance(s.exc, ast.Call)
                    and getattr(s.exc.func, "id", None) == "NumericalError" for s in node.body):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"use errors.refuses_numerical_failure instead of the handlers at {offenders}"
