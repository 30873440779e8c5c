"""``_numdiff._quadrature`` against closed forms, and the shape of its first round; the stencil sums."""

import math

import numpy as np
import pytest

from dispmodels._numdiff import _STENCILS, _quadrature

# (integrand, lower, upper, value, integrand calls): one round of a smooth integrand, a second round, an
# infinite end on each side, and the power-law end x^-0.9, whose tail the rule extrapolates
CLOSED_FORMS = {
    "one round": (lambda x: np.exp(-x * x), 0.0, 1.0, 0.5 * math.sqrt(math.pi) * math.erf(1.0), 1),
    "two rounds": (lambda x: np.exp(-x), 0.0, math.inf, 1.0, 2),
    "infinite ends": (lambda x: 1.0 / (1.0 + x * x), -math.inf, math.inf, math.pi, 1),
    "infinite lower end": (lambda x: np.exp(x), -math.inf, 0.5, math.exp(0.5), None),
    "power-law end": (lambda x: np.abs(x) ** -0.9, 0.0, 1.0, 10.0, 3),
}


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_matches_its_closed_form(name):
    fn, lower, upper, exact, rounds = CLOSED_FORMS[name]
    calls = []
    value, error = _quadrature(lambda x, rows: calls.append(x.shape) or fn(x), lower, upper)
    assert value == pytest.approx(exact, rel=1e-13, abs=0.0)
    assert error <= 1e-10 * abs(value)
    assert rounds is None or len(calls) == rounds


def test_a_smooth_integral_takes_one_call_on_192_nodes():
    calls = []
    _quadrature(lambda x, rows: calls.append((x.shape, rows.tolist())) or np.cos(x), 0.0, 2.0)
    assert calls == [((12, 16), [0] * 12)]


def test_each_float_call_equals_its_entry_in_a_batch():
    names = list(CLOSED_FORMS)
    lower = np.array([CLOSED_FORMS[n][1] for n in names])
    upper = np.array([CLOSED_FORMS[n][2] for n in names])

    def batch(x, rows):
        return np.concatenate([CLOSED_FORMS[names[i]][0](x[rows == i]) for i in range(len(names))])[
            np.argsort(np.argsort(rows, kind="stable"), kind="stable")]

    values, errors = _quadrature(batch, lower, upper)
    for i, name in enumerate(names):
        fn = CLOSED_FORMS[name][0]
        assert (values[i], errors[i]) == _quadrature(lambda x, rows: fn(x), lower[i], upper[i])


def test_a_batch_beyond_64_integrals_equals_its_float_calls():
    centers = np.linspace(0.1, 3.0, 70)
    values, errors = _quadrature(lambda x, rows: np.exp(-(x - centers[rows, None]) ** 2), np.zeros(70),
                                 np.full(70, math.inf), centers)
    for i in (0, 63, 64, 69):
        alone = _quadrature(lambda x, rows: np.exp(-(x - centers[i]) ** 2), 0.0, math.inf, centers[i])
        assert (values[i], errors[i]) == alone


@pytest.mark.parametrize("points", sorted({len(stencil) for stencil in _STENCILS.values()}))
@pytest.mark.parametrize("shape", [(), (1,), (5,), (500,), (3, 4)])
def test_stencil_sums_add_in_order(points, shape):
    # derivative sums each stencil with sum(axis=1): bit for bit the running sum over its points,
    # so an entry of a batch is the sum over its own stencil alone
    rng = np.random.default_rng(points)
    terms = rng.standard_normal((3, points, *shape)) * 10.0 ** rng.uniform(-8, 8, (3, points, *shape))
    np.testing.assert_array_equal(terms.sum(axis=1), terms.cumsum(axis=1)[:, -1])
