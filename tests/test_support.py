"""Domain refusals: ``RealInterval.require`` on floats and arrays, positivity of V, unknown names."""

import math
import re

import numpy as np
import pytest

from dispmodels.deviance import VarianceFunction, get_deviance
from dispmodels.edm import get_family
from dispmodels.errors import DomainError, NumericalError
from dispmodels.pdm import get_pdm
from dispmodels.regression import get_link
from dispmodels.support import POSITIVE_REALS, REALS, UNIT_INTERVAL, RealInterval

# one interval of each shape in use: open, closed, half-closed, half-line, lattice, the reals
INTERVALS = {
    "open": UNIT_INTERVAL,
    "closed": RealInterval(1.0, 1.0, closed_lower=True, closed_upper=True),
    "circle": RealInterval(0.0, 2.0 * math.pi, closed_lower=True),
    "half-line": POSITIVE_REALS,
    "negative half-line": RealInterval(-math.inf, 0.0),
    "lattice": RealInterval(0.0, math.inf, closed_lower=True, lattice=True),
    "closed lattice": RealInterval(0.0, 1.0, closed_lower=True, closed_upper=True, lattice=True),
    "reals": REALS,
}

PROBES = (-math.inf, -1.0, -1e-300, 0.0, 5e-324, 0.5, 1.0, 2.0 * math.pi, 7.0, math.inf, math.nan)


def _inside(interval: RealInterval, x: float) -> bool:
    """Membership read off the endpoints, independently of ``contains``."""
    above = x > interval.lower or interval.closed_lower and x == interval.lower
    below = x < interval.upper or interval.closed_upper and x == interval.upper
    return bool(above and below)


def _require_array(interval: RealInterval, x: np.ndarray, what: str):
    # an interval that keeps a separate ``require_all`` for arrays is checked through it
    return getattr(interval, "require_all", interval.require)(x, what)


@pytest.mark.parametrize("shape", sorted(INTERVALS))
@pytest.mark.parametrize("kind", [float, np.float64])
def test_require_on_a_scalar_returns_it_or_names_it(shape, kind):
    interval = INTERVALS[shape]
    for probe in PROBES:
        x = kind(probe)
        if _inside(interval, probe):
            assert interval.require(x, "y") is x
        else:
            with pytest.raises(DomainError) as refused:
                interval.require(x, "y")
            assert str(refused.value) == f"y {x!r} outside {interval}"


@pytest.mark.parametrize("shape", sorted(INTERVALS))
def test_require_on_an_int_returns_it_or_names_it(shape):
    interval = INTERVALS[shape]
    for x in (-1, 0, 1, 7):
        if _inside(interval, float(x)):
            assert interval.require(x, "count") is x
        else:
            with pytest.raises(DomainError, match=rf"^count {x} outside {re.escape(str(interval))}$"):
                interval.require(x, "count")


@pytest.mark.parametrize("shape", sorted(INTERVALS))
@pytest.mark.parametrize("layout", [(), (len(PROBES),), (1, len(PROBES)), (len(PROBES), 1)])
def test_require_on_an_array_checks_every_entry_and_names_the_first_offender(shape, layout):
    interval = INTERVALS[shape]
    for start in range(len(PROBES)):
        values = (PROBES[start:] + PROBES[:start])[: math.prod(layout)]
        x = np.array(values, dtype=float).reshape(layout)
        outside = [v for v in values if not _inside(interval, v)]
        if not outside:
            assert _require_array(interval, x, "mu") is x
            continue
        with pytest.raises(DomainError) as refused:
            _require_array(interval, x, "mu")
        assert str(refused.value) == f"mu {float(outside[0])!r} outside {interval}"


def test_require_on_an_int_array_names_the_offender_as_a_float():
    with pytest.raises(DomainError, match=r"^y -2\.0 outside \[0\.0, inf\) lattice$"):
        _require_array(INTERVALS["lattice"], np.array([[3, -2], [-5, 1]]), "y")


def test_a_nonpositive_variance_names_the_first_bad_point():
    V = VarianceFunction("falling", POSITIVE_REALS, lambda mu: 1.0 - mu)
    with pytest.raises(NumericalError, match=r"falling not positive at mu=2\.0: -1\.0"):
        V(2.0)
    with pytest.raises(NumericalError, match=r"falling not positive at mu=1\.5: -0\.5"):
        V(np.array([0.5, 1.5, 3.0]))


@pytest.mark.parametrize("lookup, what, table_entry", [
    (get_family, "family", "gamma"),
    (get_deviance, "deviance", "simplex"),
    (get_pdm, "proper dispersion model", "vonmises"),
    (get_link, "link", "log"),
])
def test_an_unknown_name_is_refused_naming_it_and_the_table(lookup, what, table_entry):
    assert lookup(table_entry) is lookup(table_entry)
    with pytest.raises(DomainError, match=rf"^unknown {what} 'nope'; available: .*\b{table_entry}\b"):
        lookup("nope")
