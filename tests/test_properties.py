"""Property tests: deviance axioms, the mean-value round trip, Tweedie continuity at p = 2.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dispmodels.edm import FAMILIES, edm_deviance, inverse_mean, mean_value
from dispmodels.tweedie import P_SWITCH, tweedie_cdf, tweedie_density

FAMILY_NAMES = sorted(FAMILIES)

unit = st.floats(0.02, 0.98)


def _theta(fam, u):
    """A canonical parameter well inside the domain, from u in (0, 1)."""
    dom = fam.theta_domain
    if math.isfinite(dom.lower) and math.isfinite(dom.upper):
        return dom.lower + dom.width * u
    if math.isfinite(dom.upper):
        return dom.upper - 0.05 - 5.0 * u
    if math.isfinite(dom.lower):
        return dom.lower + 0.05 + 5.0 * u
    return 10.0 * (u - 0.5)


def _observation(fam, u):
    """A support point from u in (0, 1): a lattice point or a mean-like value."""
    if fam.support.lattice:
        return float(round(u * min(fam.support.upper, 12.0)))
    return mean_value(fam, _theta(fam, u))


@pytest.mark.parametrize("name", FAMILY_NAMES)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(u=unit, v=unit)
def test_deviance_nonnegative_and_zero_on_diagonal(name, u, v):
    fam = FAMILIES[name]
    y, mu = _observation(fam, u), mean_value(fam, _theta(fam, v))
    assert edm_deviance(fam, y, mu) >= 0.0
    assert edm_deviance(fam, mu, mu) == 0.0


@pytest.mark.parametrize("name", FAMILY_NAMES)
@settings(derandomize=True, max_examples=50, deadline=None)
@given(u=unit)
def test_inverse_mean_undoes_mean_value(name, u):
    fam = FAMILIES[name]
    theta = _theta(fam, u)
    assert inverse_mean(fam, mean_value(fam, theta)) == pytest.approx(theta, rel=1e-9, abs=1e-12)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    delta=st.floats(-1e-5, P_SWITCH, exclude_max=True),
    y=st.floats(0.1, 4.0),
    mu=st.floats(0.5, 2.0),
    tau=st.floats(0.2, 2.0),
)
@example(delta=-1.01 * P_SWITCH, y=0.5, mu=1.0, tau=1.0)  # both sides of the window's edge
@example(delta=-0.99 * P_SWITCH, y=0.5, mu=1.0, tau=1.0)
@example(delta=0.99 * P_SWITCH, y=3.0, mu=0.5, tau=0.2)
def test_tweedie_density_continuous_across_gamma_window(delta, y, mu, tau):
    base = tweedie_density(2.0, y, mu, tau)
    assert tweedie_density(2.0 + delta, y, mu, tau) == pytest.approx(base, rel=1e-4)


# Above the window the density comes from the Fourier inversion (the
# positive-stable series needs ~1/(p - 2) terms there and cancels), below it
# from the compound Poisson series.  The density moves with p, by up to about
# 5 (p - 2) relative on this grid, so the window is held to the mean of the
# two sides, which agrees with it to second order in p - 2.
@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    delta=st.floats(P_SWITCH, 1e-4),
    y=st.floats(0.1, 4.0),
    mu=st.floats(0.5, 2.0),
    tau=st.floats(0.2, 2.0),
)
@example(delta=1.01 * P_SWITCH, y=0.5, mu=1.0, tau=1.0)
def test_tweedie_density_continuous_above_gamma_window(delta, y, mu, tau):
    sides = tweedie_density(2.0 + delta, y, mu, tau) + tweedie_density(2.0 - delta, y, mu, tau)
    assert 0.5 * sides == pytest.approx(tweedie_density(2.0, y, mu, tau), rel=1e-4)


# Quadrature of the density up to the window's top, Gil-Pelaez inversion
# above it.  The cdf moves by at most 0.34 |p - 2| on this grid, so it is held
# to |p - 2|.  Below the window each cdf integrates the compound Poisson
# series (about a second), so that side has fixed points only.
@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    delta=st.floats(-P_SWITCH, 1e-4, exclude_min=True),
    y=st.floats(0.1, 4.0),
    mu=st.floats(0.5, 2.0),
    tau=st.floats(0.2, 2.0),
)
@example(delta=-1.01 * P_SWITCH, y=0.5, mu=1.0, tau=1.0)
@example(delta=-1e-5, y=3.0, mu=0.5, tau=0.2)
@example(delta=1.01 * P_SWITCH, y=0.5, mu=1.0, tau=1.0)
def test_tweedie_cdf_continuous_across_gamma_window(delta, y, mu, tau):
    base = tweedie_cdf(2.0, y, mu, tau)
    assert abs(tweedie_cdf(2.0 + delta, y, mu, tau) - base) <= max(abs(delta), 1e-9)
