"""Property tests: deviance axioms, the mean-value round trip, Tweedie continuity at p = 2 and
p = 1, and CLI exit codes for any float input.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import contextlib
import io
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dispmodels import cli
from dispmodels.deviance import DEVIANCES
from dispmodels.edm import FAMILIES, edm_deviance, inverse_mean, mean_value
from dispmodels.pdm import PDMS
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


# The Poisson-gamma sum below the window, the gamma cdf inside it and
# Gil-Pelaez inversion above it.  The cdf moves by at most 0.34 |p - 2| on
# this grid, so it is held to |p - 2|.
@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    delta=st.floats(-1e-4, 1e-4),
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


# Above the p = 1 window the compound Poisson-gamma law is a Poisson count of
# jumps of nearly fixed size tau, smeared by a gamma of relative width
# sqrt(p - 1); half-way between two lattice points of tau N0 its cdf stays
# within (p - 1) of the Poisson cdf (0.79 (p - 1) at most in 300 draws from this grid).
@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    delta=st.floats(P_SWITCH, 1e-4, exclude_min=True),
    k=st.integers(0, 12),
    mu=st.floats(0.5, 4.0),
    tau=st.floats(0.2, 2.0),
)
@example(delta=1.01 * P_SWITCH, k=2, mu=1.0, tau=0.5)
@example(delta=1e-5, k=2, mu=1.0, tau=0.5)
def test_tweedie_cdf_continuous_across_poisson_window(delta, k, mu, tau):
    y = (k + 0.5) * tau
    assert abs(tweedie_cdf(1.0 + delta, y, mu, tau) - tweedie_cdf(1.0, y, mu, tau)) <= delta


# Any float, nan and the infinities included, given to a cheap subcommand ends
# in exit 0, 1 or 2: a usage, domain or numerical error, never a traceback.
# Each option draws from an ordinary range half of the time, so that the
# draws reach the evaluation routes and not only the argument checks.  Values
# go in as ``--opt=value`` so that a negative number is never read as an
# option name.
def _any_float(lo, hi):
    return st.one_of(st.floats(lo, hi), st.floats(allow_nan=True, allow_infinity=True))


real, positive = _any_float(-5.0, 5.0), _any_float(0.05, 5.0)
DENSITY_FAMILIES = [*FAMILY_NAMES, "tweedie:1.5", "tweedie:1", "tweedie:2.5", "tweedie:1.0000005"]


def _exits_cleanly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    assert code in (0, 1, 2), argv


def _options(**values):
    return [f"--{name.replace('_', '-')}={value!r}" for name, value in values.items()]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(family=st.sampled_from(sorted(DEVIANCES)), y=real, mu=real)
def test_cli_deviance_never_raises(family, y, mu):
    _exits_cleanly(["deviance", "--family", family, *_options(y=y, mu=mu)])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(family=st.sampled_from(DENSITY_FAMILIES), y=real, mu=real, tau=positive)
def test_cli_density_never_raises(family, y, mu, tau):
    _exits_cleanly(["density", "--family", family, *_options(y=y, mu=mu, tau=tau)])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(family=st.sampled_from(["gamma", "poisson", "normal", "inverse_gaussian", "tweedie:1.5"]),
       method=st.sampled_from(["saddle", "renorm", "lr", "mean-lr"]),
       y=real, mu=positive, tau=positive)
def test_cli_approx_never_raises(family, method, y, mu, tau):
    _exits_cleanly(["approx", "--family", family, "--method", method, "--n", "3",
                    *_options(y=y, mu=mu, tau=tau)])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(model=st.sampled_from(sorted(PDMS)), y=real, mu=real, tau=positive)
def test_cli_pdm_density_never_raises(model, y, mu, tau):
    _exits_cleanly(["pdm", "--model", model, *_options(y=y, mu=mu, tau=tau)])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(p=st.one_of(st.sampled_from([0.0, 1.0, 1.5, 2.0, 2.5, 3.0]), _any_float(-1.0, 4.0)),
       mu=positive, tau=positive, y_min=real, y_step=positive, rows=st.integers(0, 19))
def test_cli_tweedie_table_never_raises(p, mu, tau, y_min, y_step, rows):
    y_max = y_min + rows * y_step if math.isfinite(y_min + rows * y_step) else y_min
    _exits_cleanly(["tweedie", *_options(p=p, mu=mu, tau=tau, y_min=y_min, y_max=y_max,
                                         y_step=y_step)])


@pytest.mark.parametrize("argv", [
    ["deviance", "--family", "gamma", "--y", "1", "--mu", "1"],
    ["density", "--family", "gamma", "--y", "1", "--mu", "1", "--tau", "1"],
    ["approx", "--family", "gamma", "--method", "lr", "--y", "1", "--mu", "1", "--tau", "1"],
    ["tweedie", "--p", "1.5", "--mu", "1", "--tau", "1", "--y-min", "0", "--y-max", "1",
     "--y-step", "0.5"],
    ["pdm", "--model", "vonmises", "--mu", "1", "--tau", "1", "--y", "1"],
    ["pdm", "--model", "vonmises", "--mu", "1", "--tau", "1", "--integrate"],
    ["cf-construct", "--cf", "gauss", "--tau", "0.5", "--L", "20", "--lambda-reg", "1e-8"],
])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_cli_refuses_nan_and_inf_in_every_float_option(argv, bad):
    numeric = [i for i in range(1, len(argv) - 1) if argv[i + 1][0] in "-0123456789"]
    for i in numeric:
        changed = [*argv[:i], f"{argv[i]}={bad}", *argv[i + 2:]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.run(changed) == 1, changed
        assert err.getvalue().startswith("ERROR:usage:") and out.getvalue() == ""
