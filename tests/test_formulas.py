"""A public function checks each argument once and evaluates private formulas.

The pointwise functions reach b', q, V = b'' o q and d through the private formulas of ``edm``
after their own checks, so a float call makes one ``RealInterval.require`` per quantity it
validates, and gives, bit for bit, the composition of the public ``edm`` functions it is made of.
"""

import math
from collections import Counter

import pytest
from scipy.special import ndtr

from dispmodels import edm
from dispmodels.errors import DomainError
from dispmodels.saddlepoint import (SaddlepointResult, lugannani_rice, renormalized_saddlepoint, saddlepoint_density,
                                    sample_mean_cdf)
from dispmodels.support import RealInterval
from dispmodels.tweedie import tweedie_density, tweedie_family, tweedie_inverse_mean

USER_GAMMA = {"name": "user_gamma", "b": "-log(0 - theta)", "theta_domain": [None, 0], "mean_domain": [0, None],
              "support": [0, None]}
FAMILIES = {name: edm.get_family(name)
            for name in ("normal", "gamma", "inverse_gaussian", "poisson", "binomial", "negative_binomial")}
FAMILIES["tweedie 1.5"] = tweedie_family(1.5).to_edm()
FAMILIES["user_gamma"] = edm.family_from_config(USER_GAMMA)
# (y, theta, tau) inside each support, one of them within sqrt(d) < 1e-5 of the mean (the LR limit)
POINTS = {
    "normal": [(0.3, 0.1, 0.5), (-2.0, 0.4, 2.0), (0.1 + 1e-9, 0.1, 0.5)],
    "gamma": [(1.3, -1.0 / 1.1, 0.2), (0.2, -0.5, 1.5), (1.0 + 1e-8, -1.0, 0.3)],
    "inverse_gaussian": [(0.7, -0.5, 0.4), (3.0, -2.0, 1.0), (1.0 + 1e-8, -0.5, 0.2)],
    "poisson": [(3.0, math.log(2.0), 1.0), (0.5, 1.0, 1.0), (2.0 * (1.0 + 1e-8), math.log(2.0), 1.0)],
    "binomial": [(0.3, 0.2, 1.0), (0.9, -1.0, 1.0), (0.5 + 1e-9, 0.0, 1.0)],
    "negative_binomial": [(2.0, -0.5, 1.0), (0.4, -1.5, 1.0)],
    "tweedie 1.5": [(1.2, -2.0, 0.5), (0.3, -1.0, 1.5)],
    "user_gamma": [(1.3, -1.0 / 1.1, 0.2), (1.0, -1.0, 0.3)],
}
CASES = [(name, *point) for name, points in POINTS.items() for point in points]


def _composed_lugannani_rice(fam, y, theta, tau, n=1):
    """The tail area from the public edm functions, as ``lugannani_rice`` once computed it."""
    mu = edm.mean_value(fam, theta)
    scale = math.sqrt(n / tau)
    r_dev = math.copysign(math.sqrt(edm.edm_deviance(fam, y, mu)), y - mu)
    q_gap = edm.inverse_mean(fam, y) - theta
    r = scale * r_dev
    u = scale * math.sqrt(edm.variance_function(fam, y)) * q_gap
    if abs(r_dev) >= 1e-5:
        correction = 1.0 / r - 1.0 / u
    else:
        v_mu = edm.cumulant(fam, 2, theta, 1.0)
        correction = edm.cumulant(fam, 3, theta, 1.0) / (6.0 * v_mu * math.sqrt(v_mu) * scale)
    value = float(ndtr(r)) + math.exp(-0.5 * r * r) / math.sqrt(2.0 * math.pi) * correction
    return SaddlepointResult(value=min(max(value, 0.0), 1.0), saddle=q_gap / tau, r=r, u=u)


@pytest.mark.parametrize("name,y,theta,tau", CASES)
def test_saddlepoint_functions_are_the_public_composition(name, y, theta, tau):
    fam = FAMILIES[name]
    mu = edm.mean_value(fam, theta)
    value = math.exp(-edm.edm_deviance(fam, y, mu) / (2.0 * tau)) / math.sqrt(
        2.0 * math.pi * tau * edm.variance_function(fam, y))
    composed = SaddlepointResult(value=value, saddle=(edm.inverse_mean(fam, y) - theta) / tau)
    assert repr(saddlepoint_density(fam, y, theta, tau)) == repr(composed)
    assert repr(lugannani_rice(fam, y, theta, tau)) == repr(_composed_lugannani_rice(fam, y, theta, tau))
    assert repr(sample_mean_cdf(fam, y, theta, tau, 5)) == repr(_composed_lugannani_rice(fam, y, theta, tau, 5).value)


@pytest.mark.parametrize("name,y,theta,tau", CASES)
def test_density_is_the_public_composition(name, y, theta, tau):
    fam = FAMILIES[name]
    if fam.support.lattice:
        y = float(round(y))
    if fam.has_exact_density:
        composed = math.exp(edm.log_density(fam, y, theta, tau))
    else:
        composed = renormalized_saddlepoint(edm.unit_deviance_of(fam), edm.variance_function_of(fam), y,
                                            edm.mean_value(fam, theta), tau).value
    assert repr(edm.density(fam, y, theta, tau)) == repr(composed)


@pytest.mark.parametrize("y,mu,tau", [(1.2, 0.8, 0.5), (0.0, 1.3, 0.7), (3.1, 2.0, 1.5)])
def test_tweedie_density_is_the_view_density(y, mu, tau):
    view = tweedie_family(1.5).to_edm()
    assert repr(tweedie_density(1.5, y, mu, tau)) == repr(
        math.exp(edm.log_density(view, y, tweedie_inverse_mean(1.5, mu), tau)))


@pytest.fixture
def checks(monkeypatch):
    """The names of the ``RealInterval.require`` calls made while the fixture is in use."""
    names, require = [], RealInterval.require

    def counted(self, x, what="value"):
        names.append(what)
        return require(self, x, what)

    monkeypatch.setattr(RealInterval, "require", counted)
    return names


GAMMA = edm.get_family("gamma")


@pytest.mark.parametrize("call,checked", [
    (lambda: saddlepoint_density(GAMMA, 1.3, -1.0 / 1.1, 0.2), {"y", "theta", "tau", "mu"}),
    (lambda: lugannani_rice(GAMMA, 1.3, -1.0 / 1.1, 0.2), {"y", "theta", "tau", "mu"}),
    (lambda: sample_mean_cdf(GAMMA, 1.3, -1.0 / 1.1, 0.2, 5), {"y", "theta", "tau", "mu"}),
    (lambda: edm.density(GAMMA, 1.3, -1.0 / 1.1, 0.2), {"y", "theta", "tau"}),
    (lambda: tweedie_density(1.5, 1.3, 1.1, 0.2), {"y", "mu", "tau"}),
], ids=["saddlepoint_density", "lugannani_rice", "sample_mean_cdf", "density", "tweedie_density"])
def test_each_argument_is_checked_once(checks, call, checked):
    # y, theta and tau, and the mean b'(theta) where the function evaluates at it
    call()
    assert set(checks) == checked and max(Counter(checks).values()) == 1, checks


def test_a_family_that_is_not_steep_checks_its_means():
    # the Tweedie p < 0 view has the support R and the mean domain (0, inf): a y inside the support, or a
    # point between it and a mean, is not a mean, so the checks that imply it elsewhere are made here
    view = tweedie_family(-1.0).to_edm()
    assert not view.steep and all(FAMILIES[name].steep for name in FAMILIES)
    unit = edm.unit_deviance_of(view)
    for call in (lambda: saddlepoint_density(view, -1.0, 0.5, 1.0), lambda: lugannani_rice(view, -1.0, 0.5, 1.0),
                 lambda: unit(1.0, -1.0), lambda: edm.deviance_by_quadrature(view, -1.0, 1.0)):
        with pytest.raises(DomainError, match="outside"):
            call()
