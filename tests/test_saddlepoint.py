"""Saddlepoint densities, renormalization, Lugannani-Rice tail areas."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, i0
from scipy.stats import norm, poisson

from dispmodels import edm, pdm
from dispmodels.deviance import DEVIANCES, VARIANCE_FUNCTIONS
from dispmodels.errors import DomainError, NumericalError
from dispmodels.saddlepoint import (
    lugannani_rice,
    lugannani_rice_cdf,
    renormalized_saddlepoint,
    saddlepoint_density,
    sample_mean_cdf,
)
from dispmodels.tweedie import tweedie_density


def exact_gamma_density(y, theta, tau):
    shape = 1.0 / tau
    scale = -1.0 / theta * tau  # mean mu = -1/theta
    return math.exp(
        (shape - 1) * math.log(y) - y / scale - math.lgamma(shape) - shape * math.log(scale)
    )


class TestSaddlepointDensity:
    def test_normal_exact(self):
        rng = np.random.default_rng(2)
        fam = edm.get_family("normal")
        for _ in range(100):
            y = float(rng.normal())
            theta = float(rng.normal())
            tau = float(0.2 + rng.random())
            approx = saddlepoint_density(fam, y, theta, tau).value
            exact = edm.density(fam, y, theta, tau)
            assert approx == pytest.approx(exact, rel=1e-12)

    def test_gamma_small_dispersion_ratio(self):
        fam = edm.get_family("gamma")
        res = saddlepoint_density(fam, 1.0, -1.0, 0.1)
        exact = exact_gamma_density(1.0, -1.0, 0.1)
        assert 0.99 <= res.value / exact <= 1.01

    def test_gamma_stirling_ratio_at_shape_one(self):
        # saddlepoint (2 pi)^(-1/2) vs exact e^(-1): the Stirling ratio
        fam = edm.get_family("gamma")
        res = saddlepoint_density(fam, 1.0, -1.0, 1.0)
        assert res.value == pytest.approx(0.3989422804014327, rel=1e-12)
        assert res.value / exact_gamma_density(1.0, -1.0, 1.0) == pytest.approx(
            1.0844375514192275, rel=1e-12
        )

    def test_saddle_field(self):
        fam = edm.get_family("gamma")
        res = saddlepoint_density(fam, 2.0, -1.0, 0.5)
        # lambda-hat = (q(y) - theta)/tau = (-1/2 + 1)/0.5
        assert res.saddle == pytest.approx(1.0, rel=1e-12)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            saddlepoint_density(edm.get_family("gamma"), 0.0, -1.0, 1.0)

    @pytest.mark.parametrize("name", ["gamma", "inverse_gaussian"])
    def test_ratio_converges_monotonically(self, name):
        # the IG saddlepoint is exactly the density (V(y) = y^3 reproduces the
        # closed form), so its error curve is identically ~0: non-strict there
        fam = edm.get_family(name)
        theta = -1.0 if name == "gamma" else -0.5
        ys = np.linspace(0.2, 5.0, 25)
        worst = []
        for tau in (1.0, 0.1, 0.01):
            errs = []
            for y in ys:
                approx = saddlepoint_density(fam, float(y), theta, tau).value
                exact = (
                    exact_gamma_density(float(y), theta, tau)
                    if name == "gamma"
                    else tweedie_density(3.0, float(y), edm.mean_value(fam, theta), tau)
                )
                errs.append(abs(approx / exact - 1.0))
            worst.append(max(errs))
        if name == "gamma":
            assert worst[0] > worst[1] > worst[2]
        else:
            # exact at every tau; the sequence is non-increasing up to float noise
            assert all(w < 1e-12 for w in worst)
        assert worst[2] < 0.01

    def test_sqrt_tau_normalizer_equivalence(self):
        # sqrt(tau) a(y; tau) [2 pi V(y)]^(1/2) -> 1 as tau -> 0, via the
        # exact gamma normalizer
        fam = edm.get_family("gamma")
        y, theta = 1.3, -1.0
        mu = edm.mean_value(fam, theta)
        gaps = []
        for tau in (1e-1, 1e-2, 1e-3):
            dens = exact_gamma_density(y, theta, tau)
            a_y_tau = dens * math.exp(edm.edm_deviance(fam, y, mu) / (2.0 * tau))
            ratio = math.sqrt(tau) * a_y_tau * math.sqrt(2.0 * math.pi * edm.variance_function(fam, y))
            gaps.append(abs(ratio - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3


    @pytest.mark.parametrize("name,y,theta,tau", [("gamma", 1e-300, -1.0, 1.0), ("gamma", 1e-8, -1e8, 5e-324),
                                                  ("binomial", 5e-324, -1e8, 1.0)])
    def test_extreme_inputs_raise_a_numerical_error(self, name, y, theta, tau):
        # b''(q(y)) = y^2 overflows as 1/theta^2 at q(y) = -1e300; 2 pi tau V(y) underflows to 0;
        # exp(-theta) overflows in the binomial mean
        with pytest.raises(NumericalError, match=re.escape(f"y={y}, theta={theta}, tau={tau}")):
            saddlepoint_density(edm.get_family(name), y, theta, tau)


class TestRenormalizedSaddlepoint:
    def test_normal_already_normalized(self):
        dev, V = DEVIANCES["normal"], VARIANCE_FUNCTIONS["normal"]
        res = renormalized_saddlepoint(dev, V, 0.7, 0.2, 1.3)
        exact = edm.density(edm.get_family("normal"), 0.7, 0.2, 1.3)
        assert res.renormalized
        assert res.value == pytest.approx(exact, rel=1e-10)

    def test_von_mises_normalizer_bessel_identity(self):
        # a0 = 1 / integral q; the integral reduces to the Bessel form
        # (2 pi tau)^(-1/2) e^(-1/tau) 2 pi I0(1/tau)
        dev, V = DEVIANCES["vonmises"], VARIANCE_FUNCTIONS["vonmises"]
        tau = 0.5
        res = renormalized_saddlepoint(dev, V, 0.3, 0.0, tau)
        integral = (2 * math.pi * tau) ** -0.5 * math.exp(-1 / tau) * 2 * math.pi * i0(1 / tau)
        q = (2 * math.pi * tau) ** -0.5 * math.exp(-(1 - math.cos(0.3)) / tau)
        assert res.value == pytest.approx(q / integral, rel=1e-10)

    def test_von_mises_quadrature_oracle(self):
        dev, V = DEVIANCES["vonmises"], VARIANCE_FUNCTIONS["vonmises"]
        tau = 0.5
        oracle, _ = quad(lambda x: math.exp(-(1 - math.cos(x)) / tau), 0, 2 * math.pi)
        res = renormalized_saddlepoint(dev, V, 0.0, 0.0, tau)
        assert res.value == pytest.approx(1.0 / oracle, rel=1e-10)

    def test_gamma_integrates_to_one(self):
        dev, V = DEVIANCES["gamma"], VARIANCE_FUNCTIONS["gamma"]
        total, _ = quad(
            lambda x: renormalized_saddlepoint(dev, V, x, 1.0, 1.0).value, 1e-12, 50, limit=300
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_lattice_summation_path(self):
        fam = edm.get_family("poisson")
        dev, V = edm.unit_deviance_of(fam), edm.variance_function_of(fam)
        res = renormalized_saddlepoint(dev, V, 3.0, 2.0, 1.0)
        # renormalized saddlepoint is close to, but not equal to, the pmf
        assert res.value == pytest.approx(poisson.pmf(3, 2.0), rel=0.2)
        total = sum(renormalized_saddlepoint(dev, V, float(k), 2.0, 1.0).value for k in range(60))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_lattice_sum_with_its_mass_far_from_zero(self):
        # the terms below k = 3 underflow to zero; the sum must not stop there
        fam = edm.get_family("poisson")
        dev, V = edm.unit_deviance_of(fam), edm.variance_function_of(fam)
        res = renormalized_saddlepoint(dev, V, 800.0, 800.0, 1.0)
        assert res.value == pytest.approx(poisson.pmf(800, 800.0), rel=2e-3)


@pytest.fixture
def integrand_calls(monkeypatch):
    """The number of nodes of each integrand call of the normalizing integrals of ``pdm_normalizer``."""
    calls, real = [], pdm._support_integral
    monkeypatch.setattr(pdm, "_support_integral",
                        lambda fn, *args: real(lambda x: calls.append(x.size) or fn(x), *args))
    return calls


class TestNormalizerSpread:
    """``pdm_normalizer`` sizes an infinite end of its integral from the spread sqrt(tau V(mu))."""

    def test_gamma_normalizers_take_one_integrand_call(self, integrand_calls):
        # stratified draws on the ranges of the benchmark's renormalized ops
        rng = np.random.default_rng(36)
        y, mu, tau = ((lo + (hi - lo) * (np.arange(100) + rng.random(100)) / 100).tolist()
                      for lo, hi in ((0.2, 4.0), (0.5, 2.0), (0.05, 0.5)))
        dev, V = DEVIANCES["gamma"], VARIANCE_FUNCTIONS["gamma"]
        for point in zip(rng.permutation(y), rng.permutation(mu), tau):
            integrand_calls.clear()
            renormalized_saddlepoint(dev, V, *point)
            assert len(integrand_calls) == 1, point

    def test_the_spread_saves_calls_and_keeps_the_value(self, integrand_calls):
        # against the same deviance without a variance, whose integral takes L = mu (or 1 on the line)
        calls = {True: 0, False: 0}
        for name in ("gamma", "inverse_gaussian", "normal"):
            dev, V = DEVIANCES[name], VARIANCE_FUNCTIONS[name]
            for mu in (0.3, 1.0, 3.0):
                for tau in (0.01, 0.05, 0.2, 0.5, 1.0, 2.0, 5.0):
                    counts, values = {}, {}
                    for spread, d in ((True, dev), (False, replace(dev, variance=None))):
                        integrand_calls.clear()
                        values[spread] = renormalized_saddlepoint(d, V, mu, mu, tau).value
                        counts[spread] = len(integrand_calls)
                        calls[spread] += counts[spread]
                    assert values[True] == pytest.approx(values[False], rel=1e-12, abs=0.0), (name, mu, tau)
                    assert counts[True] <= counts[False] + 1, (name, mu, tau)
        assert calls[True] < 0.85 * calls[False]

    @pytest.mark.parametrize("variance", [0.0, -1.0, math.inf, math.nan])
    def test_a_variance_that_is_not_positive_and_finite_gives_no_spread(self, variance):
        # the normalizer is then the one of the same deviance without a variance, bit for bit
        dev = DEVIANCES["gamma"]
        value = pdm.pdm_normalizer(replace(dev, variance=lambda mu: variance), np.ones_like, 0.3, 1.5)
        assert value == pdm.pdm_normalizer(replace(dev, variance=None), np.ones_like, 0.3, 1.5)

    @pytest.mark.parametrize("tau", [0.1, 0.5, 1.0])
    def test_a_lattice_sum_takes_one_call(self, integrand_calls, tau):
        # the term 10^7 points above the start, 64 terms up from 2 and the 2 down share one call
        fam = edm.get_family("poisson")
        renormalized_saddlepoint(edm.unit_deviance_of(fam), edm.variance_function_of(fam), 3.0, 2.0, tau)
        assert integrand_calls == [64 + 2 + 1]


class TestLugannaniRice:
    def test_normal_reduces_to_phi(self):
        fam = edm.get_family("normal")
        value = lugannani_rice_cdf(fam, 1.6449, 0.0, 1.0)
        assert value == pytest.approx(norm.cdf(1.6449), rel=1e-12)
        assert value == pytest.approx(0.95, abs=1e-4)

    def test_gamma_against_incomplete_gamma(self):
        fam = edm.get_family("gamma")
        tau = 0.05
        shape = 1.0 / tau
        worst = 0.0
        for y in np.linspace(0.3, 3.0, 50):
            approx = lugannani_rice_cdf(fam, float(y), -1.0, tau)
            exact = float(gammainc(shape, shape * y))
            worst = max(worst, abs(approx - exact))
        assert worst < 5e-4

    def test_continuity_limit_at_mean(self):
        fam = edm.get_family("gamma")
        tau = 0.1
        exact = float(gammainc(10.0, 10.0))
        value_at = lugannani_rice_cdf(fam, 1.0 + 1e-12, -1.0, tau)
        assert abs(value_at - exact) < 5e-3
        # approach from both sides without jumps
        left = lugannani_rice_cdf(fam, 1.0 - 1e-7, -1.0, tau)
        right = lugannani_rice_cdf(fam, 1.0 + 1e-7, -1.0, tau)
        assert abs(left - right) < 1e-5

    def test_gamma_next_to_the_mean(self):
        # sqrt(d) = 1.4e-5 lies above the switch, where 1/r - 1/u needs an accurate d
        y = 1.0 + 1.4e-5
        value = lugannani_rice_cdf(edm.get_family("gamma"), y, -1.0, 0.05)
        assert abs(value - float(gammainc(20.0, 20.0 * y))) <= 1e-4

    @pytest.mark.parametrize(
        "name,theta,tau",
        [("gamma", -1.0, 0.2), ("normal", 0.5, 1.0), ("inverse_gaussian", -0.5, 0.3)],
    )
    def test_nondecreasing_in_y(self, name, theta, tau):
        fam = edm.get_family(name)
        lo = 0.05 if name != "normal" else -4.0
        hi = 6.0 if name != "normal" else 5.0
        values = [lugannani_rice_cdf(fam, float(y), theta, tau) for y in np.linspace(lo, hi, 200)]
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-12)
        assert all(0.0 <= v <= 1.0 for v in values)

    @pytest.mark.parametrize("name,y,theta", [("normal", -1e8, -1e8), ("gamma", 1e-8, -1e8)])
    def test_nan_tail_raises(self, name, y, theta):
        # sqrt(1/tau) overflows at tau = 5e-324: r = inf * 0 at the mean, or inf - inf after it
        with pytest.raises(NumericalError, match=r"y=.*theta=.*tau=5e-324"):
            lugannani_rice_cdf(edm.get_family(name), y, theta, 5e-324)

    @pytest.mark.parametrize("name,y,theta,tau", [
        ("gamma", 1e-300, -1e-8, 5e-324), ("gamma", 1e300, -1e-8, 5e-324),
        ("inverse_gaussian", 5e-324, -1e-8, 5e-324), ("binomial", 5e-324, 1e-8, 1.0),
        ("negative_binomial", 1e300, -1e-8, 1.0)])
    def test_overflow_or_division_by_zero_raises(self, name, y, theta, tau):
        # in b''(q(y)), q(y) or the binomial mean, as a bare OverflowError or ZeroDivisionError before
        with pytest.raises(NumericalError, match=re.escape(f"y={y}, theta={theta}, tau={tau}, n=1")):
            lugannani_rice_cdf(edm.get_family(name), y, theta, tau)


class TestSampleMeanCdf:
    def test_n_one_equals_single_observation(self):
        fam = edm.get_family("gamma")
        for y in (0.4, 0.9, 1.7, 3.0):
            a = sample_mean_cdf(fam, y, -1.0, 1.0, 1)
            b = lugannani_rice_cdf(fam, y, -1.0, 1.0)
            assert a == pytest.approx(b, abs=1e-10)

    def test_gamma_mean_of_twenty(self):
        # mean of 20 iid Exp(1) is Gamma(20, 1/20): exact convolution oracle
        fam = edm.get_family("gamma")
        worst = 0.0
        for y in np.linspace(0.4, 2.2, 40):
            approx = sample_mean_cdf(fam, float(y), -1.0, 1.0, 20)
            exact = float(gammainc(20.0, 20.0 * y))
            worst = max(worst, abs(approx - exact))
        assert worst < 5e-4

    def test_normal_exact(self):
        fam = edm.get_family("normal")
        for y, n in [(-0.3, 4), (0.4, 9), (1.1, 2)]:
            value = sample_mean_cdf(fam, y, 0.0, 1.0, n)
            assert value == pytest.approx(norm.cdf(y * math.sqrt(n)), rel=1e-12)

    def test_mean_point_continuity(self):
        fam = edm.get_family("gamma")
        left = sample_mean_cdf(fam, 1.0 - 1e-9, -1.0, 1.0, 20)
        right = sample_mean_cdf(fam, 1.0 + 1e-9, -1.0, 1.0, 20)
        assert abs(left - right) < 1e-6
        exact = float(gammainc(20.0, 20.0))
        assert abs(left - exact) < 5e-3


class TestStandardizedResiduals:
    def test_gamma_convention(self):
        # r = sgn(y - mu) sqrt(d/tau), u = sqrt(V(y)/tau) (q(y) - theta)
        fam = edm.get_family("gamma")
        res = lugannani_rice(fam, 3.0, -0.5, 0.5)
        dev = 2.0 * (1.5 - math.log(1.5) - 1.0)
        assert res.r == pytest.approx(math.sqrt(dev / 0.5), rel=1e-14)
        assert res.r == pytest.approx(0.614931, abs=1e-6)
        assert res.u == pytest.approx(3.0 * (-1.0 / 3.0 + 0.5) / math.sqrt(0.5), rel=1e-14)
        assert res.saddle == pytest.approx((-1.0 / 3.0 + 0.5) / 0.5, rel=1e-14)
        assert res.value == pytest.approx(0.800701, abs=1e-6)
        assert res.value == lugannani_rice_cdf(fam, 3.0, -0.5, 0.5)

    @pytest.mark.parametrize(
        "name,theta,tau,ys",
        [
            ("gamma", -1.0, 0.4, (0.3, 0.9, 1.0 + 3e-5, 1.0 + 1e-9, 2.5)),
            ("normal", 0.5, 1.3, (-1.0, 0.5 + 1e-7, 0.9, 3.0)),
            ("inverse_gaussian", -0.5, 0.3, (0.2, 1.0 - 2e-5, 1.7, 4.0)),
        ],
    )
    @pytest.mark.parametrize("n", [1, 3, 20])
    def test_sample_mean_is_the_formula_at_tau_over_n(self, name, theta, tau, ys, n):
        # the mean of n draws from EDM(theta, tau) is EDM(theta, tau/n)
        fam = edm.get_family(name)
        for y in ys:
            assert sample_mean_cdf(fam, y, theta, tau, n) == pytest.approx(
                lugannani_rice_cdf(fam, y, theta, tau / n), abs=1e-12
            )

    def test_residuals_scale_with_n(self):
        fam = edm.get_family("gamma")
        one = lugannani_rice(fam, 1.4, -1.0, 0.5)
        five = lugannani_rice(fam, 1.4, -1.0, 0.5, n=5)
        assert five.r == pytest.approx(math.sqrt(5.0) * one.r, rel=1e-14)
        assert five.u == pytest.approx(math.sqrt(5.0) * one.u, rel=1e-14)
        assert five.saddle == one.saddle

    def test_sample_size_must_be_positive(self):
        with pytest.raises(DomainError):
            sample_mean_cdf(edm.get_family("gamma"), 1.0, -1.0, 1.0, 0)

    @pytest.mark.parametrize("n", [2.5, math.inf, math.nan])
    def test_sample_size_must_be_whole(self, n):
        # the mean of n draws: 2.5 and inf once gave a cdf (0.758 and 1.0), nan a NumericalError
        with pytest.raises(DomainError, match="whole number"):
            sample_mean_cdf(edm.get_family("gamma"), 1.3, -1.0 / 1.1, 0.2, n)
