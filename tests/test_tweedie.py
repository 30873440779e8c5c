"""Tweedie power-variance families: generator, deviance, series and cf-inversion densities, cdfs."""

import math
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad

from dispmodels import edm
from dispmodels.errors import DomainError, NumericalError
from dispmodels.tweedie import (
    _fourier_inversion,
    _generator,
    _inverse_mean,
    _log_v_series,
    compound_poisson_gamma_params,
    sample_compound_poisson_gamma,
    tweedie_canonical_domain,
    tweedie_cdf,
    tweedie_cumulant_generator,
    tweedie_density,
    tweedie_deviance,
    tweedie_family,
    tweedie_inverse_mean,
    tweedie_mean,
    tweedie_zero_mass,
)


@contextmanager
def _time_limit(seconds):
    """Fail with TimeoutError if the block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _density_by_inversion(p, y, mu, tau):
    """The p > 2 density by inverting the cf of mean mu itself: no tilt, no series."""
    sigma = math.sqrt(tau * mu**p)
    return _fourier_inversion(p, y, mu, tau, False, 1e-8) / (math.pi * sigma)


class TestCumulantGenerator:
    def test_normal_reduction(self):
        # (1/2) theta^2 at p = 0
        assert tweedie_cumulant_generator(0.0, 3.0) == 4.5

    def test_gamma_log(self):
        assert tweedie_cumulant_generator(2.0, -1.0) == 0.0

    def test_inverse_gaussian(self):
        # (2-3)^(-1) [(1-3)(-2)]^((3-2)/(3-1)) = -sqrt(4) = -2
        assert tweedie_cumulant_generator(3.0, -2.0) == pytest.approx(-2.0, rel=1e-14)

    def test_forbidden_band(self):
        with pytest.raises(DomainError):
            tweedie_cumulant_generator(0.5, -1.0)

    def test_canonical_domain_enforced(self):
        with pytest.raises(DomainError):
            tweedie_cumulant_generator(3.0, 0.5)
        with pytest.raises(DomainError):
            tweedie_cumulant_generator(-1.0, -0.5)

    @pytest.mark.parametrize("p", [-1.0, 0.0, 1.0, 1.5, 2.0, 3.0, 3.7])
    def test_mean_matches_derivative(self, p):
        dom = tweedie_canonical_domain(p)
        theta = -1.0 if dom.upper == 0.0 else 1.0
        h = 1e-6
        fd = (
            tweedie_cumulant_generator(p, theta + h) - tweedie_cumulant_generator(p, theta - h)
        ) / (2 * h)
        assert tweedie_mean(p, theta) == pytest.approx(fd, rel=1e-8)

    @pytest.mark.parametrize("p", [0.0, 1.5, 2.0, 3.0, 3.7])
    def test_second_derivative_is_power_variance(self, p):
        # b_p''(q(mu)) = mu^p, via a finite difference of the mean mapping
        mu = 1.7
        theta = tweedie_inverse_mean(p, mu)
        h = 1e-6 * max(1.0, abs(theta))
        fd = (tweedie_mean(p, theta + h) - tweedie_mean(p, theta - h)) / (2 * h)
        assert fd == pytest.approx(mu**p, rel=1e-8)


class TestDeviance:
    def test_normal_case(self):
        assert tweedie_deviance(0.0, 3.0, 1.0) == 4.0
        assert tweedie_deviance(0.0, -2.0, 1.0) == 9.0

    def test_gamma_limit(self):
        assert tweedie_deviance(2.0, 2.0, 1.0) == pytest.approx(0.6137056388801092, rel=1e-12)
        assert tweedie_deviance(2.0 + 1e-9, 2.0, 1.0) == pytest.approx(
            0.6137056388801092, rel=1e-6
        )

    def test_poisson_limit(self):
        # the switch window only applies from the valid side: (0, 1) stays out
        assert tweedie_deviance(1.0, 2.0, 1.0) == pytest.approx(0.7725887222397811, rel=1e-12)
        assert tweedie_deviance(1.0 + 1e-9, 2.0, 1.0) == pytest.approx(
            0.7725887222397811, rel=1e-6
        )
        with pytest.raises(DomainError):
            tweedie_deviance(1.0 - 1e-9, 2.0, 1.0)

    def test_zero_observation(self):
        # 2{0 - 0 + mu^(2-p)/(2-p)} at y = 0, p = 1.5
        assert tweedie_deviance(1.5, 0.0, 1.0) == 4.0

    @pytest.mark.parametrize("p", [0.0, 1.5, 2.0, 3.0])
    def test_matches_quadrature_of_power_variance(self, p):
        # oracle: 2 integral (y - t) t^-p dt through the EDM machinery
        fam = tweedie_family(p).to_edm()
        rng = np.random.default_rng(47)
        for _ in range(50):
            mu = 0.3 + 2.5 * rng.random()
            y = 0.3 + 2.5 * rng.random()
            closed = tweedie_deviance(p, y, mu)
            assert edm.deviance_by_quadrature(fam, y, mu) == pytest.approx(
                closed, rel=1e-8, abs=1e-10
            )

    def test_forbidden_band(self):
        with pytest.raises(DomainError):
            tweedie_deviance(0.5, 1.0, 1.0)


class TestZeroMass:
    def test_value(self):
        assert tweedie_zero_mass(1.5, 1.0, 1.0) == pytest.approx(0.1353352832366127, rel=1e-14)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(0x5EED)
        draws = sample_compound_poisson_gamma(1.5, 1.0, 1.0, 10**6, rng)
        fraction = float(np.mean(draws == 0.0))
        p0 = tweedie_zero_mass(1.5, 1.0, 1.0)
        se = math.sqrt(p0 * (1 - p0) / 10**6)
        assert abs(fraction - p0) < 3 * se

    def test_mass_vanishes_towards_gamma(self):
        masses = [tweedie_zero_mass(p, 1.0, 1.0) for p in (1.9, 1.99, 1.999)]
        assert masses[0] > masses[1] > masses[2]

    def test_mass_vanishes_with_mean(self):
        assert tweedie_zero_mass(1.5, 1e6, 1.0) < 1e-300

    def test_outside_band_rejected(self):
        with pytest.raises(DomainError):
            tweedie_zero_mass(2.5, 1.0, 1.0)


class TestDensity:
    def test_standard_normal(self):
        assert tweedie_density(0.0, 0.0, 0.0, 1.0) == pytest.approx(0.3989422804014327, rel=1e-14)

    def test_exponential(self):
        assert tweedie_density(2.0, 1.0, 1.0, 1.0) == pytest.approx(0.36787944117144233, rel=1e-12)

    def test_poisson_lattice(self):
        assert tweedie_density(1.0, 2.0, 1.0, 1.0) == pytest.approx(
            0.18393972058572117, rel=1e-12
        )
        with pytest.raises(DomainError):
            tweedie_density(1.0, 0.5, 1.0, 1.0)

    def test_compound_poisson_series_vs_monte_carlo(self):
        # simulation oracle: kernel-free histogram estimate at y = 0.5
        rng = np.random.default_rng(0xD15C)
        draws = sample_compound_poisson_gamma(1.5, 1.0, 1.0, 10**6, rng)
        width = 0.05
        inside = (draws > 0.5 - width / 2) & (draws <= 0.5 + width / 2)
        estimate = float(np.mean(inside)) / width
        se = math.sqrt(float(np.mean(inside)) * (1 - float(np.mean(inside))) / 10**6) / width
        value = tweedie_density(1.5, 0.5, 1.0, 1.0)
        assert abs(estimate - value) < 3 * se + 1e-3  # histogram bias allowance

    def test_atom_at_zero(self):
        assert tweedie_density(1.5, 0.0, 1.0, 1.0) == tweedie_zero_mass(1.5, 1.0, 1.0)

    def test_inverse_gaussian_series_matches_closed_form(self):
        # p = 3 +- epsilon exercises the positive-stable series against the
        # closed-form density
        for y in (0.05, 0.3, 1.0, 2.5, 8.0):
            closed = tweedie_density(3.0, y, 1.0, 1.0)
            series = tweedie_density(3.0 + 1e-9, y, 1.0, 1.0)
            assert series == pytest.approx(closed, rel=1e-6)

    def test_continuity_across_gamma_switch(self):
        for y in (0.5, 1.0, 2.0):
            base = tweedie_density(2.0, y, 1.0, 1.0)
            assert abs(tweedie_density(2.0 + 1e-7, y, 1.0, 1.0) - base) < 1e-4
            assert abs(tweedie_density(2.0 - 1e-7, y, 1.0, 1.0) - base) < 1e-4

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    def test_atom_plus_integral_is_one(self, p):
        atom = tweedie_zero_mass(p, 1.0, 1.0)
        integral, _ = quad(lambda y: tweedie_density(p, y, 1.0, 1.0), 1e-12, 60, limit=300)
        assert atom + integral == pytest.approx(1.0, abs=1e-6)

    def test_positive_stable_normalization(self):
        integral, _ = quad(lambda y: tweedie_density(2.5, y, 1.0, 1.0), 1e-6, 60, limit=300)
        assert integral == pytest.approx(1.0, abs=1e-5)

    def test_classic_powers_match_scipy(self):
        from scipy.stats import gamma, invgauss, norm

        for y, mu, tau in [(0.3, 1.2, 0.4), (1.7, 0.6, 1.3), (4.0, 2.5, 0.2), (0.05, 0.8, 2.0)]:
            assert tweedie_density(0.0, y - 1.0, mu, tau) == pytest.approx(
                norm.pdf(y - 1.0, mu, math.sqrt(tau)), rel=1e-12)
            assert tweedie_density(2.0, y, mu, tau) == pytest.approx(
                gamma.pdf(y, 1.0 / tau, scale=mu * tau), rel=1e-12)
            assert tweedie_density(3.0, y, mu, tau) == pytest.approx(
                invgauss.pdf(y, mu * tau, scale=1.0 / tau), rel=1e-12)

    def test_poisson_with_dispersion(self):
        # p = 1 at tau != 1 is tau times a Poisson(mu/tau) count
        from scipy.stats import poisson

        tau, mu = 0.5, 1.7
        for k in range(12):
            assert tweedie_density(1.0, k * tau, mu, tau) == pytest.approx(
                poisson.pmf(k, mu / tau), rel=1e-12)

    def test_inverse_gaussian_underflow_is_zero(self):
        assert tweedie_density(3.0, 1e-300, 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("p, y, mu, tau", [
        (2.5, 0.12, 1.0, 0.25), (3.5, 0.12, 1.5, 0.25), (2.5, 0.12, 0.7, 0.25),
    ])
    def test_cancelling_series_points_match_untilted_inversion(self, p, y, mu, tau):
        # points where the series cancels past its gate, so the density
        # comes from the inversion at mean y; mean 2y is a second route
        assert _log_v_series(p, y, tau) is None
        log_tilt = lambda m: (y * _inverse_mean(p, m) - _generator(p, _inverse_mean(p, m))) / tau
        untilted = _density_by_inversion(p, y, 2.0 * y, tau)
        expected = untilted * math.exp(log_tilt(mu) - log_tilt(2.0 * y))
        assert tweedie_density(p, y, mu, tau) == pytest.approx(expected, rel=1e-10)

    def test_series_points_match_inversion(self):
        for p, y, mu, tau in [(2.5, 1.0, 1.2, 1.0), (3.5, 0.5, 0.7, 0.25), (4.5, 2.0, 1.5, 0.5)]:
            assert _log_v_series(p, y, tau) is not None
            assert tweedie_density(p, y, mu, tau) == pytest.approx(
                _density_by_inversion(p, y, mu, tau), rel=1e-7)

    def test_unresolved_inversion_raises(self):
        # coefficient of variation 100 next to p = 2: the cf decays like
        # t^(-1/tau), and QUADPACK's estimate cannot meet the gate
        with pytest.raises(NumericalError):
            _density_by_inversion(2.0001, 1.0, 1.0, 1e4)

    def test_left_tail_underflows_to_zero_in_time(self):
        with _time_limit(1.0):
            assert tweedie_density(2.5, 0.001, 1.0, 0.01) == 0.0

    @pytest.mark.parametrize("delta", [1.1e-6, 1e-5, 1e-4])
    def test_just_above_gamma_window_goes_to_inversion(self, delta):
        # the peak series term sits near k ~ 1/(p - 2): past the term budget
        # up to p - 2 ~ 1e-5, which is told without summing, and cancelling
        # past the gate beyond
        start = time.perf_counter()
        value = tweedie_density(2.0 + delta, 0.5, 1.0, 1.0)
        assert delta > 1e-5 or time.perf_counter() - start < 0.1
        assert value == pytest.approx(tweedie_density(2.0, 0.5, 1.0, 1.0), rel=delta)

    def test_negative_p_refused(self):
        with pytest.raises(DomainError):
            tweedie_density(-1.0, 0.5, 1.0, 1.0)

    def test_forbidden_band_rejected(self):
        with pytest.raises(DomainError):
            tweedie_density(0.3, 0.5, 1.0, 1.0)


class TestCdf:
    def test_compound_poisson_against_monte_carlo(self):
        rng = np.random.default_rng(77)
        draws = sample_compound_poisson_gamma(1.5, 1.0, 1.0, 10**6, rng)
        for y in (0.5, 1.0, 2.0):
            exact = tweedie_cdf(1.5, y, 1.0, 1.0)
            empirical = float(np.mean(draws <= y))
            assert abs(exact - empirical) < 3e-3

    def test_normal_case(self):
        from scipy.stats import norm

        assert tweedie_cdf(0.0, 0.7, 0.2, 1.3) == pytest.approx(
            norm.cdf(0.7, loc=0.2, scale=math.sqrt(1.3)), rel=1e-8
        )

    @pytest.mark.parametrize("p, mu, tau", [(1.5, 1.0, 1.0), (1.2, 0.7, 0.4), (1.8, 2.0, 1.5)])
    def test_zero_atom_and_right_continuity(self, p, mu, tau):
        atom = tweedie_zero_mass(p, mu, tau)
        assert tweedie_cdf(p, 0.0, mu, tau) == atom
        assert tweedie_cdf(p, 1e-300, mu, tau) == pytest.approx(atom, rel=1e-12)
        # the mass on (0, y] vanishes like y^((2-p)/(p-1)) as y -> 0
        gaps = [tweedie_cdf(p, y, mu, tau) - atom for y in (1e-3, 1e-6, 1e-9, 1e-12)]
        assert all(g >= 0.0 for g in gaps) and gaps == sorted(gaps, reverse=True)
        assert gaps[-1] <= 0.01 * gaps[0]
        assert tweedie_cdf(p, -0.5, mu, tau) == 0.0

    @pytest.mark.parametrize("p, ys", [
        (1.5, [-0.5, 0.0, 0.5, 1.0, 2.5]),
        (0.0, [-1.0, 0.0, 2.0]),
        (1.0, [0.0, 1.0, 2.0, 5.0]),
        (2.5, [0.5, 1.0, 3.0]),
    ])
    def test_ascending_rows_match_pointwise_values(self, p, ys):
        rows = tweedie_cdf(p, np.array(ys), 1.2, 1.0)
        assert isinstance(rows, np.ndarray) and rows.shape == (len(ys),)
        for y, value in zip(ys, rows):
            assert value == pytest.approx(tweedie_cdf(p, y, 1.2, 1.0), abs=2e-7)
        assert np.all(np.diff(rows) >= 0.0)

    def test_inverse_gaussian_matches_scipy(self):
        from scipy.stats import invgauss

        rng = np.random.default_rng(0x16)
        for _ in range(40):
            y, mu = np.exp(rng.uniform(np.log(0.02), np.log(20.0), size=2))
            tau = float(np.exp(rng.uniform(np.log(0.02), np.log(3.0))))
            assert tweedie_cdf(3.0, y, mu, tau) == pytest.approx(
                invgauss.cdf(y, mu * tau, scale=1.0 / tau), abs=1e-9)

    @pytest.mark.parametrize("p, y, mu, tau", [
        (2.5, 1.0, 1.2, 1.0), (3.5, 0.5, 0.7, 0.25), (4.5, 2.0, 1.5, 0.5), (2.2, 0.3, 0.4, 1.5),
    ])
    def test_central_difference_matches_series_density(self, p, y, mu, tau):
        assert _log_v_series(p, y, tau) is not None
        h = 1e-4 * y
        slope = (tweedie_cdf(p, y + h, mu, tau) - tweedie_cdf(p, y - h, mu, tau)) / (2.0 * h)
        assert slope == pytest.approx(tweedie_density(p, y, mu, tau), rel=1e-6)

    def test_positive_stable_point_in_time(self):
        with _time_limit(1.0):
            assert tweedie_cdf(3.5, 1.0, 0.7, 0.25) == pytest.approx(0.8754946031674, abs=1e-12)
        start = time.perf_counter()
        tweedie_cdf(2.5, 1.0, 1.2, 1.0)
        assert time.perf_counter() - start < 0.05

    def test_descending_rows_rejected(self):
        with pytest.raises(DomainError):
            tweedie_cdf(1.5, np.array([1.0, 0.5]), 1.0, 1.0)

    def test_poisson_lattice_sum(self):
        from scipy.stats import poisson

        for k in range(8):
            assert tweedie_cdf(1.0, float(k), 2.5, 1.0) == pytest.approx(
                poisson.cdf(k, 2.5), rel=1e-12
            )

    @pytest.mark.parametrize("p, y, mu, tau", [
        (1.5, 0.7, 1.0, 1.0), (1.2, 2.5, 0.7, 0.4), (1.8, 0.3, 2.0, 1.5), (1.05, 1.3, 1.1, 0.6),
    ])
    def test_compound_poisson_matches_quadrature_of_the_density(self, p, y, mu, tau):
        integral, _ = quad(lambda x: tweedie_density(p, x, mu, tau), 0.0, y, epsabs=1e-12,
                           epsrel=1e-12, limit=400)
        assert tweedie_cdf(p, y, mu, tau) == pytest.approx(
            tweedie_zero_mass(p, mu, tau) + integral, abs=1e-8)

    @pytest.mark.parametrize("p", [0.0, 1.0, 1.0 + 5e-7, 1.5, 2.0, 2.0 - 5e-7, 2.5, 3.0])
    @pytest.mark.parametrize("mu, tau", [
        (math.nan, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -1.0), (1.0, math.nan), (1.0, math.inf),
    ])
    def test_bad_mean_or_dispersion_refused_on_every_branch(self, p, mu, tau):
        if p == 0.0 and mu == -1.0:
            mu = math.inf  # every real mean is valid at p = 0
        with pytest.raises(DomainError):
            tweedie_cdf(p, np.array([0.5, 1.0]), mu, tau)

    def test_just_below_gamma_window_in_time(self):
        # the gamma cdf of the window, to within |p - 2|
        start = time.perf_counter()
        value = tweedie_cdf(2.0 - 1e-5, 0.5, 1.0, 1.0)
        assert time.perf_counter() - start < 0.1
        assert abs(value - tweedie_cdf(2.0, 0.5, 1.0, 1.0)) <= 1e-5

    @pytest.mark.parametrize("delta", [1.01e-6, 1e-5])
    def test_just_above_poisson_window_is_the_poisson_cdf(self, delta):
        # y = 1.25 lies between the lattice points 1 and 1.5 of tau N0, tau = 0.5
        assert tweedie_cdf(1.0 + delta, 1.25, 1.0, 0.5) == pytest.approx(
            tweedie_cdf(1.0, 1.25, 1.0, 0.5), abs=delta)
        assert tweedie_cdf(1.0, 1.25, 1.0, 0.5) == pytest.approx(0.6766764161830634, rel=1e-12)

    @pytest.mark.parametrize("y", [1e-6, 1e-100])
    def test_left_tail_under_the_chernoff_bound_is_zero(self, y):
        # F(y) <= exp(-d(y; mu)/(2 tau)) < e^-600 here; the inversion read 0.0108
        assert tweedie_cdf(2.5, y, 1.0, 1.0) == 0.0

    def test_inversion_at_a_vanishing_frequency_is_refused(self):
        # QUADPACK's QAWF crashes the interpreter at y/sd = 1e-150, so run it in a child process
        src = os.path.dirname(os.path.dirname(edm.__file__))
        code = ("from dispmodels.errors import NumericalError\n"
                "from dispmodels.tweedie import tweedie_cdf\n"
                "try:\n    tweedie_cdf(2.5, 1.0, 1.0, 1e300)\n"
                "except NumericalError:\n    print('refused')\n")
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert child.returncode == 0 and child.stdout == "refused\n"

    def test_nan_power_refused(self):
        with pytest.raises(DomainError):
            tweedie_density(math.nan, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            tweedie_cdf(math.nan, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            tweedie_family(math.nan)


class TestCompoundRepresentation:
    def test_parameters(self):
        rate, shape, scale = compound_poisson_gamma_params(1.5, 1.0, 1.0)
        assert rate == pytest.approx(2.0)
        assert shape == pytest.approx(1.0)
        assert scale == pytest.approx(0.5)

    def test_moments(self):
        # compound mean = rate * shape * scale = mu; variance = tau mu^p
        p, mu, tau = 1.4, 2.0, 0.7
        rate, shape, scale = compound_poisson_gamma_params(p, mu, tau)
        assert rate * shape * scale == pytest.approx(mu, rel=1e-12)
        assert rate * shape * (shape + 1) * scale**2 == pytest.approx(tau * mu**p, rel=1e-12)


class TestFamilyView:
    def test_support_by_power(self):
        assert not tweedie_family(0.0).support.lattice
        assert tweedie_family(1.0).support.lattice
        assert tweedie_family(1.5).support.contains(0.0)
        assert not tweedie_family(2.5).support.contains(0.0)
        assert tweedie_family(-1.0).support.contains(-3.0)

    def test_edm_view_density_matches_direct(self):
        fam = tweedie_family(1.5).to_edm()
        theta = edm.inverse_mean(fam, 1.0)
        assert edm.density(fam, 0.5, theta, 1.0) == pytest.approx(
            tweedie_density(1.5, 0.5, 1.0, 1.0), rel=1e-12
        )

    def test_edm_view_inside_gamma_window_is_gamma(self):
        fam, gamma = tweedie_family(2.0 + 9e-7).to_edm(), tweedie_family(2.0).to_edm()
        for mu in (0.4, 1.7, 3.0):
            theta = edm.inverse_mean(fam, mu)
            assert theta == pytest.approx(-1.0 / mu, rel=1e-15)  # b'(theta) = -1/theta = mu
            assert edm.mean_value(fam, theta) == pytest.approx(mu, rel=1e-15)
            for y, tau in ((3.0, 0.3), (0.5, 1.2)):
                assert edm.density(fam, y, theta, tau) == pytest.approx(
                    edm.density(gamma, y, edm.inverse_mean(gamma, mu), tau), rel=1e-12)

    def test_window_below_two_has_gamma_support(self):
        assert not tweedie_family(2.0 - 5e-7).support.contains(0.0)
        with pytest.raises(DomainError):
            tweedie_density(2.0 - 5e-7, 0.0, 1.0, 1.0)

    def test_edm_view_variance(self):
        fam = tweedie_family(3.0).to_edm()
        assert edm.variance_function(fam, 2.0) == pytest.approx(8.0, rel=1e-10)
