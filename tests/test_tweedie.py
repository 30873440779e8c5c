"""Tweedie power-variance families: generator, deviance, series and cf-inversion densities, cdfs."""

import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from dispmodels import _elementary as el
from dispmodels import _numdiff, edm, tweedie
from dispmodels.errors import DomainError, NumericalError
from dispmodels.tweedie import (
    _fourier_inversion,
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
from quadosc_oracle import quadosc_inversion


def _generator(p, theta):
    return tweedie._view(p).b(theta)


def _inverse_mean(p, mu):
    return tweedie._view(p).mean_inverse(mu)


def _summed_log_v_series(p, y, tau):
    """The p > 2 series as it was before its sum was estimated: every term summed, then the gate."""
    alpha = (2.0 - p) / (1.0 - p)
    log_rho = ((alpha - 1.0) * math.log(tau) + alpha * math.log(p - 1.0) - alpha * math.log(y)
               - math.log(p - 2.0))

    def log_envelope(k):
        return el.special.gammaln(1.0 + alpha * k) - el.special.gammaln(1.0 + k) + k * log_rho

    log_peak = (alpha * math.log(alpha) + log_rho) / (1.0 - alpha)
    if log_peak > math.log(10**5) or log_envelope(10**5) > log_envelope(
            max(1.0, round(math.exp(log_peak)))) - 40.0:
        return None
    entries = []
    log_max = prev_env = -math.inf
    for k in range(1, 10**5 + 1):
        log_env = log_envelope(k)
        s = math.sin(-k * math.pi * alpha) * (-1.0) ** k
        if s != 0.0:
            log_abs = log_env + math.log(abs(s))
            entries.append((k, log_abs, math.copysign(1.0, s)))
            log_max = max(log_max, log_abs)
        if log_env < log_max - 40.0 and log_env < prev_env and len(entries) > 4:
            break
        prev_env = log_env
    else:
        return None
    total = math.fsum(sign * math.exp(log_abs - log_max) for _, log_abs, sign in entries)
    gross = math.fsum(math.exp(log_abs - log_max) for _, log_abs, _ in entries)
    return log_max + math.log(total) if total > 1e-8 * gross else None


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

    def test_overflow_is_a_numerical_error(self):
        # b, b' and q past the largest float: refused as the library's error, not a bare OverflowError
        for fn, args in ((tweedie_cumulant_generator, (1.0, 1000.0)), (tweedie_mean, (1.0, 1000.0)),
                         (tweedie_inverse_mean, (3.7, 1e-300))):
            with pytest.raises(NumericalError):
                fn(*args)

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

    @pytest.mark.parametrize("p,y,mu,exact", [
        (1.0, 1e300, 1e-10, 1.425602757656308398974231e303),  # y/mu overflows
        (3.7, 1e-100, 1e100, 4.357298474945711101782048e169),  # (y/mu)^(2-p) overflows
        (-1.0, 1e90, 1e-20, 3.33333333333333299817446e269),
    ])
    def test_finite_where_ratios_overflow(self, p, y, mu, exact):
        # 25-digit values of 2{y^(2-p)/((1-p)(2-p)) - y mu^(1-p)/(1-p) + mu^(2-p)/(2-p)}
        # (p = 1: 2{y log(y/mu) - y + mu}), in the float and the array path
        assert tweedie_deviance(p, y, mu) == pytest.approx(exact, rel=1e-12)
        values = edm.edm_deviance(tweedie_family(p).to_edm(), np.array([y, 2.0]), np.array([mu, 1.0]))
        assert values[0] == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("p,y,mu", [(1.2, 1e300, 1e-105), (2.5, 1e300, 1e-300)])
    def test_infinite_where_the_deviance_overflows(self, p, y, mu):
        # 2 y mu^(1-p)/(p - 1) alone exceeds the largest float
        assert tweedie_deviance(p, y, mu) == math.inf
        values = edm.edm_deviance(tweedie_family(p).to_edm(), np.array([y, 2.0]), np.array([mu, 1.0]))
        assert values[0] == math.inf

    def test_accurate_where_the_scale_underflows(self):
        # mu^(2-p) = 1e-330 is 0 in floats; d = y^3/3 - y mu^2 + 2 mu^3/3 is not
        exact = 3.33333333333333333333333e-151
        assert tweedie_deviance(-1.0, 1e-50, 1e-110) == pytest.approx(exact, rel=1e-14, abs=0.0)
        values = edm.edm_deviance(tweedie_family(-1.0).to_edm(), np.array([1e-50, 2.0]), np.array([1e-110, 1.0]))
        assert values[0] == pytest.approx(exact, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("mu", [1e-150, 1e-120])
    def test_y_linear_term_kept_where_the_scale_underflows(self, mu):
        # 2 mu^3 is 0 in floats at p = -1, and with it went d = 2 mu^3/3 - y mu^2 for y < 0
        p, y = -1.0, -1e100
        with mpmath.workdps(50):
            P, Y, M = mpmath.mpf(p), mpmath.mpf(y), mpmath.mpf(mu)
            exact = 2 * (max(Y, 0) ** (2 - P) / ((1 - P) * (2 - P)) - Y * M ** (1 - P) / (1 - P)
                         + M ** (2 - P) / (2 - P))
        values = edm.edm_deviance(tweedie_family(p).to_edm(), np.array([y, 1.0]), np.array([mu, 2.0]))
        for value in (tweedie_deviance(p, y, mu), values[0]):
            assert abs(value - exact) <= 1e-13 * exact

    @staticmethod
    def _assert_accurate(p, points):
        # against 2{y^(2-p)/((1-p)(2-p)) - y mu^(1-p)/(1-p) + mu^(2-p)/(2-p)} at 50 digits, float and array path
        fam = tweedie_family(p).to_edm()
        with mpmath.workdps(50):
            for y, mu in points:
                P, Y, M = mpmath.mpf(p), mpmath.mpf(y), mpmath.mpf(mu)
                exact = 2 * (Y ** (2 - P) / ((1 - P) * (2 - P)) - Y * M ** (1 - P) / (1 - P)
                             + M ** (2 - P) / (2 - P))
                for value in (tweedie_deviance(p, y, mu),
                              edm.edm_deviance(fam, np.array([y, 1.0]), np.array([mu, 2.0]))[0]):
                    assert abs(value - exact) <= 1e-13 * exact, (y, mu)

    @pytest.mark.parametrize("p", [1.0 + 1.01e-6, 1.0 + 2e-6, 1.0 + 1e-5, 1.0 + 1e-4, 1.01])
    def test_accurate_next_to_the_poisson_window(self, p):
        # the (1-p)(2-p) form used to cancel as 1/(p - 1) here: 9.6e-10 relative off at p = 1 + 2e-6
        self._assert_accurate(p, [(1.06, 1.0), (0.3, 2.0), (5.0, 0.7), (0.0, 1.5), (40.0, 3.0)])

    @pytest.mark.parametrize("p", [1.2, 1.49])
    def test_accurate_far_below_the_mean(self, p):
        # where 1 + x has lost its digits: (1 + x) E_{1-p} would be 1.3e-10 off at p = 1.49, y/mu = 1e-20
        self._assert_accurate(p, [(1e-20, 1.0), (3e-12, 0.7), (1e-300, 2.0)])

    @pytest.mark.parametrize("p,y", [(1.2, 0.0), (1.5, 0.0), (-1.0, -2.5)])
    def test_array_path_keeps_zero_and_negative_observations(self, p, y, monkeypatch):
        # (1 + x)^(2-p) is 0 for y <= 0: no entry may fall back to the float kernel one by one
        calls = []
        kernel = el.power_deviance

        def counted(*args):
            calls.append(type(args[1]))
            return kernel(*args)

        monkeypatch.setattr(el, "power_deviance", counted)
        ys, mus = np.array([y, 0.4, y, 3.0, y]), np.array([1.0, 1.0, 0.3, 2.0, 7.0])
        values = edm.edm_deviance(tweedie_family(p).to_edm(), ys, mus)
        assert calls == [np.ndarray]
        assert values.tolist() == pytest.approx([tweedie_deviance(p, a, b) for a, b in zip(ys, mus)],
                                                rel=1e-14)

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

    @pytest.mark.parametrize("p", [-1.0, 0.0, 1.0, 1.5, 2.0, 2.5, 3.0])
    def test_takes_arrays_entry_by_entry(self, p):
        # an ndarray y, mu or both gives its float calls entry by entry, and exactly 0 where y == mu
        mus = np.array([0.3, 1.0, 1.0, 2.5, 7.0])
        ys = np.array([0.3, 0.0 if 1.0 < p < 2.0 else 0.5, 1.0, 4.0, 2.0])
        for y, mu in ((ys, mus), (ys, 1.0), (1.0, mus)):
            values = tweedie_deviance(p, y, mu)
            expected = [tweedie_deviance(p, float(a), float(b)) for a, b in np.broadcast(y, mu)]
            assert isinstance(values, np.ndarray) and values.tolist() == pytest.approx(expected, rel=1e-14)
            assert (values[np.broadcast_to(np.equal(y, mu), values.shape)] == 0.0).all()


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

    def test_nan_log_density_raises(self):
        # 1/tau overflows at tau = 5e-324, and c + (y theta - b)/tau is inf - inf
        with pytest.raises(NumericalError):
            tweedie_density(2.0, 1.0, 1.0, 5e-324)

    def test_overflowing_jump_scale_raises(self):
        # tau (p - 1) y^(p - 1) overflows, and log(y/scale) was a bare math domain error
        with pytest.raises(NumericalError, match="jump scale"):
            tweedie_density(1.5, 1e20, 1e-20, 1e300)

    def test_vanishing_sd_raises(self):
        # tau y^p underflows to 0, and y/sd was a bare ZeroDivisionError
        with pytest.raises(NumericalError, match="y/sd = inf"):
            tweedie_density(3.5, 1e-8, 1e8, 5e-324)

    @pytest.mark.parametrize("p,y,mu,tau", [(2.5, 5e-324, 5e-324, 5e-324), (2.5, 1e300, 1e-8, 1e-300)])
    def test_overflowing_power_raises(self, p, y, mu, tau):
        # mu^(1 - p) overflows in q(mu); y^p overflows in the sd of the member of mean y
        with pytest.raises(NumericalError, match=re.escape(f"p={p}, y={y}, mu={mu}, tau={tau}")):
            tweedie_density(p, y, mu, tau)

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

    @pytest.mark.parametrize("tau", [0.5, 2.0])
    def test_poisson_with_dispersion(self, tau):
        # p = 1 at tau != 1 is tau times a Poisson(mu/tau) count on tau N0, by tweedie_density and by edm.density
        # of the view; a y off the lattice is refused by both
        from scipy.stats import poisson

        view, mu = tweedie_family(1.0).to_edm(), 1.7
        for k in range(12):
            expected = poisson.pmf(k, mu / tau)
            assert edm.density(view, k * tau, math.log(mu), tau) == pytest.approx(expected, rel=1e-12)
            assert tweedie_density(1.0, k * tau, mu, tau) == pytest.approx(expected, rel=1e-12)
        for density in (lambda y: edm.density(view, y, math.log(mu), tau), lambda y: tweedie_density(1.0, y, mu, tau)):
            with pytest.raises(DomainError, match="not a lattice point"):
                density(1.5 * tau)

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
        # t^(-1/tau), and the extrapolants do not settle within the panel budget
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

    @pytest.mark.parametrize("p, y, tau", [
        (2.0001, 0.7, 0.25), (2.00003, 0.5, 1.0), (2.0001, 0.5, 1.0), (2.5, 0.12, 0.25), (3.5, 0.12, 0.25),
    ])
    def test_cancelling_series_is_refused_before_summing(self, p, y, tau, monkeypatch):
        # the summed series sends each to the inversion after 10^2-10^4 terms of two gammaln calls
        # each; the estimate of the sum refuses it from the budget check and the five terms next to
        # the peak: 14 calls
        assert _summed_log_v_series(p, y, tau) is None
        gammaln, calls = el.special.gammaln, []
        monkeypatch.setattr(el.special, "gammaln", lambda x: calls.append(x) or gammaln(x))
        assert _log_v_series(p, y, tau) is None
        assert len(calls) == 14

    @pytest.mark.parametrize("p", [2.001, 2.1, 2.5, 3.5, 5.0, 12.0])
    def test_series_routes_match_the_summed_series(self, p):
        # every point takes the route, and gives the value, of the series summed before its gate
        for y in np.geomspace(1e-3, 1e3, 13).tolist():
            for tau in (0.05, 1.0, 5.0, 100.0):
                assert _log_v_series(p, y, tau) == _summed_log_v_series(p, y, tau), (y, tau)

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
        for y, mu, tau in [(1e-6, 1.0, 1e8), (1e-8, 1.0, 1e9)]:  # y/sd 1e-10 and 3e-13
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

    @pytest.mark.parametrize("y, mu, tau, expected", [
        (0.9995e-9, 1e-9, 1e-9, math.exp(-1.0)), (0.0, 1e-12, 1e-13, math.exp(-10.0)), (-0.5, 1.0, 1.0, 0.0),
    ])
    def test_poisson_counts_the_lattice_points_at_or_below_y(self, y, mu, tau, expected):
        # y/tau = 0.9995 lies below the point 1 of tau N0 and 0 is the point 0 at any tau (a nudge of y by
        # 1e-12 counted one and ten points more); below the support F is 0
        assert tweedie_cdf(1.0, y, mu, tau) == pytest.approx(expected, rel=1e-12, abs=0.0)

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

    @staticmethod
    def _refused_in_child(call: str) -> bool:
        # a crash in native code on these extreme inputs would end the whole session, so run the call in a
        # child process
        src = os.path.dirname(os.path.dirname(edm.__file__))
        code = ("from dispmodels.errors import NumericalError\n"
                "from dispmodels.tweedie import tweedie_cdf\n"
                f"try:\n    {call}\n"
                "except NumericalError:\n    print('refused')\n")
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env={**os.environ, "PYTHONPATH": src}, timeout=60)
        return child.returncode == 0 and child.stdout == "refused\n"

    def test_inversion_at_a_vanishing_frequency_is_refused(self):
        # y/sd = 1e-150
        assert self._refused_in_child("tweedie_cdf(2.5, 1.0, 1.0, 1e300)")

    def test_cdf_at_an_infinite_frequency_is_one(self):
        # y/sd = 1e300/1e-160 overflows to inf, where d(y; mu) > 80 tau puts F within e^-40 of 1; a row at
        # y = inf leaves the inverted rows beside it as they are
        assert tweedie_cdf(2.5, 1e300, 1e-8, 1e-300) == 1.0
        assert tweedie_cdf(2.5, np.array([1.0, np.inf]), 1.0, 1.0).tolist() == [tweedie_cdf(2.5, 1.0, 1.0, 1.0), 1.0]

    @pytest.mark.parametrize("y, mu, tau", [
        (1e300, 1e-8, 1e8),  # y/sd = 1e308
        (3.1766208830039273e+95, 0.5, 2.3832323996681687e+283),  # tau y overflows
        (1e-6, 1.0, 1e8), (1.7e308, 1e150, 10.0),
    ])
    def test_inverse_gaussian_cdf_at_extreme_points_matches_mpmath(self, y, mu, tau):
        # the closed form Phi(a) + e^(2/(tau mu)) Phi(b), a, b = (+-y/mu - 1)/sqrt(tau y), at 50 digits
        with mpmath.workdps(50):
            y_, mu_, tau_ = map(mpmath.mpf, (y, mu, tau))
            root = mpmath.sqrt(tau_ * y_)
            exact = mpmath.ncdf((y_ / mu_ - 1) / root) + mpmath.exp(2 / (tau_ * mu_)) * mpmath.ncdf(
                -(y_ / mu_ + 1) / root)
        assert tweedie_cdf(3.0, y, mu, tau) == pytest.approx(float(exact), rel=1e-13, abs=1e-300)

    def test_nan_cdf_raises(self):
        # 1/tau overflows, and gammainc(inf, inf) is nan
        with pytest.raises(NumericalError, match=r"y=1e-08, mu=1e\+20, tau=5e-324"):
            tweedie_cdf(2.0, 1e-8, 1e20, 5e-324)

    def test_overflowing_canonical_parameter_raises(self):
        # mu^(1 - p) overflows in q(mu) before the inversion
        with pytest.raises(NumericalError, match=r"p=3.5, y=5e-324, mu=5e-324, tau=5e-324"):
            tweedie_cdf(3.5, 5e-324, 5e-324, 5e-324)

    def test_vanishing_rate_denominator_raises(self):
        # tau (2 - p) underflows to 0, and the Poisson rate was a bare ZeroDivisionError
        with pytest.raises(NumericalError, match="compound Poisson rate"):
            tweedie_cdf(1.5, 1e-300, 0.3, 5e-324)
        with pytest.raises(NumericalError, match="compound Poisson rate"):
            tweedie_zero_mass(1.5, 0.3, 5e-324)

    def test_nan_power_refused(self):
        with pytest.raises(DomainError):
            tweedie_density(math.nan, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            tweedie_cdf(math.nan, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            tweedie_family(math.nan)


# the densities one benchmark pass inverts, two that take the most tail panels, and the cdf table rows
_ORACLE_DENSITIES = [(2.5, 0.12, 0.12, 0.25), (2.5, 0.25, 0.25, 0.25), (3.5, 0.12, 0.12, 0.25),
                     (3.5, 4.0, 4.0, 2.0), (3.5, 2.0, 2.0, 1.0)]
_ORACLE_CDF_ROWS = np.arange(0.5, 3.25, 0.5)  # p = 2.5, mu = tau = 1


@pytest.fixture(scope="module")
def quadosc_values():
    # about 2 s a point, so the points share two worker processes, which import only the oracle's module
    points = [(*point, False) for point in _ORACLE_DENSITIES]
    points += [(2.5, y, 1.0, 1.0, True) for y in _ORACLE_CDF_ROWS]
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        return dict(zip(points, pool.map(quadosc_inversion, *zip(*points))))


class TestInversionRule:
    def test_gauss_legendre_literals_are_numpys_rule(self):
        nodes, weights = np.polynomial.legendre.leggauss(16)
        half = _numdiff._LEGENDRE_16
        assert np.concatenate((-half[::-1, 0], half[:, 0])).tolist() == nodes.tolist()
        assert np.concatenate((half[::-1, 1], half[:, 1])).tolist() == weights.tolist()
        assert _numdiff._GL_NODES.tolist() == (0.5 * (nodes + 1.0)).tolist()
        assert _numdiff._GL_WEIGHTS.tolist() == (0.5 * weights).tolist()

    @pytest.mark.parametrize("p, y, mu, tau", _ORACLE_DENSITIES)
    def test_density_integral_matches_quadosc(self, quadosc_values, p, y, mu, tau):
        assert _fourier_inversion(p, y, mu, tau, False, 1e-8) == pytest.approx(
            quadosc_values[p, y, mu, tau, False], rel=1e-10)

    def test_cdf_rows_match_quadosc(self, quadosc_values):
        expected = [0.5 + quadosc_values[2.5, y, 1.0, 1.0, True] / math.pi for y in _ORACLE_CDF_ROWS]
        assert tweedie_cdf(2.5, _ORACLE_CDF_ROWS, 1.0, 1.0) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("n", [6, 60])
    def test_rows_share_their_cf_calls(self, monkeypatch, n):
        # a table of n rows calls the cf no more often than its slowest row alone
        calls = []
        log_cf = tweedie._log_cf
        monkeypatch.setattr(tweedie, "_log_cf", lambda *args: calls.append(1) or log_cf(*args))
        ys = np.linspace(0.5, 3.0, n)
        singles = []
        for y in ys:
            calls.clear()
            tweedie_cdf(2.5, y, 1.0, 1.0)
            singles.append(len(calls))
        calls.clear()
        tweedie_cdf(2.5, ys, 1.0, 1.0)
        assert 0 < len(calls) <= max(singles)

    def test_cdf_at_a_huge_dispersion(self):
        # tau mu^(p - 2) = 3.2e11: the cf's branch point sits at s ~ 4e-7 and the half-period is 5.5e8.  The value
        # is mpmath's at 30 and at 40 digits: quad on breakpoints 2^k/|v/s| up to the first zero, then quadosc
        # (quadosc alone from 0 misses it by 6e-6)
        assert tweedie_cdf(5.0, 2.4652994513118336, 759.6494828030459, 732.0693140434751) == pytest.approx(
            0.97335985671755037681, abs=1e-10)

    def test_spent_panel_budget_raises(self, monkeypatch):
        # (3.5, 4, 4, 2) extrapolates over several batches of panels; with room for one it is refused
        monkeypatch.setattr(tweedie, "_MAX_PANELS", 80)
        with pytest.raises(NumericalError, match="spends its 80 panels"):
            _fourier_inversion(3.5, 4.0, 4.0, 2.0, False, 1e-8)


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


@pytest.mark.parametrize("p,special", [(1.0 + 5e-7, 1.0), (2.0 - 5e-7, 2.0), (2.0 + 5e-7, 2.0)])
def test_switch_window_is_the_special_power(p, special):
    # inside P_SWITCH every public function is the Poisson's or the gamma's, to the bit; the family
    # keeps the power it was given
    assert tweedie_family(p).p == p
    theta, mu, y, tau = -0.7, 1.3, 2.0, 0.5
    for fn, args in ((tweedie_cumulant_generator, (theta,)), (tweedie_mean, (theta,)),
                     (tweedie_inverse_mean, (mu,)), (tweedie_deviance, (y, mu)),
                     (tweedie_density, (y, mu, tau)), (tweedie_cdf, (y, mu, tau))):
        assert fn(p, *args) == fn(special, *args), fn.__name__


class TestFamilyView:
    def test_support_by_power(self):
        assert not tweedie_family(0.0).to_edm().support.lattice
        assert tweedie_family(1.0).to_edm().support.lattice
        assert tweedie_family(1.5).to_edm().support.contains(0.0)
        assert not tweedie_family(2.5).to_edm().support.contains(0.0)
        assert tweedie_family(-1.0).to_edm().support.contains(-3.0)

    def test_edm_view_density_matches_direct(self):
        fam = tweedie_family(1.5).to_edm()
        theta = edm.inverse_mean(fam, 1.0)
        assert edm.density(fam, 0.5, theta, 1.0) == pytest.approx(
            tweedie_density(1.5, 0.5, 1.0, 1.0), rel=1e-12
        )

    def test_poisson_view_checks_the_lattice_of_its_dispersion(self):
        # an ndarray y is its float calls (but for numpy's last bits); a count y/tau that overflows is a
        # numerical refusal on both paths
        view, ys = tweedie_family(1.0).to_edm(), np.array([0.0, 0.25, 1.5])
        assert edm.density(view, ys, 0.3, 0.25).tolist() == pytest.approx(
            [edm.density(view, y, 0.3, 0.25) for y in ys.tolist()], rel=1e-14, abs=0.0)
        with pytest.raises(DomainError, match="y=0.1 is not a lattice point at tau=0.25"):
            edm.log_density(view, np.array([0.5, 0.1]), 0.3, 0.25)
        for y in (1e-8, np.array([1e-8])):
            with pytest.raises(NumericalError, match=r"^density\("):
                edm.density(view, y, 0.3, 5e-324)

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
        assert not tweedie_family(2.0 - 5e-7).to_edm().support.contains(0.0)
        with pytest.raises(DomainError):
            tweedie_density(2.0 - 5e-7, 0.0, 1.0, 1.0)

    def test_edm_view_variance(self):
        fam = tweedie_family(3.0).to_edm()
        assert edm.variance_function(fam, 2.0) == pytest.approx(8.0, rel=1e-10)


@pytest.mark.parametrize("p", [0.5, 0.999, math.nan, math.inf, -math.inf])
def test_domain_functions_refuse_an_invalid_power(p):
    for domain in (tweedie_canonical_domain, tweedie.tweedie_support, tweedie.tweedie_mean_domain):
        with pytest.raises(DomainError):
            domain(p)


_GRID = np.geomspace(1e-3, 1e3, 61)
# theta grids inside each canonical domain, and the literal b, b^(1..4), q and d of the four classic families
_CLASSIC_FORMS = {
    "normal": (np.concatenate([-_GRID, _GRID]), lambda th: 0.5 * th * th,
               (lambda th: th, lambda th: 1.0, lambda th: 0.0, lambda th: 0.0),
               lambda mu: mu, lambda y, mu: (y - mu) * (y - mu)),
    "poisson": (np.linspace(-20.0, 20.0, 61), el.exp, (el.exp,) * 4, el.log,
                lambda y, mu: el.power_deviance(1.0, y, mu)),
    "gamma": (-_GRID, lambda th: -el.log(-th),
              (lambda th: -1.0 / th, lambda th: 1.0 / th**2, lambda th: 2.0 * (-th) ** -3.0,
               lambda th: 6.0 * (-th) ** -4.0),
              lambda mu: -1.0 / mu, lambda y, mu: el.power_deviance(2.0, y, mu)),
    "inverse_gaussian": (-_GRID, lambda th: -el.sqrt(-2.0 * th),
                         (lambda th: (-2.0 * th) ** -0.5, lambda th: (-2.0 * th) ** -1.5,
                          lambda th: 3.0 * (-2.0 * th) ** -2.5, lambda th: 15.0 * (-2.0 * th) ** -3.5),
                         lambda mu: -0.5 / mu**2, lambda y, mu: (x := (y - mu) / mu) * (x / y)),
}


@pytest.mark.parametrize("p,name", [(0.0, "normal"), (1.0, "poisson"), (2.0, "gamma"), (3.0, "inverse_gaussian")])
def test_classic_families_and_views_keep_the_literal_forms(p, name):
    # b, b^(1..4), q and d of the classic family and of the Tweedie view at its power equal the literal
    # forms to the bit, on floats and on ndarrays: the general pow form would move last bits
    thetas, b, b_nth, q, d = _CLASSIC_FORMS[name]
    ys, mus = (_GRID[::-1] - 1.0, _GRID) if p == 0.0 else (_GRID[::-1], _GRID)
    for fam in (edm.FAMILIES[name], tweedie_family(p).to_edm()):
        for args in ((thetas,), *((float(th),) for th in thetas)):
            assert np.array_equal(fam.b(*args), b(*args))
            for r, form in enumerate(b_nth, start=1):
                assert np.all(fam.b_nth(r, *args) == form(*args))  # a constant broadcasts
        for args in ((mus,), *((float(mu),) for mu in mus)):
            assert np.array_equal(fam.mean_inverse(*args), q(*args))
        for args in ((ys, mus), *((float(y), float(mu)) for y, mu in zip(ys, mus))):
            assert np.array_equal(fam.deviance_closed_form(*args), d(*args))


@pytest.mark.parametrize("p", [1.5, 2.5, 3.5])
def test_edm_view_refuses_an_array_by_the_array_contract(p):
    # the view's normalizer takes floats only: an ndarray is refused by the one array-contract
    # refusal, and the float calls keep their values
    fam = tweedie_family(p).to_edm()
    for call in (edm.log_density, edm.density):
        with pytest.raises(DomainError, match="array contract"):
            call(fam, np.array([0.5, 1.0, 2.0]), -0.5, 0.5)
    assert math.isfinite(edm.log_density(fam, 1.0, -0.5, 0.5))
