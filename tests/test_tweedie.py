"""Tweedie power-variance families: generator, deviance, series densities."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from dispmodels import edm
from dispmodels.errors import DomainError
from dispmodels.tweedie import (
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
    ])
    def test_ascending_rows_match_pointwise_values(self, p, ys):
        rows = tweedie_cdf(p, np.array(ys), 1.2, 1.0)
        assert isinstance(rows, np.ndarray) and rows.shape == (len(ys),)
        for y, value in zip(ys, rows):
            assert value == pytest.approx(tweedie_cdf(p, y, 1.2, 1.0), abs=2e-7)
        assert np.all(np.diff(rows) >= 0.0)

    def test_descending_rows_rejected(self):
        with pytest.raises(DomainError):
            tweedie_cdf(1.5, np.array([1.0, 0.5]), 1.0, 1.0)

    def test_poisson_lattice_sum(self):
        from scipy.stats import poisson

        for k in range(8):
            assert tweedie_cdf(1.0, float(k), 2.5, 1.0) == pytest.approx(
                poisson.cdf(k, 2.5), rel=1e-12
            )


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

    def test_edm_view_variance(self):
        fam = tweedie_family(3.0).to_edm()
        assert edm.variance_function(fam, 2.0) == pytest.approx(8.0, rel=1e-10)
