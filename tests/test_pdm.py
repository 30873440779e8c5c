"""Proper dispersion models: normalizers, densities, yokes, pivotality."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad
from scipy.special import i0e
from scipy.stats import ks_2samp

from dispmodels.deviance import DEVIANCES, check_unit_deviance, unit_variance
from dispmodels.errors import DomainError
from dispmodels.pdm import (
    PDMS,
    _ks_two_sample,
    PdmSpec,
    YokeSpec,
    check_yokable,
    get_pdm,
    pdm_density,
    pdm_normalizer,
    pivotal_check,
    sample_pdm,
    transformation_pdm,
    yoke_to_deviance,
)
from dispmodels.saddlepoint import renormalized_saddlepoint
from dispmodels.support import RealInterval
from dispmodels.deviance import VARIANCE_FUNCTIONS


class TestNormalizer:
    @pytest.mark.parametrize("tau", [0.5, 0.02, 0.1, 1.0, 5.0])
    def test_von_mises_quadrature_and_bessel(self, tau):
        spec = get_pdm("vonmises")
        a0 = pdm_normalizer(spec.deviance, spec.carrier, tau, 1.0)
        oracle, _ = quad(lambda y: math.exp(-(1 - math.cos(y)) / tau), 0, 2 * math.pi)
        assert a0 == pytest.approx(1.0 / oracle, rel=1e-10)
        # e^(1/tau) / (2 pi I0(1/tau)), with I0 scaled by e^(-1/tau) so that it does not overflow
        assert a0 == pytest.approx(1.0 / (2 * math.pi * i0e(1.0 / tau)), rel=1e-13)

    def test_normal_gaussian_integral(self):
        spec = get_pdm("normal")
        a0 = pdm_normalizer(spec.deviance, spec.carrier, 1.0, 0.0)
        assert a0 == pytest.approx((2 * math.pi) ** -0.5, rel=1e-10)

    @pytest.mark.parametrize("tau", [1.0, 0.5, 0.02, 0.05, 0.1, 0.3, 0.7, 2.0, 5.0])
    def test_gamma_pdm_view(self, tau):
        # carrier 1/y: a0(tau) = k^k e^(-k) / Gamma(k) with k = 1/tau, any probe mu; above tau = 1
        # the integrand is singular at 0 as y^(1/tau - 1)
        spec = get_pdm("gamma")
        k = 1.0 / tau
        exact = math.exp(k * math.log(k) - k - math.lgamma(k))
        for mu in (2.0, 0.3, 1.0, 3.0):
            assert pdm_normalizer(spec.deviance, spec.carrier, tau, mu) == pytest.approx(exact, rel=3e-10)

    @pytest.mark.parametrize("tau,mu", [(0.1, 0.3), (1.0, 0.5), (3.0, 0.7)])
    def test_simplex_normalizer_against_mpmath(self, tau, mu):
        spec = get_pdm("simplex")
        with mpmath.workdps(30):
            def integrand(y):
                d = (y - mu) ** 2 / (y * (1 - y) * mpmath.mpf(mu) ** 2 * (1 - mpmath.mpf(mu)) ** 2)
                return (y * (1 - y)) ** mpmath.mpf(-1.5) * mpmath.exp(-d / (2 * tau))

            exact = float(1 / mpmath.quad(integrand, [0, mu, 1]))
        assert pdm_normalizer(spec.deviance, spec.carrier, tau, mu) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("name", ["vonmises", "simplex"])
    def test_mu_independence(self, name):
        spec = get_pdm(name)
        probes = spec.deviance.omega.grid(5, 1e-2, span=3.0)
        for tau in (0.1, 1.0):
            values = [
                pdm_normalizer(spec.deviance, spec.carrier, tau, float(m))
                for m in probes
            ]
            spread = (max(values) - min(values)) / min(values)
            assert spread < 1e-6

    @pytest.mark.parametrize("tau", [0.0, math.nan])
    def test_nonpositive_or_nan_tau_rejected(self, tau):
        spec = get_pdm("vonmises")
        with pytest.raises(DomainError):
            pdm_normalizer(spec.deviance, spec.carrier, tau, 1.0)

    def test_divergent_integral_reported(self):
        from dispmodels.errors import NumericalError

        dev = DEVIANCES["normal"]
        with pytest.raises(NumericalError):
            # carrier e^{y^2} outgrows the deviance factor
            pdm_normalizer(dev, lambda y: np.exp(y * y), 1.0, 0.0)


class TestDensity:
    def test_mode_value_equals_normalizer_times_carrier(self):
        spec = get_pdm("vonmises")
        a0 = pdm_normalizer(spec.deviance, spec.carrier, 1.0, 1.0)
        assert pdm_density(spec, 0.0, 0.0, 1.0) == pytest.approx(a0, rel=1e-10)

    def test_simplex_integrates_to_one(self):
        spec = get_pdm("simplex")
        total, _ = quad(lambda y: pdm_density(spec, y, 0.5, 1.0), 1e-9, 1 - 1e-9, limit=300)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_constant_carrier_density_peaks_at_mu(self):
        spec = get_pdm("vonmises")
        grid = np.linspace(0.01, 2 * math.pi - 0.01, 400)
        mu = 2.2
        values = [pdm_density(spec, float(y), mu, 0.7) for y in grid]
        assert abs(grid[int(np.argmax(values))] - mu) < (grid[1] - grid[0]) * 1.5

    def test_normalizer_cache_reuse(self, monkeypatch):
        from dispmodels import pdm

        calls = []
        real = pdm.pdm_normalizer
        monkeypatch.setattr(pdm, "pdm_normalizer", lambda *args: calls.append(args[2]) or real(*args))
        spec = replace(get_pdm("vonmises"))  # a fresh memo
        first = spec.normalizer(0.7)
        assert spec.normalizer(0.7) == first
        assert calls == [0.7]

    def test_normalizer_memo_is_bounded(self, monkeypatch):
        from dispmodels import pdm

        calls = []
        monkeypatch.setattr(pdm, "pdm_normalizer", lambda d, b, tau, mu: calls.append(tau) or tau)
        spec = replace(get_pdm("simplex"))
        taus = [0.1 * k for k in range(1, 31)]
        assert [spec.normalizer(tau) for tau in taus * 2] == taus * 2
        assert calls == taus  # 30 tau are held at once
        for k in range(1000):
            spec.normalizer(1.0 + k)
        assert spec.normalizer.cache_info().currsize < 1000

    @pytest.mark.parametrize("name", ["vonmises", "simplex", "normal", "gamma"])
    def test_one_spec_per_name(self, name):
        assert get_pdm(name) is get_pdm(name) is PDMS[name]

    def test_cache_survives_between_lookups(self, monkeypatch):
        from dispmodels import pdm

        calls = []
        real = pdm.pdm_normalizer

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(pdm, "pdm_normalizer", counting)
        first = pdm_density(get_pdm("simplex"), 0.4, 0.3, 0.6180339)
        second = pdm_density(get_pdm("simplex"), 0.7, 0.3, 0.6180339)
        assert calls == [0.6180339]
        assert first > 0.0 and second > 0.0


class TestRegularPdmCarrier:
    @pytest.mark.parametrize("name", ["vonmises", "simplex", "normal", "gamma"])
    def test_carrier_is_inverse_root_variance(self, name):
        # regular PDM convention: b(y) sqrt(V(y)) constant on the support
        spec = get_pdm(name)
        grid = spec.deviance.omega.grid(15, 1e-3, span=4.0)
        products = [
            float(spec.carrier(float(y))) * math.sqrt(unit_variance(spec.deviance, float(y)))
            for y in grid
        ]
        assert max(products) - min(products) < 1e-8 * max(products)


class TestRenormalizedSaddlepointDiagnostic:
    def test_von_mises_asymptotic_exactness(self):
        # max_y |q0/p - 1| shrinks as tau -> 0
        spec = get_pdm("vonmises")
        V = VARIANCE_FUNCTIONS["vonmises"]
        mu = 1.0
        grid = np.linspace(0.05, 2 * math.pi - 0.05, 40)
        gaps = []
        for tau in (0.5, 0.05, 0.005):
            worst = 0.0
            for y in grid:
                q0 = renormalized_saddlepoint(spec.deviance, V, float(y), mu, tau).value
                p = pdm_density(spec, float(y), mu, tau)
                worst = max(worst, abs(q0 / p - 1.0))
            gaps.append(worst)
        # constant carrier: the renormalized saddlepoint is exact for all tau
        assert gaps[0] <= 1e-9 or gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 1e-6

    def test_simplex_asymptotic_exactness(self):
        # grid kept where exp(-d/(2 tau)) stays representable at the smallest tau
        spec = get_pdm("simplex")
        V = VARIANCE_FUNCTIONS["simplex"]
        mu = 0.5
        grid = np.linspace(0.25, 0.75, 30)
        gaps = []
        for tau in (0.5, 0.05, 0.005):
            worst = 0.0
            for y in grid:
                q0 = renormalized_saddlepoint(spec.deviance, V, float(y), mu, tau).value
                p = pdm_density(spec, float(y), mu, tau)
                worst = max(worst, abs(q0 / p - 1.0))
            gaps.append(worst)
        assert gaps[0] <= 1e-9 or gaps[0] >= gaps[1] >= gaps[2] - 1e-12
        assert gaps[-1] < 1e-4


class TestYokes:
    def test_quadratic_yoke_passes(self):
        yoke = YokeSpec(fn=lambda y, th: -((y - th) ** 2), domain=RealInterval(), name="quad")
        report = check_yokable(yoke, np.linspace(-2, 2, 7))
        assert report.yokable
        np.testing.assert_allclose(report.theta_hat, np.linspace(-2, 2, 7), atol=1e-6)

    def test_cosine_yoke_passes(self):
        yoke = YokeSpec(
            fn=lambda y, th: np.cos(y - th), domain=RealInterval(0, 2 * math.pi), name="cos"
        )
        report = check_yokable(yoke, np.linspace(0.5, 5.5, 6))
        assert report.yokable
        np.testing.assert_allclose(report.theta_hat, np.linspace(0.5, 5.5, 6), atol=1e-6)

    def test_cusped_yoke_peaks_on_the_diagonal(self):
        grid = np.linspace(-2, 2, 7)
        report = check_yokable(YokeSpec(fn=lambda y, th: -abs(y - th), domain=RealInterval(), name="cusp"), grid)
        assert report.yokable
        np.testing.assert_allclose(report.theta_hat, grid, atol=1e-8)

    def test_double_maximizer_fails_uniqueness(self):
        yoke = YokeSpec(
            fn=lambda y, th: -np.minimum(abs(y - th), abs(y - th - 1.0)),
            domain=RealInterval(),
            name="double",
        )
        report = check_yokable(yoke, [0.3, 0.7, 1.1])
        assert not report.unique_maximizer
        assert not report.yokable
        assert report.witnesses

    def test_yoke_to_deviance_quadratic(self):
        dev = yoke_to_deviance(
            YokeSpec(fn=lambda y, th: -((y - th) ** 2) / 2.0, domain=RealInterval(), name="halfquad")
        )
        for y, mu in [(2.0, 1.0), (0.0, -1.5), (1.3, 1.3)]:
            assert dev(y, mu) == pytest.approx((y - mu) ** 2, abs=1e-6)

    def test_yoke_to_deviance_cosine_recovers_von_mises(self):
        dev = yoke_to_deviance(
            YokeSpec(fn=lambda y, th: np.cos(y - th), domain=RealInterval(0, 2 * math.pi), name="cos")
        )
        for y, mu in [(2.0, 1.0), (4.0, 2.5)]:
            assert dev(y, mu) == pytest.approx(2.0 * (1.0 - math.cos(y - mu)), abs=1e-6)

    def test_diagonal_zero(self):
        dev = yoke_to_deviance(
            YokeSpec(fn=lambda y, th: -((y - th) ** 2), domain=RealInterval(), name="quad")
        )
        for mu in (-1.0, 0.0, 2.5):
            assert dev(mu, mu) == 0.0

    def test_result_satisfies_axioms(self):
        dev = yoke_to_deviance(
            YokeSpec(fn=lambda y, th: -abs(y - th) ** 3, domain=RealInterval(), name="cubic")
        )
        assert check_unit_deviance(dev, np.random.default_rng(3), n=100) == []

    def test_unyokable_rejected(self):
        with pytest.raises(DomainError):
            yoke_to_deviance(
                YokeSpec(
                    fn=lambda y, th: -np.minimum(abs(y - th), abs(y - th - 1.0)),
                    domain=RealInterval(),
                    name="double",
                )
            )


class TestPivotal:
    def test_von_mises(self):
        report = pivotal_check(get_pdm("vonmises"), (0.0, 1.0, 3.0), 0.5, m=10**4, seed=0x5EED)
        assert report.passed(0.001)

    def test_normal_chi_square_identity(self):
        # d(Y, mu) = (Y - mu)^2 ~ tau chi2_1 for every mu
        report = pivotal_check(get_pdm("normal"), (-2.0, 5.0), 1.0, m=10**4, seed=0x5EED)
        assert report.passed(0.001)

    def test_no_draws_rejected(self):
        with pytest.raises(DomainError):
            pivotal_check(get_pdm("vonmises"), (0.0, 1.0), 0.5, m=0)

    def test_single_mu_trivially_passes(self):
        report = pivotal_check(get_pdm("vonmises"), (1.0,), 0.5, m=100, seed=1)
        assert report.p_values == ()
        assert report.passed()

    @pytest.mark.parametrize("n", [1, 7, 100, 1000, 2000, 10**4])
    def test_kolmogorov_smirnov_matches_scipy(self, n):
        # scipy's exact p-value for equal sizes, n <= 10^4; rounded draws give ties
        rng = np.random.default_rng(n)
        for shift, decimals in [(0.0, None), (0.05, None), (0.3, None), (0.0, 1), (0.1, 2)]:
            x, y = rng.standard_normal(n), rng.standard_normal(n) + shift
            if decimals is not None:
                x, y = np.round(x, decimals), np.round(y, decimals)
            statistic, pvalue = _ks_two_sample(x, y)
            expected = ks_2samp(x, y)
            assert statistic == expected.statistic
            assert pvalue == pytest.approx(expected.pvalue, rel=0.0, abs=1e-12)

    def test_kolmogorov_smirnov_stays_exact_above_ten_thousand_draws(self):
        # ks_2samp switches to the asymptotic p-value there unless asked for the exact one
        rng = np.random.default_rng(20)
        for shift in (0.0, 0.02, 0.05):
            x, y = rng.standard_normal(2 * 10**4), rng.standard_normal(2 * 10**4) + shift
            statistic, pvalue = _ks_two_sample(x, y)
            expected = ks_2samp(x, y, method="exact")
            assert statistic == expected.statistic
            assert pvalue == pytest.approx(expected.pvalue, rel=1e-12, abs=1e-300)

    def test_sampler_matches_density(self):
        # inverse-CDF sampler moments against quadrature moments
        spec = get_pdm("simplex")
        rng = np.random.default_rng(9)
        draws = sample_pdm(spec, 0.5, 0.5, 20000, rng)
        mean_q, _ = quad(lambda y: y * pdm_density(spec, y, 0.5, 0.5), 1e-9, 1 - 1e-9)
        assert float(np.mean(draws)) == pytest.approx(mean_q, abs=4 * float(np.std(draws)) / math.sqrt(20000))

    def test_sampler_cdf_is_scipys_cumulative_trapezoid(self):
        # the inverse-CDF route rebuilt on scipy's cumulative_trapezoid gives the same draws, bit for bit
        spec, mu, tau = get_pdm("simplex"), 0.3, 0.5
        support = spec.support
        xs = np.linspace(support.clip_inward(support.lower, 1e-9), support.clip_inward(support.upper, 1e-9), 2**14)
        cdf = cumulative_trapezoid(pdm_density(spec, xs, mu, tau), xs, initial=0.0)
        cdf /= cdf[-1]
        keep = np.concatenate(([True], np.diff(cdf) > 1e-15))
        u = np.random.default_rng(7).uniform(cdf[keep][0], cdf[keep][-1], size=2000)
        expected = np.interp(u, cdf[keep], xs[keep])
        assert np.array_equal(sample_pdm(spec, mu, tau, 2000, np.random.default_rng(7)), expected)


class TestTransformationModels:
    def test_translation_group_normal_location(self):
        spec = transformation_pdm(
            lambda g, y: g + y,
            lambda y: -y * y / 2.0,
            lambda y: 1.0,
            RealInterval(),
            name="normal-location",
        )
        for y, mu in [(2.0, 1.0), (-0.5, 0.25)]:
            assert spec.deviance(y, mu) == pytest.approx((y - mu) ** 2, abs=1e-6)

    def test_rotation_group_von_mises(self):
        spec = transformation_pdm(
            lambda g, y: (g + y) % (2 * math.pi),
            np.cos,
            lambda y: 1.0,
            RealInterval(0, 2 * math.pi),
            name="vm-rotation",
            circular=True,
        )
        for y, mu in [(2.0, 1.0), (5.0, 3.0)]:
            assert spec.deviance(y, mu) == pytest.approx(2.0 * (1.0 - math.cos(y - mu)), abs=1e-6)

    def test_non_invariant_carrier_rejected(self):
        with pytest.raises(DomainError):
            transformation_pdm(
                lambda g, y: g + y,
                lambda y: -y * y / 2.0,
                lambda y: y,
                RealInterval(),
                name="bad",
            )


def test_registry():
    assert set(PDMS) == {"vonmises", "simplex", "normal", "gamma"}
    with pytest.raises(DomainError):
        get_pdm("nosuch")


class TestArrayPdm:
    @pytest.mark.parametrize("name", sorted(PDMS))
    def test_density_parity(self, name):
        spec = get_pdm(name)
        mus = spec.deviance.omega.grid(5, 1e-2, span=3.0)
        ys = spec.support.grid(17, 1e-3, span=4.0)
        tau = 0.7
        for mu in mus.tolist():
            values = pdm_density(spec, ys, mu, tau)
            assert isinstance(values, np.ndarray) and values.dtype == float
            expected = [pdm_density(spec, y, mu, tau) for y in ys.tolist()]
            np.testing.assert_allclose(values, expected, rtol=1e-14, atol=0.0)
        both = pdm_density(spec, ys[:5], mus, tau)
        expected = [pdm_density(spec, y, mu, tau) for y, mu in zip(ys[:5].tolist(), mus.tolist())]
        np.testing.assert_allclose(both, expected, rtol=1e-14, atol=0.0)

    def test_array_density_checks_the_domain(self):
        with pytest.raises(DomainError):
            pdm_density(get_pdm("simplex"), np.array([0.5, 1.0]), 0.5, 1.0)

    def test_pivotal_check_calls_the_deviance_twice_per_mu(self):
        normal = DEVIANCES["normal"]
        calls = []

        def counting(y, mu):
            calls.append(np.shape(y))
            return normal.fn(y, mu)

        spec = PdmSpec(name="counted", deviance=replace(normal, fn=counting), carrier=lambda y: 1.0)
        spec.normalizer(1.0)  # the normalizer quadrature is per tau, not per mu
        calls.clear()
        mus = (-2.0, 0.0, 5.0)
        report = pivotal_check(spec, mus, 1.0, m=1000, seed=3)
        # one density grid for the sampler and one deviance of the draws per mu
        assert len(calls) == 2 * len(mus)
        assert report.passed(0.001)

    def test_support_is_the_deviance_support(self):
        for spec in PDMS.values():
            assert spec.support is spec.deviance.support
