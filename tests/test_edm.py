"""EDM families: cgf, moments, deviances, densities, closure, Morris class."""

import math
import time
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from dispmodels import edm
from dispmodels.edm import (
    FAMILIES,
    MorrisSpec,
    cgf,
    cumulant,
    density,
    deviance_by_quadrature,
    edm_deviance,
    family_from_config,
    get_family,
    gsh_log_normalizer,
    inverse_mean,
    mean_value,
    morris_family,
    sample_mean_family,
    saturated_loglik_kernel,
    variance_function,
)
from dispmodels.errors import DomainError, NumericalError
from dispmodels.tweedie import tweedie_deviance, tweedie_family

CLOSED_FORM_FAMILIES = ["normal", "gamma", "poisson", "inverse_gaussian", "binomial", "negative_binomial"]
# families whose exact normalizer is integral-validated (all of them)
NORMALIZED = ["normal", "gamma", "poisson", "inverse_gaussian", "binomial", "negative_binomial", "gsh"]


def random_theta(fam, rng):
    dom = fam.theta_domain
    if math.isfinite(dom.lower) and math.isfinite(dom.upper):
        return float(dom.lower + dom.width * (0.2 + 0.6 * rng.random()))
    if math.isfinite(dom.upper):
        return float(dom.upper - 0.3 - 2.0 * rng.random())
    if math.isfinite(dom.lower):
        return float(dom.lower + 0.3 + 2.0 * rng.random())
    return float(2.0 * rng.standard_normal())


class TestCgf:
    def test_normal(self):
        assert cgf(get_family("normal"), 1.0, 0.0, 1.0) == 0.5

    def test_gamma_unit_exponential(self):
        # K(t) = -log(1 - t) at theta = -1, tau = 1
        assert cgf(get_family("gamma"), 0.5, -1.0, 1.0) == pytest.approx(
            0.6931471805599453, rel=1e-14
        )

    @pytest.mark.parametrize("name", CLOSED_FORM_FAMILIES + ["gsh"])
    def test_zero_at_origin(self, name):
        fam = get_family(name)
        tau = 1.0
        theta = random_theta(fam, np.random.default_rng(3))
        assert cgf(fam, 0.0, theta, tau) == 0.0

    def test_domain_exit_signals_nonexistence(self):
        with pytest.raises(DomainError):
            cgf(get_family("gamma"), 1.0, -1.0, 1.0)  # theta + tau t = 0


class TestMeanValueMapping:
    def test_examples(self):
        assert mean_value(get_family("normal"), 2.0) == 2.0
        assert mean_value(get_family("gamma"), -2.0) == 0.5
        assert mean_value(get_family("inverse_gaussian"), -2.0) == 0.5

    def test_inverse_examples(self):
        assert inverse_mean(get_family("normal"), 3.0) == 3.0
        assert inverse_mean(get_family("gamma"), 0.5) == -2.0

    @pytest.mark.parametrize("name", CLOSED_FORM_FAMILIES + ["gsh"])
    def test_round_trip(self, name):
        fam = get_family(name)
        rng = np.random.default_rng(17)
        for _ in range(50):
            theta = random_theta(fam, rng)
            assert inverse_mean(fam, mean_value(fam, theta)) == pytest.approx(
                theta, abs=1e-10 * (1 + abs(theta))
            )

    def test_newton_path_without_analytic_inverse(self):
        fam = replace(get_family("gamma"), mean_inverse=None)
        for mu in (0.25, 1.0, 7.5):
            theta = inverse_mean(fam, mu)
            assert mean_value(fam, theta) == pytest.approx(mu, rel=1e-10)

    @pytest.mark.parametrize("name", CLOSED_FORM_FAMILIES + ["gsh"])
    def test_strictly_increasing(self, name):
        fam = get_family(name)
        rng = np.random.default_rng(23)
        for _ in range(100):
            t1, t2 = sorted((random_theta(fam, rng), random_theta(fam, rng)))
            if t1 != t2:
                assert mean_value(fam, t1) < mean_value(fam, t2)


class TestVarianceFunction:
    def test_quadratic_class_values(self):
        assert variance_function(get_family("normal"), 7.0) == 1.0
        assert variance_function(get_family("gamma"), 3.0) == pytest.approx(9.0, rel=1e-12)
        assert variance_function(get_family("poisson"), 4.0) == pytest.approx(4.0, rel=1e-12)

    def test_gsh_one_plus_mu_squared(self):
        fam = get_family("gsh")
        for mu in (-2.0, 0.0, 0.5, 3.0):
            assert variance_function(fam, mu) == pytest.approx(1.0 + mu * mu, rel=1e-10)


class TestCumulant:
    def test_normal_higher_cumulants_vanish(self):
        assert cumulant(get_family("normal"), 3, 0.7, 2.0) == 0.0

    def test_gamma_second(self):
        assert cumulant(get_family("gamma"), 2, -1.0, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_poisson_all_orders_one(self):
        assert cumulant(get_family("poisson"), 4, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_first_two_match_mean_and_variance(self):
        rng = np.random.default_rng(29)
        for name in CLOSED_FORM_FAMILIES:
            fam = get_family(name)
            theta = random_theta(fam, rng)
            tau = 1.0 if fam.dispersion_domain.width == 0.0 else 0.7
            mu = mean_value(fam, theta)
            assert cumulant(fam, 1, theta, tau) == pytest.approx(mu, rel=1e-8)
            assert cumulant(fam, 2, theta, tau) == pytest.approx(
                tau * variance_function(fam, mu), rel=1e-8
            )

    def test_fd_orders_match_analytic(self):
        analytic = get_family("gamma")
        numeric = replace(analytic, b_nth=None)
        for r in (3, 4):
            assert cumulant(numeric, r, -1.5, 1.0) == pytest.approx(
                cumulant(analytic, r, -1.5, 1.0), rel=1e-4
            )

    def test_high_order_without_analytic_refused(self):
        numeric = replace(get_family("gamma"), b_nth=None)
        with pytest.raises(NumericalError):
            cumulant(numeric, 7, -1.0, 1.0)

    def test_order_seven_refused_through_b_double_prime_too(self):
        # the binomial knows b'' but not b^(7): a fifth difference of b'' is refused as well
        with pytest.raises(NumericalError):
            cumulant(get_family("binomial"), 7, 0.3, 1.0)

    @pytest.mark.parametrize("r, double_factorial", [(3, 3.0), (4, 15.0), (5, 105.0)])
    def test_inverse_gaussian_cumulants_exact(self, r, double_factorial):
        # b^(r)(theta) = (2r - 3)!! (-2 theta)^(1/2 - r), the double factorial an exact integer
        fam = get_family("inverse_gaussian")
        for theta in (-0.05, -0.5, -1.0, -3.7, -20.0):
            assert cumulant(fam, r, theta, 1.0) == double_factorial * (-2.0 * theta) ** (0.5 - r)

    @pytest.mark.parametrize(
        "fam",
        [get_family(name) for name in NORMALIZED]
        + [tweedie_family(p).to_edm() for p in (0.0, 1.0, 1.5, 2.0, 2.5, 3.0)],
        ids=lambda fam: fam.name,
    )
    def test_float_and_array_paths_agree(self, fam):
        # one derivative table serves mean_value, cumulant and the variance function of an array
        rng = np.random.default_rng(37)
        thetas = [random_theta(fam, rng) for _ in range(200)]
        mus = [mean_value(fam, theta) for theta in thetas]
        assert mus == [cumulant(fam, 1, theta, 1.0) for theta in thetas]
        # numpy's vector math and math differ by a few ulp, so the array path is not bitwise
        assert variance_function(fam, np.array(mus)).tolist() == pytest.approx(
            [variance_function(fam, mu) for mu in mus], rel=1e-14, abs=0.0
        )

    @pytest.mark.parametrize("name, b, thetas", [
        ("binomial", lambda t: mpmath.log1p(mpmath.exp(t)), (0.7, -2.0)),
        ("negative_binomial", lambda t: -mpmath.log1p(-mpmath.exp(t)), (-0.3, -2.5)),
        ("gsh", lambda t: -mpmath.log(mpmath.cos(t)), (0.4, -1.2)),
    ], ids=["binomial", "negative_binomial", "gsh"])
    def test_hand_written_derivatives_match_mpmath(self, name, b, thetas):
        # b^(r), r = 1..4, against 40-digit numerical derivatives of the generator
        fam = get_family(name)
        with mpmath.workdps(40):
            for theta in thetas:
                for r in range(1, 5):
                    exact = float(mpmath.diff(b, mpmath.mpf(theta), r))
                    assert fam.b_nth(r, theta) == pytest.approx(exact, rel=4e-15), (theta, r)


class TestDeviance:
    def test_examples(self):
        assert edm_deviance(get_family("normal"), 3.0, 1.0) == 4.0
        assert edm_deviance(get_family("gamma"), 2.0, 1.0) == pytest.approx(
            0.6137056388801092, rel=1e-12
        )
        assert edm_deviance(get_family("poisson"), 2.0, 1.0) == pytest.approx(
            0.7725887222397811, rel=1e-12
        )

    @pytest.mark.parametrize("name, y, mu", [
        ("normal", 8.1e246, -1.35e253),
    ])
    def test_overflowing_closed_form_is_inf(self, name, y, mu):
        # a deviance past the largest float is +inf, as a float and in an array, with no warning
        fam = get_family(name)
        assert edm_deviance(fam, y, mu) == math.inf
        values = edm_deviance(fam, np.array([y, 1.0]), np.array([mu, 2.0]))
        assert values.tolist() == [math.inf, edm_deviance(fam, 1.0, 2.0)]
        assert tweedie_deviance(0.0, 5e-324, 1e300) == math.inf  # the normal closed form at p = 0

    @pytest.mark.parametrize("y, mu", [(1e200, 2e200), (2e200, 1e200), (1e-200, 3e-200), (0.3, 1.7),
                                       (1e150, 1e-10)])
    def test_inverse_gaussian_deviance_in_units_of_mu(self, y, mu):
        # (y - mu)^2 / (mu^2 y) overflowed at (1e200, 2e200), where d = 2.5e-201 is finite, and
        # ((y - mu)/mu)^2 at (1e150, 1e-10), where d = 1e170
        with mpmath.workdps(50):
            exact = float((mpmath.mpf(y) - mu) ** 2 / (mpmath.mpf(mu) ** 2 * y))
        fam = get_family("inverse_gaussian")
        assert edm_deviance(fam, y, mu) == pytest.approx(exact, rel=1e-15)
        assert edm_deviance(fam, np.array([y]), np.array([mu]))[0] == pytest.approx(exact, rel=1e-15)
        assert tweedie_deviance(3.0, y, mu) == pytest.approx(exact, rel=1e-15)

    @pytest.mark.parametrize("name", ["normal", "gamma", "poisson", "inverse_gaussian"])
    def test_quadrature_matches_closed_form(self, name):
        # the quadrature of 2(y - t)/V(t) is the defining integral
        fam = get_family(name)
        rng = np.random.default_rng(31)
        for _ in range(50):
            mu = float(fam.mean_domain.clip_inward(0.2 + 3.0 * rng.random(), 1e-3))
            y = float(fam.support.clip_inward(0.2 + 3.0 * rng.random(), 1e-3))
            closed = edm_deviance(fam, y, mu)
            assert deviance_by_quadrature(fam, y, mu) == pytest.approx(
                closed, rel=1e-8, abs=1e-10
            )


class TestDensity:
    def test_standard_examples(self):
        assert density(get_family("normal"), 0.0, 0.0, 1.0) == pytest.approx(
            0.3989422804014327, rel=1e-14
        )
        assert density(get_family("poisson"), 2.0, 0.0, 1.0) == pytest.approx(
            0.18393972058572117, rel=1e-12
        )
        assert density(get_family("gamma"), 1.0, -1.0, 1.0) == pytest.approx(
            0.36787944117144233, rel=1e-12
        )

    @pytest.mark.parametrize("name, theta", [("gamma", -1.0), ("inverse_gaussian", -0.5)])
    def test_nan_log_density_raises(self, name, theta):
        # 1/tau overflows at tau = 5e-324, and c + (y theta - b)/tau is inf - inf
        with pytest.raises(NumericalError):
            density(get_family(name), 1.0, theta, 5e-324)

    @pytest.mark.parametrize("name,y,theta,tau", [("inverse_gaussian", 5e-324, -1e8, 5e-324),
                                                  ("gamma", 5e-324, -1e8, 1e8)])
    def test_extreme_inputs_raise_a_numerical_error(self, name, y, theta, tau):
        # tau y underflows to 0 in the inverse Gaussian c(y; tau); the gamma log density exceeds 709
        with pytest.raises(NumericalError, match=r"y=5e-324, theta=-100000000.0, tau="):
            density(get_family(name), y, theta, tau)

    @pytest.mark.parametrize("y", [2.5, np.float64(2.5), np.array(2.5), np.array([2.0, 2.5])],
                             ids=["float", "numpy_scalar", "0d", "1d"])
    def test_lattice_rejects_non_integer(self, y):
        # a float, a numpy scalar (an entry of an array of observations), a 0-d and a 1-d array
        for f in (density, edm.log_density):
            with pytest.raises(DomainError, match="y=2.5 is not a lattice point"):
                f(get_family("poisson"), y, 0.0, 1.0)

    @pytest.mark.parametrize("name", NORMALIZED)
    def test_mass_is_one(self, name):
        fam = get_family(name)
        rng = np.random.default_rng(37)
        for _ in range(2):
            theta = random_theta(fam, rng)
            tau = 1.0 if fam.dispersion_domain.width == 0.0 else 0.5 + rng.random()
            assert _mass(fam, theta, tau) == pytest.approx(1.0, abs=1e-6)

    def test_fallback_is_renormalized_saddlepoint(self):
        # a family without an exact normalizer integrates to ~1 anyway
        fam = replace(get_family("gamma"), exact_normalizer=None)
        assert not fam.has_exact_density
        total, _ = quad(lambda y: density(fam, y, -1.0, 0.5), 1e-9, 40, limit=200)
        assert total == pytest.approx(1.0, abs=1e-5)


def _mass(fam, theta, tau):
    if fam.support.lattice:
        total, k, quiet = 0.0, 0, 0
        while True:
            if math.isfinite(fam.support.upper) and k > fam.support.upper:
                break
            term = density(fam, float(k), theta, tau)
            total += term
            quiet = quiet + 1 if term < 1e-13 * max(total, 1e-300) else 0
            if quiet >= 3 and k > 2:
                break
            k += 1
        return total
    lo = fam.support.lower if math.isfinite(fam.support.lower) else -np.inf
    hi = fam.support.upper if math.isfinite(fam.support.upper) else np.inf
    value, _ = quad(lambda y: density(fam, float(y), theta, tau), lo, hi, limit=300)
    return value


class TestSampleMeanClosure:
    def test_identity_at_one(self):
        assert sample_mean_family(get_family("gamma"), -1.0, 1.0, 1) == (-1.0, 1.0)

    def test_gamma_quarter(self):
        assert sample_mean_family(get_family("gamma"), -1.0, 1.0, 4) == (-1.0, 0.25)

    @pytest.mark.parametrize("name", ["gamma", "inverse_gaussian"])
    def test_cgf_identity(self, name):
        # K_mean(t) = n K(t/n) numerically to 1e-12
        fam = get_family(name)
        rng = np.random.default_rng(41)
        theta, tau, n = -1.0, 1.0, 7
        theta_m, tau_m = sample_mean_family(fam, theta, tau, n)
        for _ in range(20):
            t = float(rng.uniform(-0.4, 0.4))
            lhs = cgf(fam, t, theta_m, tau_m)
            rhs = n * cgf(fam, t / n, theta, tau)
            assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(rhs)))

    def test_unit_tau_families_reject_division(self):
        with pytest.raises(DomainError):
            sample_mean_family(get_family("binomial"), 0.3, 1.0, 2)


class TestMorrisClassification:
    def test_the_six(self):
        assert morris_family(MorrisSpec(0, 0, 1)).name == "normal"
        assert morris_family(MorrisSpec(1, 0, 0)).name == "gamma"
        assert morris_family(MorrisSpec(0, 1, 0)).name == "poisson"
        assert morris_family(MorrisSpec(-1, 1, 0)).name == "binomial"
        assert morris_family(MorrisSpec(1, 1, 0)).name == "negative_binomial"
        assert morris_family(MorrisSpec(1, 0, 1)).name == "gsh"

    @pytest.mark.parametrize("triple", [(2, 0, 0), (0, 0, 0), (1, 2, 0), (0.5, 0, 0.5), (-1, 0, 1)])
    def test_rejections(self, triple):
        with pytest.raises(DomainError):
            morris_family(MorrisSpec(*triple))

    def test_quadratic_variance_matches(self):
        for (a, b, c), name in [
            ((0, 0, 1), "normal"),
            ((1, 0, 0), "gamma"),
            ((0, 1, 0), "poisson"),
            ((1, 0, 1), "gsh"),
        ]:
            fam = morris_family(MorrisSpec(a, b, c))
            for mu in (0.3, 1.7):
                if fam.mean_domain.contains(mu):
                    assert variance_function(fam, mu) == pytest.approx(
                        a * mu * mu + b * mu + c, rel=1e-10
                    )


class TestGshNormalizer:
    @pytest.mark.parametrize("y", [-6.0, -2.5, -0.3, 1e-3, 0.7, 1.0, 3.2, 6.0])
    def test_density_at_theta_zero(self, y):
        # the hyperbolic secant law at tau = 1 and its convolution square at tau = 1/2
        fam = get_family("gsh")
        at_one = 0.5 / math.cosh(0.5 * math.pi * y)
        at_half = 2.0 * y / math.sinh(math.pi * y)
        assert density(fam, y, 0.0, 1.0) == pytest.approx(at_one, rel=1e-13)
        assert density(fam, y, 0.0, 0.5) == pytest.approx(at_half, rel=1e-13)

    @pytest.mark.parametrize("theta, tau", [(0.0, 1.0), (0.4, 0.5), (-0.7, 2.0)])
    def test_integrates_to_one(self, theta, tau):
        fam = get_family("gsh")
        mass, _ = quad(lambda y: density(fam, y, theta, tau), -np.inf, np.inf,
                       limit=400, epsabs=1e-13, epsrel=1e-13)
        assert abs(mass - 1.0) < 1e-10

    def test_even_in_y(self):
        assert gsh_log_normalizer(1.5, 0.8) == gsh_log_normalizer(-1.5, 0.8)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(DomainError):
            gsh_log_normalizer(1.0, 0.0)

    def test_rejects_nan_tau(self):
        with pytest.raises(DomainError):
            gsh_log_normalizer(1.0, math.nan)


class TestSmallDispersionNormality:
    def test_standardized_cgf_converges(self):
        # |K_Z(t) - t^2/2| <= C sqrt(tau) on [-1, 1], errors scaling ~ sqrt(tau)
        fam = get_family("gamma")
        theta = -1.0  # mu = 1, V(mu) = 1
        errors = {}
        for tau in (1e-2, 1e-4):
            worst = 0.0
            for t in np.linspace(-1.0, 1.0, 21):
                if t == 0.0:
                    continue
                kz = cgf(fam, t / math.sqrt(tau), theta, tau) - t / math.sqrt(tau)
                worst = max(worst, abs(kz - t * t / 2.0))
            errors[tau] = worst
            assert worst <= 0.5 * math.sqrt(tau)
        assert errors[1e-2] / errors[1e-4] == pytest.approx(10.0, rel=0.2)


class TestUserDefinedFamilies:
    CONFIG = {
        "name": "user_gamma",
        "b": "-log(0 - theta)",
        "theta_domain": [None, 0],
        "mean_domain": [0, None],
        "support": [0, None],
    }

    def test_reproduces_gamma(self):
        fam = family_from_config(self.CONFIG)
        assert mean_value(fam, -2.0) == pytest.approx(0.5, rel=1e-8)
        assert inverse_mean(fam, 0.5) == pytest.approx(-2.0, rel=1e-8)
        assert variance_function(fam, 3.0) == pytest.approx(9.0, rel=1e-5)
        assert edm_deviance(fam, 2.0, 1.0) == pytest.approx(0.6137056388801092, rel=1e-6)

    def test_json_string(self):
        import json

        fam = family_from_config(json.dumps(self.CONFIG))
        assert fam.name == "user_gamma"

    def test_json_file_path(self, tmp_path):
        import json

        path = tmp_path / "user_gamma.json"
        path.write_text(json.dumps(self.CONFIG))
        fam = family_from_config(str(path))
        assert fam.name == "user_gamma" and mean_value(fam, -2.0) == pytest.approx(0.5, rel=1e-8)

    def test_missing_keys(self):
        with pytest.raises(DomainError):
            family_from_config({"name": "nope"})

    def test_density_next_to_the_mean(self):
        # b'(-1) = 1 - 3.3e-14 by finite differences: the deviance at y = 1 is an integral of about 1e-27
        # by quadrature, once refused and turned into a silent zero density
        fam, gamma = family_from_config(self.CONFIG), get_family("gamma")
        value = edm.density(fam, 1.0, -1.0, 0.3)
        assert value == pytest.approx(edm.density(gamma, 1.0, -1.0, 0.3), rel=1e-6)
        assert edm.density(fam, 1.0 + 1e-9, -1.0, 0.3) < value < edm.density(fam, 1.0 - 1e-9, -1.0, 0.3)


def test_saturated_loglik_kernel_values():
    # l(y; y) = y q(y) - b(q(y)): gamma gives -1 - log y
    fam = get_family("gamma")
    for y in (0.5, 1.0, 2.0):
        assert saturated_loglik_kernel(fam, y) == pytest.approx(-1.0 - math.log(y), rel=1e-12)


def test_registry():
    assert set(FAMILIES) >= {"normal", "gamma", "poisson", "inverse_gaussian", "binomial", "negative_binomial", "gsh"}
    with pytest.raises(DomainError):
        get_family("nosuch")


class TestSharedSolvers:
    """The bracketed Newton and the support integral that several layers share."""

    @pytest.mark.parametrize("array", [False, True], ids=["float", "ndarray"])
    def test_newton_bisects_when_the_slope_is_useless(self, array):
        from dispmodels._numdiff import _bracketed_newton

        if not array:
            root = _bracketed_newton(lambda x: x**3 - 2.0, lambda x: 0.0, 0.0, 4.0, 1e-12, what="root")
            assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-11)
            return
        # each entry bisects its own bracket and stops where its float call stops (x * x * x
        # rounds alike on floats and arrays, where ** need not)
        cube = lambda x: x * x * x - 2.0
        lo, hi = np.array([0.0, 1.0, -3.0]), np.array([4.0, 2.0, 1.5])
        roots = _bracketed_newton(cube, lambda x: 0.0, lo, hi, 1e-12, what="root")
        expected = [_bracketed_newton(cube, lambda x: 0.0, a, b, 1e-12, what="root") for a, b in zip(lo, hi)]
        np.testing.assert_array_equal(roots, expected)

    def test_newton_array_takes_the_float_steps(self):
        # Newton steps on a monotone fn, with a bracket and a tolerance per entry
        from dispmodels._numdiff import _bracketed_newton

        fn, slope = lambda x: x * x * x + x - 3.0, lambda x: 3.0 * x * x + 1.0
        lo, hi, tol = np.array([0.0, -5.0, 1.0]), np.array([2.0, 40.0, 1.5]), np.array([1e-3, 1e-12, 1e-14])
        roots = _bracketed_newton(fn, slope, lo, hi, tol, what="root")
        expected = [_bracketed_newton(fn, slope, *args, what="root") for args in zip(lo, hi, tol)]
        np.testing.assert_array_equal(roots, expected)

    @pytest.mark.parametrize("array", [False, True], ids=["float", "ndarray"])
    def test_newton_raises_naming_the_residual(self, array):
        from dispmodels._numdiff import _bracketed_newton
        from dispmodels.errors import ConvergenceError

        if not array:
            step = lambda x: 1.0 if x >= 1.0 else -1.0
            with pytest.raises(ConvergenceError, match=r"step did not converge in 200 iterations: residual 1"):
                _bracketed_newton(step, lambda x: 0.0, 0.0, 3.0, 1e-12, what="step")
            return
        # entry 0 has a root at 1.5; the step of entry 1 has none
        step = lambda x: np.where(x >= 1.0, 1.0, -1.0) * np.array([0.0, 1.0]) + np.array([x[0] - 1.5, 0.0])
        with pytest.raises(ConvergenceError, match=r"step at entry 1 did not converge in 200 iterations: "
                                                   r"residual 1 at x = 1 "):
            _bracketed_newton(step, lambda x: 1.0, np.array([0.0, 0.0]), np.array([3.0, 3.0]), 1e-12,
                              what="step")

    def test_lattice_sum_from_a_far_mode(self):
        # the terms far below the mode of Poisson(800) underflow to zero: the sum
        # from the centre runs down to them and stops there
        from dispmodels._numdiff import _support_integral
        from scipy.stats import poisson

        support = edm.get_family("poisson").support
        total, err = _support_integral(lambda k: poisson.pmf(k, 800.0), support, 800.0)
        assert total == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < err < 1e-14 * total

    def test_lattice_sum_adds_its_terms_one_by_one(self):
        # up from the start and then down, each term added to a running float sum: the blocks change
        # nothing but the calls, the first of which holds both first blocks and the term 10^7 points up
        from dispmodels._numdiff import _support_integral
        from scipy.stats import poisson

        def running_sum(term, start):
            total = 0.0
            for k, step in ((start, 1), (start - 1, -1)):
                quiet = 0
                while k >= 0 and quiet < 3:
                    value = term(k)
                    total += value
                    quiet = quiet + 1 if value < 1e-14 * total or value == 0.0 else 0
                    k += step
            return total

        support = edm.get_family("poisson").support
        expected = running_sum(lambda k: float(poisson.pmf(k, 800.0)), 800)
        calls = []
        total, _ = _support_integral(lambda k: calls.append(k.size) or poisson.pmf(k, 800.0), support, 800.0)
        assert total == expected and calls == [129, 128, 256, 128, 256]

    def test_finite_lattice_and_quadrature(self):
        from dispmodels._numdiff import _support_integral
        from dispmodels.support import RealInterval

        dice = RealInterval(1.0, 6.0, closed_lower=True, closed_upper=True, lattice=True)
        assert _support_integral(lambda k: k, dice, 3.5) == (21.0, 0.0)
        value, err = _support_integral(lambda x: np.exp(-x), RealInterval(0.0, math.inf), 1.0)
        assert value == pytest.approx(1.0, rel=1e-12) and err < 1e-8

    def test_integrable_singularity_at_a_finite_end(self):
        # y^-0.8 e^-y: the panels at 0 decay as a power law, whose tail the rule extrapolates
        from dispmodels._numdiff import _support_integral
        from dispmodels.support import RealInterval

        value, err = _support_integral(lambda y: y**-0.8 * np.exp(-y), RealInterval(0.0, math.inf), 1.0)
        assert value == pytest.approx(math.gamma(0.2), rel=1e-10) and err < 1e-9 * value

    def test_divergent_integral_uses_up_its_rounds(self):
        # the integral of 1/x from 0 grows by log 4 each time the panel at 0 splits
        from dispmodels._numdiff import _quadrature

        with pytest.raises(NumericalError, match="did not reach the relative error"):
            _quadrature(lambda x, rows: 1.0 / x, 0.0, 1.0)

    def test_batched_quadrature_equals_each_entry_alone(self):
        # each integral refines its own panels, so a batch gives each entry its float value
        from dispmodels._numdiff import _quadrature

        lower, upper = np.array([0.0, 1e-7, 2.0]), np.array([1.0, 1.0, -3.0])
        power = np.array([0.5, -2.0, 2.0])
        # |x|^p as exp(p log|x|): numpy's power of an array by the float 2.0 is a product
        values, errors = _quadrature(lambda x, rows: np.exp(power[rows, None] * np.log(np.abs(x))), lower, upper)
        for i in range(3):
            alone = _quadrature(lambda x, rows: np.exp(power[i] * np.log(np.abs(x))), lower[i], upper[i])
            assert (values[i], errors[i]) == alone
        assert values == pytest.approx([2.0 / 3.0, 1e7 - 1.0, -(8.0 + 27.0) / 3.0], rel=1e-12)


    def test_maximizer_finds_a_cusp_off_the_scan(self):
        # golden section needs no smoothness: -|x - a| peaks at a, between two scan points
        from dispmodels._numdiff import _refined_maxima

        a = 1.0 / 3.0 + 1e-3
        xs = np.linspace(-1.0, 1.0, 64)
        fn = lambda x: -abs(x - a)
        peaks = _refined_maxima(fn, xs, np.array([fn(x) for x in xs]), 1e-12)
        assert len(peaks) == 1
        assert peaks[0][0] == pytest.approx(a, abs=1e-9)

    def test_maximizer_counts_the_ends_only_when_asked(self):
        # |phi| of the gauss cf falls across the scan: its only maximum is the first point
        from dispmodels._numdiff import _refined_maxima

        xs = np.linspace(0.01, 10.0, 1000)
        fn = lambda t: math.exp(-0.5 * t * t)
        vals = np.exp(-0.5 * xs**2)
        assert _refined_maxima(fn, xs, vals, 1e-12) == []
        (x, value), = _refined_maxima(fn, xs, vals, 1e-12, ends=True)
        assert x == pytest.approx(0.01, abs=1e-10) and value == pytest.approx(fn(0.01), abs=1e-12)


class TestConfigGeneratorDeviance:
    """JSON-config families have no closed form: generator form inside, quadrature on the boundary."""

    POISSON = {"name": "user_poisson", "b": "exp(theta)", "mean_domain": [0, None], "support": [0, None, "["]}
    GAMMA = TestUserDefinedFamilies.CONFIG
    POINTS = [(2.0, 1.0), (3.0, 2.2), (0.3, 4.0), (50.0, 0.1)]

    @pytest.mark.parametrize("config,name", [(POISSON, "poisson"), (GAMMA, "gamma")])
    def test_matches_closed_form(self, config, name):
        fam, ref = family_from_config(config), FAMILIES[name]
        for y, mu in self.POINTS:
            assert edm_deviance(fam, y, mu) == pytest.approx(edm_deviance(ref, y, mu), rel=1e-9)
        ys, mus = np.array([y for y, _ in self.POINTS]), np.array([mu for _, mu in self.POINTS])
        np.testing.assert_allclose(edm_deviance(fam, ys, mus), edm_deviance(ref, ys, mus), rtol=1e-9)

    @pytest.mark.parametrize("config,variance", [(POISSON, lambda mu: mu), (GAMMA, lambda mu: mu * mu)])
    def test_positive_next_to_the_diagonal(self, config, variance):
        # the generator terms cancel there; d ~ (y - mu)^2 / V(mu) must survive
        fam = family_from_config(config)
        for mu in (0.3, 1.0, 4.5):
            for rel in (1e-7, -1e-7, 1e-5, -1e-5):
                y = mu * (1.0 + rel)
                assert edm_deviance(fam, y, mu) == pytest.approx((y - mu) ** 2 / variance(mu), rel=1e-4)

    def test_accurate_next_to_the_diagonal(self, monkeypatch):
        # |y/mu - 1| <= 0.01: the inverse mean's residual would enter d through y - mu (3.1e-7 off)
        fam, ref = family_from_config(self.POISSON), FAMILIES["poisson"]
        rng = np.random.default_rng(0)
        mu = rng.uniform(0.5, 20.0, 1000)
        y = mu * (1.0 + rng.uniform(-0.01, 0.01, 1000))
        quadratures = []
        real = edm._deviance_by_quadrature
        monkeypatch.setattr(edm, "_deviance_by_quadrature", lambda *a: quadratures.extend(a[1]) or real(*a))
        d, exact = edm_deviance(fam, y, mu), edm_deviance(ref, y, mu)
        assert np.max(np.abs(d - exact) / exact) <= 2e-8
        assert len(quadratures) <= 22  # the entries at the cancellation gate

    def test_zero_counts_share_one_quadrature(self):
        # 500 zero counts in n = 10^3: one quadrature of 2 t / V(t) over [0, mu] for all of them
        fam, ref = family_from_config(self.POISSON), FAMILIES["poisson"]
        rng = np.random.default_rng(3)
        mu = rng.uniform(0.5, 20.0, 1000)
        y = np.where(np.arange(1000) % 2 == 0, 0.0, rng.poisson(mu) + 1.0)
        start = time.perf_counter()
        d = edm_deviance(fam, y, mu)
        assert time.perf_counter() - start < 5.0
        exact = edm_deviance(ref, y, mu)
        assert np.count_nonzero(y == 0.0) == 500
        np.testing.assert_allclose(d, exact, rtol=1e-9, atol=0.0)

    def test_zero_count_nodes_per_call_are_bounded(self, monkeypatch):
        # 300 zero counts go to quadrature in batches of _QUAD_BATCH integrals, so a call of the
        # integrand sees at most the first round's 2 pieces x 2 panels x 3 rules x 16 nodes of each
        from dispmodels import _numdiff

        fam = family_from_config(self.POISSON)
        mu = np.random.default_rng(4).uniform(0.5, 20.0, 300)
        sizes, real = [], edm._quadrature
        monkeypatch.setattr(edm, "_quadrature",
                            lambda fn, *a: real(lambda x, rows: sizes.append(x.size) or fn(x, rows), *a))
        np.testing.assert_allclose(edm_deviance(fam, np.zeros(300), mu), 2.0 * mu, rtol=1e-9)
        assert _numdiff._QUAD_BATCH < 300 and len(sizes) >= 300 / _numdiff._QUAD_BATCH
        assert max(sizes) <= _numdiff._QUAD_BATCH * 2 * 2 * 3 * 16

    def test_boundary_count_uses_quadrature(self):
        fam = family_from_config(self.POISSON)
        # d(0; mu) = 2 mu for the Poisson deviance
        assert edm_deviance(fam, 0.0, 0.5) == pytest.approx(1.0, rel=1e-6)
        assert edm_deviance(fam, 0.0, 0.5) == deviance_by_quadrature(fam, 0.0, 0.5)

    def test_closed_mean_domain_end(self):
        # a count of 0 on a closed end of the mean domain goes to quadrature, d(0; mu) = 2 mu,
        # and b' takes no value there, so the inverse mean refuses it
        fam = family_from_config(dict(self.POISSON, mean_domain=[0, None, "["]))
        y, mu = np.array([0.0, 2.0, 0.0]), np.array([1.5, 1.5, 3.0])
        np.testing.assert_allclose(edm_deviance(fam, y, mu), edm_deviance(FAMILIES["poisson"], y, mu),
                                   rtol=1e-9)
        assert edm_deviance(fam, 0.0, 1.5) == pytest.approx(3.0, rel=1e-9)
        for mu in (0.0, np.array([1.0, 0.0])):
            with pytest.raises(DomainError, match=r"mu 0.0 outside \(0.0, inf\)"):
                inverse_mean(fam, mu)

    def test_calls_of_b_do_not_grow_with_n(self):
        # each finite difference (the bracket scan's among them), each Newton iteration and the
        # generator deviance call b once on a whole array, however many entries it has; the
        # Newton runs until its slowest entry stops, so both sizes repeat the same ten means
        fam = family_from_config(self.POISSON)
        calls = []
        counted = replace(fam, b=lambda theta: calls.append(np.shape(theta)) or fam.b(theta))
        counts = {}
        for n in (10, 1000):
            mu = np.tile(np.linspace(0.5, 20.0, 10), n // 10)
            for name, call in (("inverse_mean", lambda: inverse_mean(counted, mu)),
                               ("variance_function", lambda: variance_function(counted, mu)),
                               ("edm_deviance", lambda: edm_deviance(counted, 1.7 * mu, mu))):
                calls.clear()
                call()
                counts[name, n] = len(calls)
        for name in ("inverse_mean", "variance_function", "edm_deviance"):
            assert counts[name, 10] == counts[name, 1000], counts

    @pytest.mark.parametrize("config,theta,variance",
                             [(POISSON, math.log(1e-12), 1e-12), (GAMMA, -1e12, 1e-24)])
    def test_small_mean_solved_to_relative_accuracy(self, config, theta, variance):
        # below |mu| = 1 the tolerance on b'(theta) - mu is relative to the distance from mu to 0
        fam = family_from_config(config)
        assert inverse_mean(fam, 1e-12) == pytest.approx(theta, rel=1e-9)
        assert variance_function(fam, 1e-12) == pytest.approx(variance, rel=1e-7)
        mus = np.array([1e-12, 1e-6, 0.5])
        np.testing.assert_allclose(inverse_mean(fam, mus)[0], theta, rtol=1e-9)
        np.testing.assert_allclose(mean_value(fam, float(inverse_mean(fam, mus)[1])), 1e-6, rtol=1e-9)


class TestFiniteDifferenceDerivatives:
    """Derivatives of b that no family registers come from ``_numdiff.derivative``."""

    @pytest.mark.parametrize("x", [1e-8, 0.3, 50.0, np.array([1e-8, 0.3, 50.0]), np.array([[2.0, 1e-3]])])
    def test_log_derivatives_next_to_the_boundary(self, x):
        # d^r log x / dx^r = (-1)^(r-1) (r-1)! / x^r; the stencil stays in (0, inf)
        from dispmodels._numdiff import derivative
        from dispmodels.support import POSITIVE_REALS

        for r, tol in zip(range(1, 7), (1e-12, 1e-9, 1e-8, 1e-6, 1e-5, 1e-4)):
            exact = (-1) ** (r - 1) * math.factorial(r - 1) / x**r
            if isinstance(x, float):
                assert derivative(np.log, x, r, POSITIVE_REALS) == pytest.approx(exact, rel=tol)
                continue
            # one call of np.log on every stencil point; each entry is its float call
            values = derivative(np.log, x, r, POSITIVE_REALS)
            assert values.shape == x.shape
            np.testing.assert_allclose(values, exact, rtol=tol)
            expected = [derivative(np.log, float(v), r, POSITIVE_REALS) for v in x.flat]
            np.testing.assert_array_equal(values.ravel(), expected)

    @pytest.mark.parametrize("x", [-1.0, np.array([0.5, 2.0, -1.0, 0.0])])
    def test_outside_the_domain_names_the_entry(self, x):
        from dispmodels._numdiff import derivative
        from dispmodels.support import POSITIVE_REALS

        match = "at -1.0 outside" if isinstance(x, float) else r"at entry 2, -1.0, outside"
        with pytest.raises(DomainError, match=match):
            derivative(np.log, x, 2, POSITIVE_REALS)

    @pytest.mark.parametrize("name,theta", [("binomial", 0.3), ("negative_binomial", -0.7), ("gsh", 0.3)])
    def test_cumulants_of_order_five_and_six(self, name, theta):
        # the families register b^(r) up to r = 4; beyond, b'' is differentiated
        if name == "binomial":
            s = 1.0 / (1.0 + math.exp(-theta))
            k5 = s * (1 - s) * (1 - 2 * s) * (1 - 12 * s + 12 * s**2)
            k6 = s * (1 - s) * (1 - 30 * s + 150 * s**2 - 240 * s**3 + 120 * s**4)
        elif name == "negative_binomial":
            x = math.exp(theta)
            k5 = x * (1 + 11 * x + 11 * x**2 + x**3) / (1 - x) ** 5
            k6 = x * (1 + 26 * x + 66 * x**2 + 26 * x**3 + x**4) / (1 - x) ** 6
        else:
            t = math.tan(theta)
            k5 = 16 * t + 40 * t**3 + 24 * t**5
            k6 = 16 + 136 * t**2 + 240 * t**4 + 120 * t**6
        fam = get_family(name)
        assert cumulant(fam, 5, theta, 1.0) == pytest.approx(k5, rel=1e-6)
        assert cumulant(fam, 6, theta, 1.0) == pytest.approx(k6, rel=1e-6)

    def test_config_gamma_matches_the_builtin(self):
        # a JSON-config family registers b alone: every derivative is numerical
        fam, ref = family_from_config(TestUserDefinedFamilies.CONFIG), FAMILIES["gamma"]
        for r in range(1, 7):
            tol = 1e-7 if r <= 4 else 1e-4
            assert cumulant(fam, r, -1.5, 1.0) == pytest.approx(cumulant(ref, r, -1.5, 1.0), rel=tol)
        assert edm.variance_prime(fam, 2.0) == pytest.approx(edm.variance_prime(ref, 2.0), rel=1e-8)
        assert variance_function(fam, 3.0) == pytest.approx(9.0, rel=1e-9)
        mus = np.array([3.0, 0.2, 40.0])
        np.testing.assert_array_equal(variance_function(fam, mus), [variance_function(fam, m) for m in mus])
        thetas = np.array([[-1.5, -0.1], [-7.0, -30.0]])
        for r in range(1, 7):
            values = fam._b_derivative(r, thetas)
            np.testing.assert_array_equal(values.ravel(), [cumulant(fam, r, t, 1.0) for t in thetas.flat])

    def test_config_poisson_boundary_deviance(self):
        # d(0; mu) = 2 mu, by quadrature over numerical V
        fam = family_from_config(TestConfigGeneratorDeviance.POISSON)
        assert edm_deviance(fam, 0.0, 0.5) == pytest.approx(1.0, rel=1e-9)


class TestQuadratureOverDecades:
    """The defining integral of d on intervals spanning many decades."""

    @pytest.mark.parametrize("name,y,mu", [("inverse_gaussian", 1e-7, 1.0), ("gamma", 1e6, 1.0),
                                           ("inverse_gaussian", 1e8, 1.0), ("gamma", 1e-6, 2.0)])
    def test_matches_closed_form(self, name, y, mu):
        fam = get_family(name)
        assert deviance_by_quadrature(fam, y, mu) == pytest.approx(edm_deviance(fam, y, mu), rel=1e-10)

    def test_an_integrand_underflowing_at_every_node_is_refused(self):
        # d(1e200; 1) = 2e200 for gamma, but its mass lies within 1e-200 of mu, where every node's
        # value underflows: the integral is 0 with error 0, which is no deviance off the diagonal
        fam = get_family("gamma")
        with pytest.raises(NumericalError, match=r"y=1e\+200, mu=1.0"):
            deviance_by_quadrature(fam, 1e200, 1.0)
        with pytest.raises(NumericalError, match=r"y=1e\+200, mu=1.0"):
            deviance_by_quadrature(fam, np.array([2.0, 1e200]), 1.0)
        assert deviance_by_quadrature(fam, np.array([1.0, 1e20]), 1.0).tolist() == [0.0, pytest.approx(2e20)]


@pytest.mark.parametrize("name, theta, tau, y", [
    ("normal", 0.3, 0.5, [-1.0, 0.5, 2.0]),
    ("gamma", -1.2, 0.5, [0.1, 1.0, 3.0]),
    ("poisson", 0.2, 1.0, [0.0, 1.0, 7.0]),
    ("inverse_gaussian", -0.4, 0.5, [0.2, 1.0, 4.0]),
])
def test_density_of_an_array_is_its_float_calls(name, theta, tau, y):
    fam = edm.get_family(name)
    values = edm.density(fam, np.array(y), theta, tau)
    assert values.tolist() == [edm.density(fam, v, theta, tau) for v in y]


def test_renormalized_density_of_an_array_matches_or_refuses():
    # a config family has no exact normalizer: density is the renormalized saddlepoint, whose
    # array entries are the float calls but for the last bits of numpy's logs and powers
    fam = edm.family_from_config({"name": "gamma_b", "b": "-log(-theta)", "theta_domain": [None, 0],
                                  "mean_domain": [0, None], "support": [0, None]})
    y = np.array([0.5, 1.5, 2.0])
    assert edm.density(fam, y, -1.0, 0.3) == pytest.approx([edm.density(fam, v, -1.0, 0.3) for v in y], rel=1e-13)
    poisson = edm.family_from_config({"name": "poisson_b", "b": "exp(theta)", "mean_domain": [0, None],
                                      "support": [0, None, "["], "lattice": True})
    assert edm.density(poisson, 0.0, 0.1, 1.0) == 0.0  # a boundary observation carries no mass
    with pytest.raises(DomainError):
        edm.density(poisson, np.array([0.0, 2.0]), 0.1, 1.0)


@pytest.mark.parametrize("name", ["gamma", "inverse_gaussian", "binomial", "config_gamma"])
def test_variance_prime_is_the_third_cumulant_over_the_variance(name):
    # bit for bit the composition of the public functions, which checked mu three times
    fam = family_from_config(TestUserDefinedFamilies.CONFIG) if name == "config_gamma" else get_family(name)
    for mu in (0.2, 0.5, 0.9):
        expected = cumulant(fam, 3, inverse_mean(fam, mu), 1.0) / variance_function(fam, mu)
        assert edm.variance_prime(fam, mu) == expected


@pytest.mark.parametrize("call, message", [
    (lambda: cumulant(get_family("gamma"), 0, -1.0, 1.0), "cumulant order must be >= 1"),
    (lambda: sample_mean_family(get_family("gamma"), -1.0, 1.0, 0), "sample size must be >= 1"),
    (lambda: edm.log_density(family_from_config(TestUserDefinedFamilies.CONFIG), 1.0, -1.0, 1.0),
     "family user_gamma has no exact normalizer"),
], ids=["cumulant_order_zero", "empty_sample", "config_log_density"])
def test_refusals(call, message):
    with pytest.raises(DomainError, match=message):
        call()
