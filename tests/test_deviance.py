"""Unit deviances: axioms, curvature, identities, transformations."""

import math

import numpy as np
import pytest
from dataclasses import replace

from dispmodels.deviance import (
    DEVIANCES,
    VARIANCE_FUNCTIONS,
    check_unit_deviance,
    eval_deviance,
    get_deviance,
    second_derivative_identity,
    transform_deviance,
    unit_variance,
    variance_stabilizing_transform,
)
from dispmodels.errors import DomainError, NumericalError

ALL_NAMES = ["normal", "gamma", "poisson", "vonmises", "simplex", "inverse_gaussian"]


def strip_analytic(dev):
    """Copy of a deviance with its registered variance removed (forces the FD path)."""
    return replace(dev, variance=None)


class TestEvalDeviance:
    def test_normal_squared_distance(self):
        assert eval_deviance(DEVIANCES["normal"], 3.0, 1.0) == 4.0

    def test_gamma_value(self):
        # direct evaluation of 2{y/mu - log(y/mu) - 1}
        value = eval_deviance(DEVIANCES["gamma"], 2.0, 1.0)
        assert value == pytest.approx(0.6137056388801092, rel=1e-14)

    def test_poisson_value(self):
        # direct evaluation of 2{y log(y/mu) - y + mu}
        value = eval_deviance(DEVIANCES["poisson"], 2.0, 1.0)
        assert value == pytest.approx(0.7725887222397811, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eval_deviance(DEVIANCES["gamma"], -1.0, 1.0)
        with pytest.raises(DomainError):
            eval_deviance(DEVIANCES["gamma"], 1.0, -2.0)
        with pytest.raises(DomainError):
            eval_deviance(DEVIANCES["simplex"], 1.0, 0.5)  # support is open

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_zero_on_diagonal_and_positive_off(self, name):
        dev = DEVIANCES[name]
        rng = np.random.default_rng(11)
        mus = dev.omega.grid(20, 1e-4, span=6.0)
        for mu in mus:
            assert eval_deviance(dev, float(mu), float(mu)) == 0.0
        for _ in range(100):
            mu = float(rng.choice(mus))
            y = float(rng.choice(dev.support.grid(50, 1e-4, span=6.0)))
            if y != mu:
                assert eval_deviance(dev, y, mu) > 0.0

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_axioms_checker_passes(self, name):
        assert check_unit_deviance(DEVIANCES[name], np.random.default_rng(5)) == []


class TestUnitVariance:
    def test_normal(self):
        assert unit_variance(DEVIANCES["normal"], 5.0) == 1.0

    def test_gamma_against_fd_oracle(self):
        # analytic V(mu) = mu^2, cross-checked on the pure FD path
        assert unit_variance(DEVIANCES["gamma"], 2.0) == pytest.approx(4.0, rel=1e-12)
        fd_only = strip_analytic(DEVIANCES["gamma"])
        assert unit_variance(fd_only, 2.0) == pytest.approx(4.0, rel=1e-5)

    def test_von_mises(self):
        assert unit_variance(DEVIANCES["vonmises"], 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_simplex_fd(self):
        # no analytic derivatives registered: exercises the FD stencil
        assert unit_variance(DEVIANCES["simplex"], 0.5) == pytest.approx(0.015625, rel=1e-5)

    def test_rejects_non_regular(self):
        irregular = replace(DEVIANCES["normal"], regular=False)
        with pytest.raises(DomainError):
            unit_variance(irregular, 0.0)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_matches_registered_variance_function(self, name):
        V = VARIANCE_FUNCTIONS[name]
        for mu in DEVIANCES[name].omega.grid(7, 1e-3, span=4.0):
            assert unit_variance(DEVIANCES[name], float(mu)) == pytest.approx(
                V(float(mu)), rel=1e-5
            )


class TestSecondDerivativeIdentity:
    def test_normal(self):
        assert second_derivative_identity(DEVIANCES["normal"], 0.0) == (2.0, 2.0, -2.0)

    def test_gamma_fd_oracle(self):
        dyy, dmm, dym = second_derivative_identity(strip_analytic(DEVIANCES["gamma"]), 1.0)
        assert dyy == pytest.approx(2.0, rel=1e-5)
        assert dmm == pytest.approx(2.0, rel=1e-5)
        assert dym == pytest.approx(-2.0, rel=1e-5)

    def test_simplex_common_value(self):
        # common diagonal value 2/V(0.5) = 2/0.015625 = 128
        dyy, dmm, dym = second_derivative_identity(DEVIANCES["simplex"], 0.5)
        for value, sign in ((dyy, 1), (dmm, 1), (dym, -1)):
            assert value == pytest.approx(sign * 128.0, rel=1e-5)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_identity_on_grid(self, name):
        # d_yy = d_mumu = -d_ymu within 1e-5 relative on 20 interior points
        dev = DEVIANCES[name]
        for mu in dev.omega.grid(20, 1e-3, span=5.0):
            dyy, dmm, dym = second_derivative_identity(dev, float(mu))
            scale = abs(dmm)
            assert abs(dyy - dmm) <= 1e-5 * scale
            assert abs(dym + dmm) <= 1e-5 * scale

    @pytest.mark.parametrize("name", ["normal", "gamma", "vonmises", "inverse_gaussian"])
    def test_identity_survives_fd_path(self, name):
        dev = strip_analytic(DEVIANCES[name])
        for mu in dev.omega.grid(8, 1e-3, span=4.0):
            dyy, dmm, dym = second_derivative_identity(dev, float(mu))
            scale = abs(dmm)
            assert abs(dyy - dmm) <= 1e-5 * scale
            assert abs(dym + dmm) <= 1e-5 * scale

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_fd_curvature_is_two_over_variance(self, name):
        # with V stripped, all three finite differences of d give 2/V(mu)
        dev, V = strip_analytic(DEVIANCES[name]), VARIANCE_FUNCTIONS[name]
        for mu in dev.omega.grid(20, 1e-3, span=5.0):
            curving = 2.0 / V(float(mu))
            dyy, dmm, dym = second_derivative_identity(dev, float(mu))
            for value in (dyy, dmm, -dym):
                assert value == pytest.approx(curving, rel=1e-9)


class TestTransformDeviance:
    def test_identity_map_is_noop(self):
        dev = DEVIANCES["normal"]
        same = transform_deviance(dev, lambda y: y, lambda z: z, lambda y: 1.0)
        for y, mu in [(0.3, -1.2), (2.0, 2.0), (-4.0, 1.0)]:
            assert same.fn(y, mu) == dev.fn(y, mu)

    def test_gamma_log_transform_closed_form(self):
        # d_f(z; xi) = 2{e^(z-xi) - (z-xi) - 1}, checked pointwise
        dev = transform_deviance(
            DEVIANCES["gamma"], math.log, math.exp, lambda y: 1.0 / y, name="gamma-log"
        )
        for z, xi in [(1.0, 0.0), (0.2, -0.7), (-1.0, 0.5)]:
            expected = 2.0 * (math.exp(z - xi) - (z - xi) - 1.0)
            assert dev.fn(z, xi) == pytest.approx(expected, rel=1e-12)
        assert not dev.support.finite

    def test_variance_transforms_to_one(self):
        # V(mu) = mu^2 with f = log gives V_f(xi) = 1
        dev = transform_deviance(DEVIANCES["gamma"], math.log, math.exp, lambda y: 1.0 / y)
        for xi in (-1.0, 0.0, 0.7):
            assert unit_variance(dev, xi) == pytest.approx(1.0, rel=1e-5)

    def test_rejects_non_monotone(self):
        with pytest.raises(DomainError):
            transform_deviance(DEVIANCES["normal"], math.sin, math.asin, math.cos)

    def test_round_trip(self):
        dev = DEVIANCES["gamma"]
        forward = transform_deviance(dev, math.log, math.exp, lambda y: 1.0 / y)
        back = transform_deviance(forward, math.exp, math.log, math.exp)
        for y, mu in [(0.5, 1.5), (2.0, 0.7), (3.0, 3.0)]:
            assert abs(back.fn(y, mu) - dev.fn(y, mu)) < 1e-12


class TestVarianceStabilizingTransform:
    def test_constant_variance_is_identity(self):
        assert variance_stabilizing_transform(VARIANCE_FUNCTIONS["normal"], 0.0, 3.0) == pytest.approx(3.0, rel=1e-12)

    def test_poisson_square_root(self):
        # closed form 2 sqrt(y): f(4) - f(1) with y* = 1 gives 2(2 - 1) = 2
        value = variance_stabilizing_transform(VARIANCE_FUNCTIONS["poisson"], 1.0, 4.0)
        assert value == pytest.approx(2.0, rel=1e-10)

    def test_gamma_log(self):
        value = variance_stabilizing_transform(VARIANCE_FUNCTIONS["gamma"], 1.0, math.e)
        assert value == pytest.approx(1.0, rel=1e-10)

    def test_transformed_deviance_has_unit_variance(self):
        from dispmodels.deviance import VarianceFunction

        dev = transform_deviance(
            DEVIANCES["inverse_gaussian"],
            lambda y: variance_stabilizing_transform(VARIANCE_FUNCTIONS["inverse_gaussian"], 1.0, y),
            None,
            lambda y: y**-1.5,
        )
        # V_f = V(y) * (V(y)^-1/2)^2 = 1; check via the formula rather than
        # inverting the integral numerically
        V = VARIANCE_FUNCTIONS["inverse_gaussian"]
        for y in (0.5, 1.0, 2.0):
            assert V(y) * (y**-1.5) ** 2 == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("y,exact", [(1e-7, -2.0 * (1e-7**-0.5 - 1.0)), (1e8, 2.0 * (1.0 - 1e-4))])
    def test_inverse_gaussian_over_many_decades(self, y, exact):
        # integral_1^y v^(-3/2) dv = 2 (1 - y^(-1/2))
        value = variance_stabilizing_transform(VARIANCE_FUNCTIONS["inverse_gaussian"], 1.0, y)
        assert value == pytest.approx(exact, rel=1e-10)

    def test_vanishing_variance_fails(self):
        from dispmodels.deviance import VarianceFunction
        from dispmodels.support import RealInterval

        bad = VarianceFunction("touches-zero", RealInterval(-2.0, 2.0), lambda mu: mu**2)
        with pytest.raises(NumericalError):
            variance_stabilizing_transform(bad, -1.0, 1.0)


class TestLocalNormalBehavior:
    @pytest.mark.parametrize(
        "name,mu0", [("gamma", 1.3), ("simplex", 0.4), ("vonmises", 2.0), ("inverse_gaussian", 1.1)]
    )
    def test_quadratic_approximation_ratio(self, name, mu0):
        # d(mu0 + x d; mu0 + m d) ~ d^2 (x - m)^2 / V(mu0) with o(d^2) error
        dev = DEVIANCES[name]
        V = unit_variance(dev, mu0)
        x, m = 0.6, -0.4
        errors = []
        for delta in (1e-1, 1e-2, 1e-3):
            value = eval_deviance(dev, mu0 + x * delta, mu0 + m * delta)
            quadratic = delta**2 * (x - m) ** 2 / V
            errors.append(abs(value / quadratic - 1.0))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-2


def test_registry_lookup():
    assert get_deviance("gamma").name == "gamma"
    with pytest.raises(DomainError):
        get_deviance("nosuch")


# the four EDM entries are derived from edm.FAMILIES; compare them with the
# closed forms written out here
CLOSED_DEVIANCES = {
    "normal": lambda y, mu: (y - mu) ** 2,
    "gamma": lambda y, mu: 2.0 * (y / mu - math.log(y / mu) - 1.0),
    "poisson": lambda y, mu: 2.0 * ((y * math.log(y / mu) if y > 0 else 0.0) - y + mu),
    "inverse_gaussian": lambda y, mu: (y - mu) ** 2 / (mu**2 * y),
}
CLOSED_VARIANCES = {
    "normal": lambda mu: 1.0,
    "gamma": lambda mu: mu**2,
    "poisson": lambda mu: mu,
    "inverse_gaussian": lambda mu: mu**3,
}


@pytest.mark.parametrize("name", sorted(CLOSED_DEVIANCES))
def test_derived_edm_entries_match_closed_forms(name):
    dev, V = DEVIANCES[name], VARIANCE_FUNCTIONS[name]
    mus = dev.omega.grid(15, 1e-3, span=6.0)
    ys = np.concatenate([dev.support.grid(23, 1e-3, span=6.0), [0.0] if name == "poisson" else []])
    for mu in mus.tolist():
        assert V(mu) == pytest.approx(CLOSED_VARIANCES[name](mu), rel=1e-14, abs=0.0)
        for y in ys.tolist():
            expected = CLOSED_DEVIANCES[name](y, mu)
            assert eval_deviance(dev, y, mu) == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_registry_order_and_names():
    assert list(DEVIANCES) == ALL_NAMES
    assert list(VARIANCE_FUNCTIONS) == ALL_NAMES
    assert all(DEVIANCES[name].name == name for name in ALL_NAMES)


def _array_scalar_parity(dev, ys, mus):
    """eval_deviance on broadcast arrays against the pointwise loop, to 1e-14."""
    y_grid, mu_grid = np.meshgrid(ys, mus)
    values = eval_deviance(dev, y_grid, mu_grid)
    assert isinstance(values, np.ndarray) and values.dtype == float
    expected = [[eval_deviance(dev, y, mu) for y in ys.tolist()] for mu in mus.tolist()]
    np.testing.assert_allclose(values, expected, rtol=1e-14, atol=0.0)
    # a float mu against an array of y, the shape of one pivotal-check call
    mu = float(mus[len(mus) // 2])
    np.testing.assert_allclose(
        eval_deviance(dev, ys, mu), [eval_deviance(dev, y, mu) for y in ys.tolist()], rtol=1e-14, atol=0.0
    )


class TestArrayDeviance:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_builtin_parity(self, name):
        dev = DEVIANCES[name]
        mus = dev.omega.grid(9, 1e-3, span=5.0)
        ys = np.concatenate([dev.support.grid(13, 1e-3, span=5.0), mus[:3]])
        if name == "poisson":
            ys = np.append(ys, 0.0)
        _array_scalar_parity(dev, ys, mus)

    def test_yoke_parity(self):
        from dispmodels.pdm import YokeSpec, yoke_to_deviance
        from dispmodels.support import RealInterval

        dev = yoke_to_deviance(
            YokeSpec(fn=lambda y, th: -((y - th) ** 2) / 2.0, domain=RealInterval(), name="halfquad")
        )
        _array_scalar_parity(dev, np.array([-1.5, 0.0, 0.4, 2.0]), np.array([-1.0, 0.4, 1.3]))

    def test_transformed_parity(self):
        dev = transform_deviance(DEVIANCES["gamma"], math.log, math.exp, lambda y: 1.0 / y)
        _array_scalar_parity(dev, np.linspace(-2.0, 2.0, 9), np.array([-1.0, 0.0, 0.7]))

    def test_cf_parity(self):
        from dispmodels.cf_construct import cf_unit_deviance, get_cf

        dev = cf_unit_deviance(get_cf("gauss"))
        _array_scalar_parity(dev, np.linspace(-3.0, 3.0, 13), np.array([-1.0, 0.0, 2.5]))

    def test_array_domain_errors(self):
        with pytest.raises(DomainError):
            eval_deviance(DEVIANCES["gamma"], np.array([1.0, -1.0]), 1.0)
        with pytest.raises(DomainError):
            eval_deviance(DEVIANCES["gamma"], 1.0, np.array([1.0, 0.0]))

    def test_array_non_finite_value_is_a_numerical_error(self):
        dev = replace(DEVIANCES["normal"], fn=lambda y, mu: np.where(y > mu, np.inf, (y - mu) ** 2))
        with pytest.raises(NumericalError):
            eval_deviance(dev, np.array([2.0, 0.0]), 1.0)


@pytest.mark.parametrize("name", [n for n in ALL_NAMES if DEVIANCES[n].variance is not None])
def test_identity_is_two_over_registered_variance(name):
    dev = DEVIANCES[name]
    for mu in dev.omega.grid(7, 1e-3, span=4.0).tolist():
        curving = 2.0 / dev.variance(mu)
        assert second_derivative_identity(dev, mu) == (curving, curving, -curving)
        assert unit_variance(dev, mu) == dev.variance(mu)
