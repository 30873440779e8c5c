"""IRLS regression: the array path of the EDM layer, GLM oracles, tau estimators."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq, least_squares
from scipy.special import digamma

from dispmodels import edm, regression
from dispmodels.edm import (
    edm_deviance,
    family_from_config,
    get_family,
    inverse_mean,
    saturated_loglik_kernel,
    variance_function,
)
from dispmodels.errors import ConvergenceError, DomainError
from dispmodels.expressions import compile_expression
from dispmodels.regression import (
    RegressionModel,
    estimate_tau_mle,
    fit,
    get_link,
    linear_predictor,
    predictor_from_function,
)
from dispmodels.tweedie import tweedie_family

# ----------------------------------------------------------------------
# array / float parity of the EDM functions IRLS calls
# ----------------------------------------------------------------------

POSITIVE_MU = [0.3, 1.0, 2.5, 7.0]
POSITIVE_Y = [1.2, 1.0, 0.4, 7.0]  # y == mu at the second and last entries
COUNT_MU = [0.5, 1.0, 2.2, 7.0]
COUNT_Y = [0.0, 1.0, 3.0, 7.0]  # y = 0 and y == mu included

# name -> (family, interior means, (y, mu) pairs for the deviance)
PARITY_CASES = {
    "normal": (get_family("normal"), [-2.5, -0.3, 0.7, 4.0], ([-1.0, -0.3, 3.0, 4.0], [0.5, -0.3, 0.7, 4.0])),
    "gamma": (get_family("gamma"), POSITIVE_MU, (POSITIVE_Y, POSITIVE_MU)),
    "poisson": (get_family("poisson"), COUNT_MU, (COUNT_Y, COUNT_MU)),
    "inverse_gaussian": (get_family("inverse_gaussian"), POSITIVE_MU, (POSITIVE_Y, POSITIVE_MU)),
    "binomial": (get_family("binomial"), [0.05, 0.3, 0.5, 0.9], ([0.0, 1.0, 1.0, 0.0, 0.3], [0.2, 0.5, 0.9, 0.7, 0.3])),
    "negative_binomial": (get_family("negative_binomial"), COUNT_MU, (COUNT_Y, COUNT_MU)),
    "gsh": (get_family("gsh"), [-2.0, -0.4, 0.6, 3.0], ([-1.0, -0.4, 2.0, 3.0], [0.5, -0.4, -1.0, 3.0])),
    "tweedie(1.5)": (tweedie_family(1.5).to_edm(), POSITIVE_MU, (COUNT_Y, COUNT_MU)),
    "tweedie(3)": (tweedie_family(3.0).to_edm(), POSITIVE_MU, (POSITIVE_Y, POSITIVE_MU)),
    # no analytic inverse, b'' or deviance: the generator-only path
    "config": (
        family_from_config(
            {
                "name": "user_gamma",
                "b": "-log(0 - theta)",
                "theta_domain": [None, 0],
                "mean_domain": [0, None],
                "support": [0, None],
            }
        ),
        [0.5, 1.0, 2.2],
        ([2.0, 1.0, 0.7], [1.0, 1.0, 2.2]),
    ),
    # b = exp alone: numpy's exp and math.exp differ in the last bit of some values, which the
    # finite differences would amplify if a float call did not take the array path; y = 0 and
    # |y/mu - 1| = 5e-9 go to quadrature
    "poisson config": (
        family_from_config(
            {"name": "user_poisson", "b": "exp(theta)", "mean_domain": [0, None], "support": [0, None, "["]}
        ),
        COUNT_MU,
        (COUNT_Y + [2.2 * (1.0 + 5e-9)], COUNT_MU + [2.2]),
    ),
}


def _assert_parity(array_value, scalar_values):
    assert isinstance(array_value, np.ndarray) and array_value.dtype == float
    np.testing.assert_allclose(array_value, scalar_values, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("name", list(PARITY_CASES))
class TestArrayScalarParity:
    def test_inverse_mean(self, name):
        fam, mus, _ = PARITY_CASES[name]
        _assert_parity(inverse_mean(fam, np.array(mus)), [inverse_mean(fam, m) for m in mus])

    def test_variance_function(self, name):
        fam, mus, _ = PARITY_CASES[name]
        _assert_parity(variance_function(fam, np.array(mus)), [variance_function(fam, m) for m in mus])

    def test_edm_deviance(self, name):
        fam, _, (ys, mus) = PARITY_CASES[name]
        values = edm_deviance(fam, np.array(ys), np.array(mus))
        _assert_parity(values, [edm_deviance(fam, y, m) for y, m in zip(ys, mus)])
        assert all(v == 0.0 for v, y, m in zip(values, ys, mus) if y == m)

    def test_saturated_loglik_kernel(self, name):
        fam, mus, _ = PARITY_CASES[name]
        _assert_parity(saturated_loglik_kernel(fam, np.array(mus)), [saturated_loglik_kernel(fam, m) for m in mus])


def test_deviance_broadcasts_a_float_mean():
    fam = get_family("gamma")
    ys = np.array([0.5, 2.0, 3.0])
    _assert_parity(edm_deviance(fam, ys, 2.0), [edm_deviance(fam, y, 2.0) for y in ys])


def test_constant_variance_function_has_the_array_shape():
    V = variance_function(get_family("normal"), np.array([1.0, -2.0, 3.0]))
    assert V.shape == (3,) and np.all(V == 1.0)


def test_array_domain_error_names_the_offending_value():
    with pytest.raises(DomainError, match="-0.25"):
        edm_deviance(get_family("gamma"), np.array([1.0, -0.25, 2.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(DomainError, match="nan"):
        inverse_mean(get_family("poisson"), np.array([1.0, math.nan]))


# ----------------------------------------------------------------------
# GLM oracles
# ----------------------------------------------------------------------


def _glm(family, link, p):
    return RegressionModel(get_family(family), get_link(link), linear_predictor(p))


def _design(rng, n):
    return np.column_stack([np.ones(n), rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)])


def test_out_of_support_response_raises_naming_the_value():
    y = np.array([1.0, 2.0, -3.5, 0.0, 4.0])
    X = np.ones((5, 1))
    with pytest.raises(DomainError, match=r"response -3\.5"):
        fit(_glm("poisson", "log", 1), X, y)


def test_intercept_only_poisson_is_log_mean():
    rng = np.random.default_rng(3)
    y = rng.poisson(4.2, 500).astype(float)
    res = fit(_glm("poisson", "log", 1), np.ones((500, 1)), y)
    assert res.converged
    assert res.beta[0] == pytest.approx(math.log(y.mean()), rel=1e-12)


def test_normal_identity_matches_lstsq():
    rng = np.random.default_rng(4)
    X = _design(rng, 300)
    y = X @ np.array([1.5, -2.0, 0.5]) + rng.normal(0, 0.3, 300)
    res = fit(_glm("normal", "identity", 3), X, y)
    beta, rss, *_ = np.linalg.lstsq(X, y, rcond=None)
    np.testing.assert_allclose(res.beta, beta, rtol=1e-10)
    assert res.deviance == pytest.approx(float(rss[0]), rel=1e-10)
    assert res.tau == pytest.approx(float(rss[0]) / (300 - 3), rel=1e-10)


@pytest.mark.parametrize(
    "family,link,beta_true",
    [("poisson", "log", [0.5, 0.8, -0.4]), ("gamma", "log", [0.2, 0.5, -0.3]), ("binomial", "logit", [-0.3, 1.2, 0.7])],
)
def test_score_vanishes_at_convergence(family, link, beta_true):
    rng = np.random.default_rng(5)
    X = _design(rng, 2000)
    eta = X @ np.array(beta_true)
    y = {
        "poisson": lambda: rng.poisson(np.exp(eta)).astype(float),
        "gamma": lambda: rng.gamma(2.0, np.exp(eta) / 2.0),
        "binomial": lambda: (rng.random(2000) < 1.0 / (1.0 + np.exp(-eta))).astype(float),
    }[family]()
    res = fit(_glm(family, link, 3), X, y)
    assert res.converged
    # the score X' W (y - mu) g'(mu), recomputed independently of fit
    mu = res.mu
    g_prime = {"log": 1.0 / mu, "logit": 1.0 / (mu * (1.0 - mu))}[link]
    V = {"poisson": mu, "gamma": mu**2, "binomial": mu * (1.0 - mu)}[family]
    score = X.T @ ((y - mu) * g_prime / (V * g_prime**2))
    assert np.max(np.abs(score)) < 1e-6
    assert res.score_norm < 1e-6


def test_gamma_tau_mle_matches_digamma_root():
    rng = np.random.default_rng(6)
    n = 1500
    X = _design(rng, n)
    y = rng.gamma(2.5, np.exp(X @ np.array([0.2, 0.5, -0.3])) / 2.5)
    res = fit(_glm("gamma", "log", 3), X, y, tau_method="mle")
    # profile equation of the gamma shape nu = 1/tau: n [log nu - psi(nu)] = D/2
    nu = brentq(lambda v: n * (math.log(v) - digamma(v)) - res.deviance / 2.0, 1e-3, 1e6, xtol=1e-14)
    assert res.tau == pytest.approx(1.0 / nu, rel=1e-9)


def test_tweedie_two_tau_mle_is_the_gamma_mle():
    # the Tweedie view at p = 2 is the gamma family renamed, dc/dtau included
    rng = np.random.default_rng(6)
    X = _design(rng, 400)
    y = rng.gamma(2.5, np.exp(X @ np.array([0.2, 0.5, -0.3])) / 2.5)
    taus = []
    for family in (get_family("gamma"), tweedie_family(2.0).to_edm()):
        model = RegressionModel(family, get_link("log"), linear_predictor(3))
        taus.append(estimate_tau_mle(model, fit(model, X, y), y))
    assert taus[0] == taus[1]


def test_tau_mle_raises_when_budget_runs_out():
    # dc/dtau jumps in sign at tau = 1 and the jump straddles the target, so
    # the bracket closes on the jump and no iterate meets the tolerance
    normal = get_family("normal")
    jumping = replace(
        normal,
        name="jump",
        tau_mle_closed_form=None,
        dc_dtau=lambda y, tau: np.full(np.shape(y), 1.0 if tau >= 1.0 else -1.0),
    )
    model = RegressionModel(jumping, get_link("identity"), linear_predictor(1))
    y = np.array([0.4, 0.6, 0.5, 0.45, 0.55, 0.5, 0.52, 0.48])
    with pytest.raises(ConvergenceError, match=r"200 iterations.*residual"):
        fit(model, np.ones((len(y), 1)), y, tau_method="mle")


def test_tau_mle_uses_the_whole_response_array():
    gamma = get_family("gamma")
    seen = []

    def dc_dtau(y, tau):
        seen.append(np.shape(y))
        return gamma.dc_dtau(y, tau)

    model = RegressionModel(replace(gamma, dc_dtau=dc_dtau), get_link("log"), linear_predictor(1))
    y = np.array([0.5, 1.5, 2.0, 0.7, 1.1])
    shell = fit(RegressionModel(gamma, get_link("log"), linear_predictor(1)), np.ones((5, 1)), y)
    estimate_tau_mle(model, shell, y)
    assert seen and set(seen) == {(5,)}


# ----------------------------------------------------------------------
# nonlinear predictors through compiled expressions
# ----------------------------------------------------------------------


def _expression_predictor(expr, n_params):
    fn = compile_expression(expr, ["x"] + [f"b{j + 1}" for j in range(n_params)])
    return predictor_from_function(lambda X, beta: fn(X[:, 0], *beta), n_params)


def test_exponential_decay_recovers_beta_from_noiseless_data():
    x = np.linspace(0.0, 3.0, 200)
    y = 2.0 * np.exp(-0.7 * x)
    model = RegressionModel(get_family("normal"), get_link("identity"), _expression_predictor("b1*exp(-b2*x)", 2))
    res = fit(model, x[:, None], y, beta0=np.array([1.0, 0.5]))
    assert res.converged
    np.testing.assert_allclose(res.beta, [2.0, 0.7], rtol=1e-8)
    ref = least_squares(lambda b: b[0] * np.exp(-b[1] * x) - y, [1.0, 0.5], xtol=1e-15, ftol=1e-15)
    np.testing.assert_allclose(res.beta, ref.x, rtol=1e-8)


def test_nan_mean_from_expression_is_a_domain_error():
    # sqrt(b1 - x) is nan for x > b1: a mean outside the domain, not a crash
    x = np.linspace(0.0, 3.0, 50)
    model = RegressionModel(get_family("gamma"), get_link("identity"), _expression_predictor("sqrt(b1 - x)", 1))
    with pytest.raises(DomainError, match="outside the mean domain"):
        fit(model, x[:, None], np.full(50, 1.0), beta0=np.array([1.0]))


def test_non_finite_local_matrix_is_a_domain_error():
    # at b1 = 0 the mean sqrt(-b1) + b2*x is finite, but the forward
    # difference in b1 steps to sqrt(-1e-7) = nan
    x = np.linspace(1.0, 2.0, 20)
    model = RegressionModel(
        get_family("normal"), get_link("identity"), _expression_predictor("sqrt(-b1) + b2*x", 2)
    )
    with pytest.raises(DomainError, match="local model matrix is not finite"):
        fit(model, x[:, None], 1.5 * x, beta0=np.array([0.0, 1.0]))


def test_irls_makes_o1_edm_calls_per_iteration(monkeypatch):
    # the IRLS loop calls the edm formulas it imports; the dispersion estimate, the public functions
    calls = []
    for module, name in ((regression, "_variance"), (regression, "_deviance"), (edm, "variance_function"),
                         (edm, "edm_deviance")):
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    rng = np.random.default_rng(7)
    X = _design(rng, 5000)
    y = rng.poisson(np.exp(X @ np.array([0.5, 0.8, -0.4]))).astype(float)
    res = fit(_glm("poisson", "log", 3), X, y)
    # one variance and one deviance call per iteration, plus a few per fit
    assert len(calls) <= 3 * res.iterations + 4


# ----------------------------------------------------------------------
# refusals, step halving, closed-form dispersion and the deviance sum
# ----------------------------------------------------------------------


def _decay_model():
    return RegressionModel(get_family("normal"), get_link("identity"), _expression_predictor("b1*exp(-b2*x)", 2))


@pytest.mark.parametrize("model, X, y, kwargs, message", [
    (_glm("normal", "identity", 1), np.ones((4, 1)), np.arange(5.0), {}, "X has 4 rows but y has 5 entries"),
    (_glm("normal", "identity", 3), np.ones((3, 3)), np.arange(3.0), {}, r"n=3, p=3"),
    (_decay_model(), np.ones((5, 1)), np.arange(5.0), {}, "nonlinear predictors require an explicit beta0"),
    (_glm("normal", "identity", 2), np.ones((5, 2)), np.arange(5.0), {"beta0": np.zeros(3)},
     "beta0 must have length 2"),
    (_glm("normal", "identity", 1), np.ones((5, 1)), np.arange(5.0), {"tau_method": "pearson"},
     "unknown tau method 'pearson'"),
    (_glm("normal", "identity", 2), np.ones((5, 2)), np.arange(5.0), {}, "rank deficient"),
], ids=["rows", "n_le_p", "nonlinear_without_beta0", "beta0_length", "tau_method", "rank_deficient"])
def test_fit_refuses_a_malformed_model_or_design(model, X, y, kwargs, message):
    with pytest.raises(DomainError, match=message):
        fit(model, X, y, **kwargs)


def test_step_halving_reaches_the_fit_of_a_near_start(monkeypatch):
    # from b2 = 5 the first full Gauss-Newton steps raise the deviance and are halved; every tried
    # step evaluates the deviance once, so the halvings are the calls beyond one a step and the start
    calls = []
    deviance = regression._deviance

    def counted(*args):
        calls.append(1)
        return deviance(*args)

    monkeypatch.setattr(regression, "_deviance", counted)
    x = np.linspace(0.0, 3.0, 200)
    y = 2.0 * np.exp(-0.7 * x)
    far = fit(_decay_model(), x[:, None], y, beta0=np.array([1.0, 5.0]))
    assert far.converged and len(calls) - 1 - far.iterations > 0
    near = fit(_decay_model(), x[:, None], y, beta0=np.array([1.0, 0.5]))
    np.testing.assert_allclose(far.beta, near.beta, rtol=1e-6)


def test_step_halving_runs_out_on_a_wrong_sign_jacobian():
    # every step of -J points uphill, so no halving lowers the deviance
    wrong = regression.Predictor(fn=lambda X, beta: X @ beta, n_params=2,
                                 jacobian=lambda X, beta: -np.asarray(X, dtype=float), linear=True)
    X = np.column_stack([np.ones(50), np.linspace(0.0, 1.0, 50)])
    model = RegressionModel(get_family("normal"), get_link("identity"), wrong)
    with pytest.raises(ConvergenceError, match="step halving exhausted"):
        fit(model, X, 1.0 + 2.0 * X[:, 1], beta0=np.zeros(2))


@pytest.mark.parametrize("family", ["normal", "inverse_gaussian"])
def test_closed_form_tau_mle_is_the_mean_deviance(family):
    rng = np.random.default_rng(12)
    X = _design(rng, 300)
    mu = np.exp(X @ np.array([0.3, 0.4, -0.2]))
    y = rng.normal(mu, 0.3) if family == "normal" else rng.wald(mu, 4.0)
    res = fit(_glm(family, "log", 3), X, y, tau_method="mle")
    assert res.tau == res.deviance / 300


def test_total_deviance_is_the_exact_sum_of_the_unit_deviances():
    rng = np.random.default_rng(13)
    model = _glm("gamma", "log", 1)
    mu = rng.uniform(0.5, 3.0, 10**4)
    y = rng.gamma(2.0, mu / 2.0)
    exact = math.fsum(edm_deviance(model.family, y, mu).tolist())
    assert regression.total_deviance(model, y, mu) == pytest.approx(exact, rel=1e-15)
    with pytest.raises(DomainError, match="same length"):
        regression.total_deviance(model, y, mu[:-1])
