"""Independent reference values for every benchmark op, with tolerances.

Nothing here calls into ``dispmodels``: each value comes from a closed
form, a scipy routine or a direct numpy computation.  The one exception
is the set of regression guards for Tweedie p > 2, where no cheap
independent route exists: those values were recorded from the library at
the commit that introduced the benchmark (``golden.json``, written by
``record_golden.py``) and are reported as guards, not oracles.

Every function here runs outside the timed region.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import optimize, special, stats

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# --- tolerances, one per op kind ---------------------------------------
# GLM coefficients: the library stops at a 1e-8 relative step, so its beta
# sits well inside 1e-6 of the converged optimum.
FIT_BETA_RTOL = 1e-6
# deviance, moment tau and MLE tau at a beta that close to the optimum
FIT_SCALAR_RTOL = 1e-6
# closed-form densities: only rounding separates the two routes
CLOSED_FORM_RTOL = 1e-9
# compound Poisson-gamma series (library stops at 1e-13 relative terms)
SERIES_RTOL = 1e-8
# cdfs obtained by adaptive quadrature (scipy's default epsabs is 1.5e-8;
# the CLI table accumulates one quadrature per row)
QUAD_CDF_ATOL = 2e-7
# saddlepoint density of the gamma family is exact up to Stirling's factor
SADDLE_RTOL = 1e-9
# renormalized saddlepoint: exact gamma density up to the quadrature error
RENORM_RTOL = 1e-7
# Lugannani-Rice for gamma tails: |LR - F| <= LR_ATOL_PER_TAU * tau_eff,
# with tau_eff = tau for one observation and tau / n for the mean of n.
# On a 60 x 15 x 10 grid of y in [0.2, 4], mu in [0.5, 2], tau in
# [0.05, 0.5] the largest error is 9.5e-4 * tau (2.2e-4 * tau / 5 for the
# mean of 5); the bound leaves a factor of 2.
LR_ATOL_PER_TAU = 2e-3
# ... except next to the mean, where the library misses that bound (known
# defect "lr-near-mean": failures seen for 1e-6 < |y/mu - 1| < 5.5e-5, up
# to 0.078 off for the mean of 5 at tau = 0.05); there a failure is the
# defect only inside this band and within this much of the exact cdf
LR_NEAR_MEAN = 1e-4
LR_NEAR_MEAN_ATOL = 0.1
# PDM densities: quadrature normalizer (library gate 1e-6)
PDM_RTOL = 1e-6
# regression guards against values recorded at the benchmark's first commit
GUARD_RTOL = 1e-8
GUARD_CDF_ATOL = 2e-7
# cf construction: the direct-sum residual must match the reported one
CF_RESIDUAL_MAX = 1e-3
CF_RESIDUAL_AGREE_ATOL = 1e-9


def within_rel(value, expected, rtol: float, what: str):
    """None when ``value`` is within ``rtol`` of ``expected``, else why not."""
    value = np.asarray(value, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if value.shape != expected.shape:
        return f"{what}: shape {value.shape} != {expected.shape}"
    if not np.all(np.isfinite(value)):
        return f"{what}: not finite: {value}"
    gap = np.abs(value - expected) / np.maximum(np.abs(expected), 1e-300)
    worst = float(np.max(gap)) if gap.size else 0.0
    if worst > rtol:
        return f"{what}: relative gap {worst:.3g} > {rtol:g} (got {value}, want {expected})"
    return None


def within_abs(value: float, expected: float, atol: float, what: str):
    if not math.isfinite(value) or abs(value - expected) > atol:
        return f"{what}: |{value!r} - {expected!r}| > {atol:g}"
    return None


# --- GLM -----------------------------------------------------------------

def variance(family: str, mu: np.ndarray) -> np.ndarray:
    if family == "normal":
        return np.ones_like(mu)
    if family == "poisson":
        return mu
    if family == "binomial":
        return mu * (1.0 - mu)
    if family == "gamma":
        return mu**2
    if family.startswith("tweedie:"):
        return mu ** float(family.split(":", 1)[1])
    raise ValueError(family)


def unit_deviances(family: str, y: np.ndarray, mu: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        if family == "normal":
            return (y - mu) ** 2
        if family == "poisson":
            ylogy = np.where(y > 0, y * np.log(np.where(y > 0, y, 1.0) / mu), 0.0)
            return 2.0 * (ylogy - y + mu)
        if family == "binomial":
            a = np.where(y > 0, y * np.log(np.where(y > 0, y, 1.0) / mu), 0.0)
            b = np.where(y < 1, (1 - y) * np.log(np.where(y < 1, 1 - y, 1.0) / (1 - mu)), 0.0)
            return 2.0 * (a + b)
        if family == "gamma":
            return 2.0 * (y / mu - np.log(y / mu) - 1.0)
        if family.startswith("tweedie:"):
            p = float(family.split(":", 1)[1])
            saturated = np.maximum(y, 0.0) ** (2 - p) / ((1 - p) * (2 - p))
            return 2.0 * (saturated - y * mu ** (1 - p) / (1 - p) + mu ** (2 - p) / (2 - p))
    raise ValueError(family)


LINK_INVERSE = {
    "log": np.exp,
    "logit": special.expit,
    "identity": lambda eta: eta,
}
LINK_DERIVATIVE = {  # d eta / d mu
    "log": lambda mu: 1.0 / mu,
    "logit": lambda mu: 1.0 / (mu * (1.0 - mu)),
    "identity": np.ones_like,
}


def irls(X: np.ndarray, y: np.ndarray, family: str, link: str, tol: float = 1e-13, max_iter: int = 200):
    """Plain vectorized IRLS for a GLM; returns (beta, mu, deviance)."""
    beta = np.zeros(X.shape[1])
    if link == "log":
        beta[0] = math.log(max(float(np.mean(y)), 1e-3))
    for _ in range(max_iter):
        eta = X @ beta
        mu = LINK_INVERSE[link](eta)
        g = LINK_DERIVATIVE[link](mu)
        w = 1.0 / (variance(family, mu) * g**2)
        z = eta + (y - mu) * g
        sw = np.sqrt(w)
        new = np.linalg.lstsq(X * sw[:, None], z * sw, rcond=None)[0]
        step = float(np.max(np.abs(new - beta)))
        beta = new
        if step < tol * (1.0 + float(np.max(np.abs(beta)))):
            break
    else:
        raise RuntimeError("oracle IRLS did not converge")
    mu = LINK_INVERSE[link](X @ beta)
    return beta, mu, float(math.fsum(unit_deviances(family, y, mu)))


def pearson_tau(family: str, y: np.ndarray, mu: np.ndarray, n_params: int) -> float:
    return float(np.sum((y - mu) ** 2 / variance(family, mu)) / (len(y) - n_params))


def gamma_tau_mle(deviance: float, n: int) -> float:
    """Gamma dispersion MLE: the root of n [log nu - psi(nu)] = D / 2, tau = 1/nu."""
    target = deviance / 2.0
    nu = optimize.brentq(
        lambda nu: n * (math.log(nu) - special.digamma(nu)) - target, 1e-8, 1e8, xtol=1e-15, rtol=1e-15
    )
    return 1.0 / nu


def exp_decay_fit(x: np.ndarray, y: np.ndarray, beta0) -> np.ndarray:
    """Least squares for y = b1 exp(-b2 x), with the analytic Jacobian."""

    def resid(b):
        return b[0] * np.exp(-b[1] * x) - y

    def jac(b):
        e = np.exp(-b[1] * x)
        return np.column_stack([e, -b[0] * x * e])

    res = optimize.least_squares(resid, beta0, jac=jac, xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return res.x


# --- densities and cdfs ----------------------------------------------------

def gsh_density(y: float, theta: float, tau: float) -> float:
    """NEF-GHS density of the generalized secant hyperbolic EDM.

    With lambda = 1/tau, Y = tau X where X has base density
    2^(lambda-2) |Gamma(lambda/2 + i x/2)|^2 / (pi Gamma(lambda)), tilted by
    exp(theta x + lambda log cos theta).
    """
    lam = 1.0 / tau
    log_base = (
        (lam - 2.0) * math.log(2.0)
        - math.log(math.pi)
        - special.gammaln(lam)
        + 2.0 * special.loggamma(0.5 * lam + 0.5j * y / tau).real
        - math.log(tau)
    )
    return math.exp((y * theta + math.log(math.cos(theta))) / tau + log_base)


def gsh_defect_factor(y: float, tau: float) -> float:
    """Library gsh density over the true one at the benchmark's first commit:
    the series normalizer leaves out the j = 0 factor 1 / (1 + y^2) and the
    constant Gamma(1/(2 tau))^2 / pi (exact to about 1e-14)."""
    return (1.0 + y * y) * math.pi / math.gamma(0.5 / tau) ** 2


def compound_poisson_gamma(p: float, mu: float, tau: float):
    rate = mu ** (2.0 - p) / (tau * (2.0 - p))
    shape = (2.0 - p) / (p - 1.0)
    scale = tau * (p - 1.0) * mu ** (p - 1.0)
    return rate, shape, scale


def _poisson_terms(rate: float):
    """Jump counts n >= 1 carrying all but ~1e-17 of the Poisson mass."""
    hi = int(rate + 12.0 * math.sqrt(rate) + 40.0)
    n = np.arange(1, hi + 1, dtype=float)
    log_w = n * math.log(rate) - rate - special.gammaln(n + 1.0)
    return n, log_w


def tweedie_cpg_density(p: float, y: float, mu: float, tau: float) -> float:
    """1 < p < 2 density by direct summation over the Poisson jump count."""
    rate, shape, scale = compound_poisson_gamma(p, mu, tau)
    if y == 0.0:
        return math.exp(-rate)
    n, log_w = _poisson_terms(rate)
    a = n * shape
    log_g = (a - 1.0) * math.log(y) - y / scale - special.gammaln(a) - a * math.log(scale)
    return float(np.exp(special.logsumexp(log_w + log_g)))


def tweedie_cpg_cdf(p: float, y: float, mu: float, tau: float) -> float:
    rate, shape, scale = compound_poisson_gamma(p, mu, tau)
    if y < 0.0:
        return 0.0
    n, log_w = _poisson_terms(rate)
    tail = float(np.sum(np.exp(log_w) * special.gammainc(n * shape, y / scale))) if y > 0 else 0.0
    return math.exp(-rate) + tail


def gamma_stirling_factor(tau: float) -> float:
    """Ratio of the gamma saddlepoint density to the exact density (exact)."""
    nu = 1.0 / tau
    return math.exp(special.gammaln(nu) + nu - (nu - 0.5) * math.log(nu) - 0.5 * math.log(2 * math.pi))


def gamma_pdf(y: float, mu: float, tau: float) -> float:
    return float(stats.gamma.pdf(y, a=1.0 / tau, scale=mu * tau))


def gamma_cdf(y: float, mu: float, tau: float, n: int = 1) -> float:
    """Exact cdf of the mean of n iid gamma(mean mu, dispersion tau) draws."""
    return float(special.gammainc(n / tau, y * n / (mu * tau)))


def vonmises_density(y: float, mu: float, tau: float) -> float:
    return float(stats.vonmises.pdf(y, 1.0 / tau, loc=mu))


def simplex_density(y: float, mu: float, tau: float) -> float:
    d = (y - mu) ** 2 / (y * (1 - y) * mu**2 * (1 - mu) ** 2)
    return math.exp(-d / (2.0 * tau)) / math.sqrt(2.0 * math.pi * tau * (y * (1.0 - y)) ** 3)


# --- regression guards -------------------------------------------------------

def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)
