"""Exponential-family (non)linear regression fitted by IRLS.

The model couples an EDM response with a systematic component
``g(mu_i) = eta_i = f(x_i; beta)`` for a monotone twice-differentiable
link g and a (possibly nonlinear) predictor f.  Fisher scoring iterates

    beta <- beta + (Xt' W Xt)^-1 Xt' W (z - eta)

with local model matrix ``Xt = d eta / d beta``, weights
``w_i = V(mu_i)^-1 (d mu_i / d eta_i)^2`` and working response
``z_i = eta_i + (y_i - mu_i) d eta_i / d mu_i``; for a linear predictor
this is exactly the classic IRLS update.  The dispersion tau never enters
the update, so the coefficient path is identical whatever tau ends up
being (the orthogonality of beta and tau at the algorithmic level).

Every per-observation quantity (the response check, variance function,
deviance, Pearson and profile sums) is one array call into ``edm`` per
iteration, so an iteration makes O(1) library calls whatever n is.  The
response is checked once, on entry, and each mean once, by the step
control; the IRLS loop then evaluates the formulas of ``edm``.  The
family's callables see whole arrays, and a family given by ``b`` alone (a
JSON config) is evaluated by array code in ``edm``; its deviance entries
on the mean domain's boundary or next to the diagonal go to one batched
quadrature.  A predictor that gives a
non-finite mean (a nonlinear expression evaluated outside its domain
yields ``nan``) is handled like a mean outside the mean domain: the step
is halved, or ``DomainError`` is raised at the starting coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import edm
from ._numdiff import _bracketed_newton
from .edm import EdmFamily, _deviance, _variance
from .errors import ConvergenceError, DomainError, NumericalError, lookup

__all__ = [
    "Link",
    "LINKS",
    "get_link",
    "Predictor",
    "linear_predictor",
    "predictor_from_function",
    "RegressionModel",
    "FitResult",
    "fit",
    "total_deviance",
    "estimate_tau_mle",
    "estimate_tau_moment",
]


@dataclass(frozen=True)
class Link:
    """A named monotone link with inverse and derivative d eta / d mu."""

    name: str
    fn: Callable[[float], float]
    inverse: Callable[[float], float]
    derivative: Callable[[float], float]


def _expit(eta):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-eta))


LINKS: dict[str, Link] = {
    "identity": Link("identity", lambda mu: mu, lambda eta: eta, lambda mu: np.ones_like(np.asarray(mu, dtype=float))),
    "log": Link("log", np.log, np.exp, lambda mu: 1.0 / mu),
    "logit": Link(
        "logit",
        lambda mu: np.log(mu / (1.0 - mu)),
        _expit,
        lambda mu: 1.0 / (mu * (1.0 - mu)),
    ),
    "inverse": Link("inverse", lambda mu: 1.0 / mu, lambda eta: 1.0 / eta, lambda mu: -1.0 / mu**2),
    "sqrt": Link("sqrt", np.sqrt, lambda eta: eta**2, lambda mu: 0.5 / np.sqrt(mu)),
}


def get_link(name: str) -> Link:
    return lookup(LINKS, name, "link")


@dataclass(frozen=True)
class Predictor:
    """Systematic component eta = f(X, beta) with its Jacobian policy.

    ``jacobian`` returns the n x p local model matrix d eta / d beta; when
    absent it is taken by forward differences with step
    ``1e-7 (1 + |beta_j|)``.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    n_params: int
    jacobian: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    linear: bool = False

    def eta(self, X: np.ndarray, beta: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(X, beta), dtype=float)

    def local_matrix(self, X: np.ndarray, beta: np.ndarray) -> np.ndarray:
        if self.jacobian is not None:
            return np.asarray(self.jacobian(X, beta), dtype=float)
        base = self.eta(X, beta)
        cols = []
        for j in range(self.n_params):
            step = 1e-7 * (1.0 + abs(beta[j]))
            bumped = beta.copy()
            bumped[j] += step
            cols.append((self.eta(X, bumped) - base) / step)
        return np.column_stack(cols)


def linear_predictor(n_params: int) -> Predictor:
    """eta = X beta for an n x p design matrix X (the GLM case)."""
    return Predictor(
        fn=lambda X, beta: X @ beta,
        n_params=n_params,
        jacobian=lambda X, beta: np.asarray(X, dtype=float),
        linear=True,
    )


def predictor_from_function(fn, n_params: int) -> Predictor:
    return Predictor(fn=fn, n_params=n_params)


@dataclass(frozen=True)
class RegressionModel:
    family: EdmFamily
    link: Link
    predictor: Predictor

    @property
    def n_params(self) -> int:
        return self.predictor.n_params


@dataclass(frozen=True)
class FitResult:
    beta: np.ndarray
    tau: float
    tau_method: str
    mu: np.ndarray
    eta: np.ndarray
    deviance: float
    fisher_information: np.ndarray
    iterations: int
    converged: bool
    score_norm: float

    @property
    def standard_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(np.linalg.inv(self.fisher_information)))


def total_deviance(model: RegressionModel, y: np.ndarray, mu: np.ndarray) -> float:
    """Sum of unit deviances ``sum_i d(y_i; mu_i)``, pairwise: for nonnegative terms within
    about 1e-15 of the exact ``math.fsum``, which takes up to a millisecond at n = 10^4."""
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if y.shape != mu.shape:
        raise DomainError("y and mu must have the same length")
    return float(np.sum(edm.edm_deviance(model.family, y, mu)))


def _initial_mu(model: RegressionModel, y: np.ndarray) -> np.ndarray:
    dom = model.family.mean_domain
    mu0 = np.asarray(y, dtype=float).copy()
    if model.family.support.lattice and not math.isfinite(model.family.support.upper):
        # counts: shift off the boundary so log-type links are finite
        mu0 = mu0 + 0.5
    elif dom.lower == 0.0 and dom.upper == 1.0:
        mu0 = np.clip(mu0, 0.01, 0.99)
    else:
        mu0 = dom.clip_inward(mu0, 1e-3)
    return mu0


def _mu_valid(model: RegressionModel, mu: np.ndarray) -> bool:
    # nan and infinite means fall outside every interval (infinite ends are open)
    return bool(model.family.mean_domain.contains(mu).all())


def _weighted_solve(local: np.ndarray, w: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Solve the weighted least-squares step with one SVD-based ``lstsq``.

    Rank is decided by a 1e-10 relative threshold on its singular values;
    a deficient or non-finite local model matrix is a model error, not a
    numerical one.
    """
    sw = np.sqrt(w)
    A = local * sw[:, None]
    rhs = target * sw
    if not np.all(np.isfinite(A)):
        raise DomainError("local model matrix is not finite at the current coefficients")
    solution, _, _, singular = np.linalg.lstsq(A, rhs, rcond=None)
    if singular[0] == 0.0 or singular[-1] < 1e-10 * singular[0]:
        raise DomainError("local model matrix is rank deficient at the current coefficients")
    return solution


_IRLS_ITERATIONS, _IRLS_TOL, _IRLS_HALVINGS = 100, 1e-8, 20


def fit(
    model: RegressionModel,
    X: np.ndarray,
    y: np.ndarray,
    beta0: Optional[np.ndarray] = None,
    tau_method: str = "moment",
) -> FitResult:
    """Fit by iteratively re-weighted least squares.

    Converges when ``max|beta_new - beta| < _IRLS_TOL (1 + max|beta|)``
    within ``_IRLS_ITERATIONS`` iterations, else ``converged`` is False.
    Steps that push any mean outside its domain or increase the deviance are
    halved, up to ``_IRLS_HALVINGS`` times; exhausted halvings raise.  The
    coefficient iterates never involve tau.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n = len(y)
    p = model.n_params
    if X.shape[0] != n:
        raise DomainError(f"X has {X.shape[0]} rows but y has {n} entries")
    if n <= p:
        raise DomainError(f"need more observations than parameters (n={n}, p={p})")
    model.family.support.require(y, "response")

    if beta0 is None:
        if not model.predictor.linear:
            raise DomainError("nonlinear predictors require an explicit beta0")
        mu0 = _initial_mu(model, y)
        eta0 = np.asarray(model.link.fn(mu0), dtype=float)
        beta = np.linalg.lstsq(X, eta0, rcond=None)[0]
    else:
        beta = np.asarray(beta0, dtype=float).copy()
        if beta.shape != (p,):
            raise DomainError(f"beta0 must have length {p}")

    def state(b):
        eta = model.predictor.eta(X, b)
        mu = np.asarray(model.link.inverse(eta), dtype=float)
        return eta, mu

    def weights(b, mu):
        """d eta / d mu, the IRLS weights 1/(V g'^2) and the local model matrix at (b, mu)."""
        g_prime = np.asarray(model.link.derivative(mu), dtype=float)
        w = 1.0 / (_variance(model.family, mu) * g_prime**2)
        return g_prime, w, model.predictor.local_matrix(X, b)

    eta, mu = state(beta)
    if not _mu_valid(model, mu):
        raise DomainError("initial coefficients give means outside the mean domain")
    deviance = float(np.sum(_deviance(model.family, y, mu)))  # total_deviance at checked y and mu

    converged = False
    iteration = 0
    for iteration in range(1, _IRLS_ITERATIONS + 1):
        g_prime, w, local = weights(beta, mu)
        # z - eta = (y - mu) * d eta / d mu
        offset = (y - mu) * g_prime
        step = _weighted_solve(local, w, offset)

        scale = 1.0
        for _ in range(_IRLS_HALVINGS + 1):
            candidate = beta + scale * step
            eta_new, mu_new = state(candidate)
            if _mu_valid(model, mu_new):
                deviance_new = float(np.sum(_deviance(model.family, y, mu_new)))
                if deviance_new <= deviance + 1e-12 * (1.0 + abs(deviance)):
                    break
            scale *= 0.5
        else:
            raise ConvergenceError("IRLS diverged: step halving exhausted without a deviance decrease")

        delta = float(np.max(np.abs(candidate - beta)))
        beta, eta, mu, deviance = candidate, eta_new, mu_new, deviance_new
        if delta < _IRLS_TOL * (1.0 + float(np.max(np.abs(beta)))):
            converged = True
            break

    # diagnostics at the solution; the tau estimators read the fit before tau is known
    g_prime, w, local = weights(beta, mu)
    score = local.T @ (w * (y - mu) * g_prime)
    shell = FitResult(
        beta=beta,
        tau=math.nan,
        tau_method=tau_method,
        mu=mu,
        eta=eta,
        deviance=deviance,
        fisher_information=np.full((p, p), math.nan),
        iterations=iteration,
        converged=converged,
        score_norm=float(np.max(np.abs(score))) if len(score) else 0.0,
    )
    if tau_method == "moment":
        tau = estimate_tau_moment(model, shell, y)
    elif tau_method == "mle":
        tau = estimate_tau_mle(model, shell, y)
    else:
        raise DomainError(f"unknown tau method {tau_method!r} (use 'moment' or 'mle')")
    tau = max(tau, 1e-300)
    return replace(shell, tau=tau, fisher_information=(local.T * w) @ local / tau)


def estimate_tau_moment(model: RegressionModel, fit_result: FitResult, y: np.ndarray) -> float:
    """Pearson-type moment estimate ``(n - p)^-1 sum (y - mu)^2 / V(mu)``."""
    y = np.asarray(y, dtype=float)
    mu = fit_result.mu
    n, p = len(y), model.n_params
    if n <= p:
        raise DomainError("moment estimator needs n > p")
    V = edm.variance_function(model.family, mu)
    return float(np.sum((y - mu) ** 2 / V) / (n - p))


def estimate_tau_mle(model: RegressionModel, fit_result: FitResult, y: np.ndarray) -> float:
    """Dispersion MLE from the profile equation.

    Solves ``tau^2 sum_i dc(y_i; tau)/dtau = sum_i l(y_i; y_i) - D/2``
    by safeguarded Newton on log tau, or uses the registered closed form
    (normal and inverse Gaussian: D/n).  ``fam.dc_dtau`` is called on the
    whole response array.  Raises ``ConvergenceError`` when no iterate
    meets the tolerance within 200 iterations.
    """
    fam = model.family
    y = np.asarray(y, dtype=float)
    n = len(y)
    deviance = fit_result.deviance
    if fam.tau_mle_closed_form is not None:
        return float(fam.tau_mle_closed_form(y, deviance, n))
    if fam.exact_normalizer is None or fam.dc_dtau is None:
        raise DomainError(f"family {fam.name} has no exact normalizer derivative; use the moment estimator")
    saturated = float(np.sum(edm.saturated_loglik_kernel(fam, y)))
    target = saturated - deviance / 2.0
    tol = 1e-12 * (1.0 + abs(target))

    def objective(log_tau: float) -> float:
        tau = math.exp(log_tau)
        return tau**2 * float(np.sum(fam.dc_dtau(y, tau))) - target

    lo, hi = math.log(1e-10), math.log(1e10)
    f_lo, f_hi = objective(lo), objective(hi)
    if f_lo == 0.0:
        return 1e-10
    if f_hi == 0.0:
        return 1e10
    if f_lo * f_hi > 0:
        raise NumericalError("dispersion MLE root not bracketed in [1e-10, 1e10]")

    def slope(x: float) -> float:
        h = 1e-6
        return (objective(x + h) - objective(x - h)) / (2 * h)

    return math.exp(
        _bracketed_newton(objective, slope, lo, hi, tol, increasing=f_hi > 0,
                          what="dispersion MLE in x = log tau")
    )
