"""Self-test suites behind the ``check`` CLI subcommand.

Each check returns (name, passed, detail); families are checked for the
unit-deviance axioms, the diagonal second-derivative identities and the
curvature against the variance function (both by finite differences of d
itself, ignoring a registered V), deviance quadrature against closed
forms, and density normalization.  The "all" scope adds the PDM normalizer
mu-independence, the pivotal Monte Carlo (fixed seed), and the
characteristic-function probes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import cf_construct, edm, pdm
from ._numdiff import _support_integral
from .deviance import (
    DEVIANCES,
    VARIANCE_FUNCTIONS,
    check_unit_deviance,
    second_derivative_identity,
    unit_variance,
)
from .errors import DispersionModelError

__all__ = ["CheckResult", "run_checks", "available_scopes", "DEFAULT_SEED"]

DEFAULT_SEED = 0x5EED

CheckResult = tuple[str, bool, str]

def _check_axioms(name: str, seed: int) -> CheckResult:
    failures = check_unit_deviance(DEVIANCES[name], np.random.default_rng(seed))
    return (f"{name}: unit deviance axioms", not failures, failures[0] if failures else "d(mu;mu)=0, d>0 off diagonal")


def _check_triple_identity(name: str, seed: int) -> CheckResult:
    dev = replace(DEVIANCES[name], variance=None)
    dyy, dmm, dym = second_derivative_identity(dev, dev.omega.grid(20, 1e-3, span=5.0))
    worst = float(np.max(np.maximum(abs(dyy - dmm), abs(dym + dmm)) / np.maximum(abs(dmm), 1e-12)))
    ok = worst < 1e-5
    return (f"{name}: diagonal second-derivative identities", ok, f"max relative spread {worst:.2e}")


def _check_variance_consistency(name: str, seed: int) -> CheckResult:
    dev, V = replace(DEVIANCES[name], variance=None), VARIANCE_FUNCTIONS[name]
    grid = dev.omega.grid(10, 1e-3, span=5.0)
    v = V(grid)
    worst = float(np.max(abs(unit_variance(dev, grid) - v) / np.maximum(v, 1e-12)))
    ok = worst < 1e-5
    return (f"{name}: 2/d_mumu vs variance function", ok, f"max relative gap {worst:.2e}")


def _check_deviance_quadrature(name: str, seed: int) -> CheckResult:
    if name not in edm.FAMILIES:
        return (f"{name}: deviance quadrature", True, "no EDM counterpart; skipped")
    fam = edm.FAMILIES[name]
    # the 12 (mu, y) pairs of 24 uniforms drawn in turn
    mu, y = 0.2 + 2.5 * np.random.default_rng(seed).random((12, 2)).T
    mu, y = fam.mean_domain.clip_inward(mu, 1e-3), fam.support.clip_inward(y, 1e-3)
    closed = edm.edm_deviance(fam, y, mu)
    worst = float(np.max(np.abs(closed - edm.deviance_by_quadrature(fam, y, mu)) / np.maximum(1.0, np.abs(closed))))
    return (f"{name}: deviance quadrature vs closed form", worst < 1e-8, f"max gap {worst:.2e}")


def _check_normalization(name: str, seed: int) -> CheckResult:
    if name not in edm.FAMILIES:
        return (f"{name}: density normalization", True, "not applicable; skipped")
    fam = edm.FAMILIES[name]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(3):
        theta = float(fam.theta_domain.clip_inward(-0.7 - rng.random(), 1e-3))
        if fam.theta_domain.contains(0.5) and rng.random() < 0.5:
            theta = 0.5 * rng.random()
        tau = 1.0 if fam.dispersion_domain.width == 0.0 else 0.5 + rng.random()
        total = _density_mass(fam, theta, tau)
        worst = max(worst, abs(total - 1.0))
    return (f"{name}: density integrates/sums to 1", worst < 1e-6, f"max |mass - 1| = {worst:.2e}")


def _density_mass(fam, theta: float, tau: float) -> float:
    mass, _ = _support_integral(lambda x: np.exp(edm.log_density(fam, x, theta, tau)), fam.support,
                                edm.mean_value(fam, theta))
    return mass


def _check_pdm_mu_independence(model_name: str, seed: int) -> CheckResult:
    spec = pdm.get_pdm(model_name)
    worst = 0.0
    probes = spec.deviance.omega.grid(5, 1e-2, span=3.0)
    for tau in (0.1, 1.0):
        values = [
            pdm.pdm_normalizer(spec.deviance, spec.carrier, tau, float(mu))
            for mu in probes
        ]
        spread = (max(values) - min(values)) / max(abs(min(values)), 1e-300)
        worst = max(worst, spread)
    return (
        f"pdm {model_name}: normalizer mu-independence",
        worst < 1e-6,
        f"max relative spread {worst:.2e}",
    )


def _check_pivotal(model_name: str, mu_list, tau: float, seed: int) -> CheckResult:
    m = pdm._PIVOTAL_DRAWS
    report = pdm.pivotal_check(pdm.get_pdm(model_name), mu_list, tau, m=m, seed=seed)
    return (
        f"pdm {model_name}: pivotal KS (m={m})",
        report.passed(),
        f"min pairwise p-value {report.min_p_value:.4f}",
    )


def _check_cf(name: str, seed: int) -> CheckResult:
    try:
        cf_construct.validate_cf(cf_construct.CHARACTERISTIC_FUNCTIONS[name])
        return (f"cf {name}: characteristic-function probes", True, "phi(0)=1, symmetric, |phi|<1 off 0")
    except DispersionModelError as exc:
        return (f"cf {name}: characteristic-function probes", False, str(exc))


def family_checks(name: str, seed: int) -> list[CheckResult]:
    return [
        _check_axioms(name, seed),
        _check_triple_identity(name, seed),
        _check_variance_consistency(name, seed),
        _check_deviance_quadrature(name, seed),
        _check_normalization(name, seed),
    ]


def run_checks(scope: str = "all", seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run the invariant suite for one family or for everything."""
    if scope in DEVIANCES:
        return family_checks(scope, seed)
    if scope != "all":
        raise KeyError(scope)
    results: list[CheckResult] = []
    for name in DEVIANCES:
        results.extend(family_checks(name, seed))
    results.append(_check_pdm_mu_independence("vonmises", seed))
    results.append(_check_pdm_mu_independence("simplex", seed))
    results.append(_check_pivotal("vonmises", (0.0, 1.0, 3.0), 0.5, seed))
    results.append(_check_pivotal("simplex", (0.2, 0.5, 0.8), 1.0, seed))
    for cf_name in cf_construct.CHARACTERISTIC_FUNCTIONS:
        results.append(_check_cf(cf_name, seed))
    return results


def available_scopes() -> list[str]:
    return ["all", *DEVIANCES.keys()]
