"""Seeded job lists of the three benchmark workloads.

A workload is a fixed list of ops, each a call into ``dispmodels`` (the
public API, or ``cli.run(argv)`` for CLI-only paths) paired with a check
against an independent reference from ``oracles``.  Inputs come from a
numpy generator seeded by the benchmark's ``--seed``; the library sees only
the generated numbers.  Oracle values are computed while the job list is
built, so a check is a comparison and never runs inside a timed op.

Each builder takes the library its ops call as ``lib`` (see ``library``),
so that the same job list can run on the checkout's ``dispmodels`` and on
the frozen reference copy ``dispmodels_ref``.  The checks always use the
checkout's library.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np
from scipy import stats

import oracles

from dispmodels import cf_construct, cli
from dispmodels.errors import ConvergenceError

LIBRARY_MODULES = ("cf_construct", "cli", "edm", "pdm", "saddlepoint", "tweedie")


def library(package: str = "dispmodels") -> types.SimpleNamespace:
    """The modules of ``package`` that the ops call."""
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"{package}.{name}") for name in LIBRARY_MODULES})

# Defects present when the benchmark was written.  An op that names one of
# these still counts as failed when it misses its oracle or raises; the run
# stays ``correct`` only if the op's output is exactly what the defect gives
# (its ``defect_check`` passes), so a further regression still shows.
KNOWN_DEFECTS = {
    "cf-lambda": "solve_normalizer(gauss, tau=0.25, N=4096, lambda_reg=1e-8) raises "
    "ConvergenceError after 10^4 CG iterations (ROADMAP item 1)",
    "lr-near-mean": "lugannani_rice_cdf and sample_mean_cdf miss the Lugannani-Rice accuracy "
    "within about 5e-5 (relative) of the mean, where 1/r - 1/u cancels before the blend to its "
    "series limit takes over (ROADMAP item 3)",
    "gsh-normalizer": "the gsh density omits the j = 0 factor 1/(1 + y^2) and the "
    "Gamma(1/(2 tau))^2 / pi constant, so it does not integrate to 1",
}


@dataclass
class Op:
    """One call into the library plus the check of its output."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    guard: bool = False  # checked against recorded values, not an oracle
    known_defect: Optional[str] = None  # key into KNOWN_DEFECTS
    # passes (returns None) on the output or exception the known defect gives
    defect_check: Optional[Callable[[Any], Optional[str]]] = None


@dataclass
class Workload:
    name: str
    ops: list
    min_passes: int  # every run makes at least this many passes


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list, cli_module=cli) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_module.run(argv)
    return CliOutput(code, out.getvalue(), err.getvalue())


def _cli_ok(out: CliOutput) -> Optional[str]:
    if out.code != 0:
        return f"exit code {out.code}: {out.stderr.strip()[:200]}"
    return None


def strata(rng: np.random.Generator, n: int, lo: float, hi: float) -> list:
    """n stratified uniform draws on [lo, hi], in random order."""
    u = (np.arange(n) + rng.random(n)) / n
    return rng.permutation(lo + (hi - lo) * u).tolist()


def raises(*classes):
    """A defect check that passes when the op raised one of ``classes``."""
    def check(out):
        return None if isinstance(out, classes) else f"expected {classes[0].__name__}, got {out!r:.80}"

    return check


def _first_failure(*reasons) -> Optional[str]:
    return next((r for r in reasons if r), None)


# ----------------------------------------------------------------------
# glm
# ----------------------------------------------------------------------

GLM_N = 10_000
NONLINEAR_N = 2_000


def _write_csv(path: Path, columns: dict) -> None:
    names = list(columns)
    data = np.column_stack([columns[k] for k in names])
    np.savetxt(path, data, delimiter=",", header=",".join(names), comments="", fmt="%.17g")


def _fit_check(family, link, X, y, tau_kind=None):
    beta_ref, mu_ref, dev_ref = oracles.irls(X, y, family, link)
    tau_ref = None
    if tau_kind == "moment":
        tau_ref = oracles.pearson_tau(family, y, mu_ref, X.shape[1])
    elif tau_kind == "mle":
        tau_ref = oracles.gamma_tau_mle(dev_ref, len(y))

    def check(out: CliOutput):
        bad = _cli_ok(out)
        if bad:
            return bad
        res = json.loads(out.stdout)
        if not res["converged"]:
            return "fit did not converge"
        return _first_failure(
            oracles.within_rel(res["beta"], beta_ref, oracles.FIT_BETA_RTOL, "beta"),
            oracles.within_rel(res["deviance"], dev_ref, oracles.FIT_SCALAR_RTOL, "deviance"),
            tau_ref is not None
            and oracles.within_rel(res["tau"], tau_ref, oracles.FIT_SCALAR_RTOL, f"{tau_kind} tau"),
        )

    return check


def build_glm(seed: int, lib, models: dict, data_dir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    data_dir.mkdir(parents=True, exist_ok=True)
    x1 = rng.uniform(-1.0, 1.0, GLM_N)
    x2 = rng.uniform(-1.0, 1.0, GLM_N)
    X = np.column_stack([np.ones(GLM_N), x1, x2])

    def eta(beta):
        return X @ np.asarray(beta)

    y_pois = rng.poisson(np.exp(eta([0.5, 0.8, -0.4]))).astype(float)
    y_binom = (rng.random(GLM_N) < 1.0 / (1.0 + np.exp(-eta([-0.3, 1.2, 0.7])))).astype(float)
    mu_gamma = np.exp(eta([0.2, 0.5, -0.3]))
    y_gamma = rng.gamma(2.0, mu_gamma / 2.0)
    rate, shape, scale = oracles.compound_poisson_gamma(1.5, np.exp(eta([0.1, 0.6, -0.5])), 1.0)
    counts = rng.poisson(rate)
    y_tweedie = np.zeros(GLM_N)
    y_tweedie[counts > 0] = rng.gamma(shape * counts[counts > 0], scale[counts > 0])
    x_nl = rng.uniform(0.0, 3.0, NONLINEAR_N)
    y_nl = 2.0 * np.exp(-0.7 * x_nl) + rng.normal(0.0, 0.1, NONLINEAR_N)

    files = {"poisson": y_pois, "binomial": y_binom, "gamma": y_gamma, "tweedie": y_tweedie}
    for name, y in files.items():
        _write_csv(data_dir / f"{name}.csv", {"x1": x1, "x2": x2, "y": y})
    _write_csv(data_dir / "nonlinear.csv", {"x": x_nl, "y": y_nl})

    def fit_argv(name, family, link, *extra):
        return ["fit", "--data", str(data_dir / f"{name}.csv"), "--response", "y",
                "--family", family, "--link", link, *extra]

    linear = ["--formula", "x1+x2"]
    beta0 = [1.0, 0.5]
    beta_nl = oracles.exp_decay_fit(x_nl, y_nl, beta0)
    rss = float(np.sum((y_nl - beta_nl[0] * np.exp(-beta_nl[1] * x_nl)) ** 2))
    tau_nl = rss / (NONLINEAR_N - len(beta0))

    def check_nonlinear(out: CliOutput):
        bad = _cli_ok(out)
        if bad:
            return bad
        res = json.loads(out.stdout)
        if not res["converged"]:
            return "fit did not converge"
        return _first_failure(
            oracles.within_rel(res["beta"], beta_nl, oracles.FIT_BETA_RTOL, "beta"),
            oracles.within_rel(res["tau"], tau_nl, oracles.FIT_SCALAR_RTOL, "moment tau"),
        )

    specs = [
        ("fit poisson/log", fit_argv("poisson", "poisson", "log", *linear),
         _fit_check("poisson", "log", X, y_pois)),
        ("fit binomial/logit", fit_argv("binomial", "binomial", "logit", *linear),
         _fit_check("binomial", "logit", X, y_binom)),
        ("fit gamma/log moment", fit_argv("gamma", "gamma", "log", *linear),
         _fit_check("gamma", "log", X, y_gamma, tau_kind="moment")),
        ("fit gamma/log mle", fit_argv("gamma", "gamma", "log", *linear, "--tau-method", "mle"),
         _fit_check("gamma", "log", X, y_gamma, tau_kind="mle")),
        ("fit tweedie:1.5/log", fit_argv("tweedie", "tweedie:1.5", "log", *linear),
         _fit_check("tweedie:1.5", "log", X, y_tweedie, tau_kind="moment")),
        ("fit normal/identity nonlinear",
         fit_argv("nonlinear", "normal", "identity", "--predictor-expr", "b1*exp(-b2*x)",
                  "--n-params", "2", "--beta0", ",".join(map(repr, beta0))),
         check_nonlinear),
    ]
    ops = [Op(kind, (lambda argv=argv: run_cli(argv, lib.cli)), check) for kind, argv, check in specs]
    return Workload("glm", ops, min_passes=2)


# ----------------------------------------------------------------------
# evaluate
# ----------------------------------------------------------------------

# Regression-guard grid for Tweedie p > 2: fixed points, so that the values
# recorded in golden.json apply to every seed.
GUARD_P = (2.5, 3.5)
GUARD_MU = (0.7, 1.5)
GUARD_TAU = (0.25, 1.0, 2.0)
GUARD_Y = (0.12, 0.25, 0.5, 1.0, 2.0, 4.0)
# points of one cost (the mpmath rescan at p = 2.5, tau = 0.25, y = 0.12;
# the cost does not depend on mu), placed where p99 of the pass falls
GUARD_TAIL_MU = tuple(0.8 + 0.05 * k for k in range(12))
GUARD_CDF = (2.5, 1.5, 1.0, 1.0)  # (p, y, mu, tau)
GUARD_TABLE = ["tweedie", "--p", "2.5", "--mu", "1", "--tau", "1",
               "--y-min", "0.5", "--y-max", "3", "--y-step", "0.5"]


def guard_points():
    grid = [(p, y, mu, tau) for p in GUARD_P for mu in GUARD_MU for tau in GUARD_TAU for y in GUARD_Y]
    return grid + [(2.5, 0.12, mu, 0.25) for mu in GUARD_TAIL_MU]


def _value_check(expected: float, rtol: float, what: str):
    return lambda value: oracles.within_rel(value, expected, rtol, what)


def _abs_check(expected: float, atol: float, what: str):
    return lambda value: oracles.within_abs(value, expected, atol, what)


def _near_mean_defect(y: float, mu: float, expected: float):
    """The lr-near-mean defect: inside its band only, and still roughly the cdf."""
    def check(value):
        if abs(y / mu - 1.0) > oracles.LR_NEAR_MEAN:
            return f"y/mu - 1 = {y / mu - 1.0:.2e} is outside the near-mean band"
        return oracles.within_abs(value, expected, oracles.LR_NEAR_MEAN_ATOL, "near-mean LR cdf")

    return check


def _parse_table(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["y", "density", "cdf"]:
        raise ValueError(f"unexpected header {rows[0]}")
    return [tuple(float(v) for v in row) for row in rows[1:]]


def _table_check(expected_rows, density_rtol: float, cdf_atol: float):
    def check(out: CliOutput):
        bad = _cli_ok(out)
        if bad:
            return bad
        rows = _parse_table(out.stdout)
        if len(rows) != len(expected_rows):
            return f"{len(rows)} table rows, expected {len(expected_rows)}"
        for (y, dens, cdf), (y_ref, dens_ref, cdf_ref) in zip(rows, expected_rows):
            bad = _first_failure(
                oracles.within_abs(y, y_ref, 1e-12, "table y"),
                oracles.within_rel(dens, dens_ref, density_rtol, f"density at y={y}"),
                oracles.within_abs(cdf, cdf_ref, cdf_atol, f"cdf at y={y}"),
            )
            if bad:
                return bad
        return None

    return check


def build_evaluate(seed: int, lib, models: dict, data_dir: Path) -> Workload:
    edm, tweedie, saddlepoint, pdm = lib.edm, lib.tweedie, lib.saddlepoint, lib.pdm
    rng = np.random.default_rng(seed)
    fams = models["families"]
    golden = oracles.load_golden()
    ops = []

    def add(kind, call, check, **kw):
        ops.append(Op(kind, call, check, **kw))

    # closed-form EDM densities, 102 points each
    n = 102
    for y, mu, tau in zip(strata(rng, n, -3, 3), strata(rng, n, -1, 1), strata(rng, n, 0.3, 2)):
        add("density normal", lambda a=(fams["normal"], y, mu, tau): edm.density(*a),
            _value_check(stats.norm.pdf(y, mu, math.sqrt(tau)), oracles.CLOSED_FORM_RTOL, "density"))
    for y, mu, tau in zip(strata(rng, n, 0.05, 5), strata(rng, n, 0.5, 3), strata(rng, n, 0.1, 1)):
        add("density gamma", lambda a=(fams["gamma"], y, -1.0 / mu, tau): edm.density(*a),
            _value_check(oracles.gamma_pdf(y, mu, tau), oracles.CLOSED_FORM_RTOL, "density"))
    for k, mu in zip(rng.integers(0, 13, n).tolist(), strata(rng, n, 0.5, 6)):
        add("density poisson", lambda a=(fams["poisson"], float(k), math.log(mu), 1.0): edm.density(*a),
            _value_check(stats.poisson.pmf(k, mu), oracles.CLOSED_FORM_RTOL, "mass"))
    for y, mu, tau in zip(strata(rng, n, 0.05, 5), strata(rng, n, 0.5, 3), strata(rng, n, 0.1, 1)):
        add("density inverse_gaussian",
            lambda a=(fams["inverse_gaussian"], y, -0.5 / mu**2, tau): edm.density(*a),
            _value_check(stats.invgauss.pdf(y, mu * tau, scale=1.0 / tau),
                         oracles.CLOSED_FORM_RTOL, "density"))

    # gsh: series normalizer, checked against the NEF-GHS closed form; the
    # known defect must give exactly the closed form times its missing factor
    for y, theta, tau in zip(strata(rng, 40, -2.5, 2.5), strata(rng, 40, -0.6, 0.6), strata(rng, 40, 0.4, 1.3)):
        exact = oracles.gsh_density(y, theta, tau)
        add("density gsh", lambda a=(fams["gsh"], y, theta, tau): edm.density(*a),
            _value_check(exact, oracles.SERIES_RTOL, "density"),
            known_defect="gsh-normalizer",
            defect_check=_value_check(exact * oracles.gsh_defect_factor(y, tau), oracles.SERIES_RTOL,
                                      "defective density"))

    # Tweedie p = 1.5 against the compound Poisson-gamma sum
    for y, mu, tau in zip(strata(rng, 60, 0.05, 4), strata(rng, 60, 0.5, 2), strata(rng, 60, 0.3, 2)):
        add("tweedie_density p=1.5", lambda a=(1.5, y, mu, tau): tweedie.tweedie_density(*a),
            _value_check(oracles.tweedie_cpg_density(1.5, y, mu, tau), oracles.SERIES_RTOL, "density"))
    for y, mu, tau in zip(strata(rng, 20, 0.1, 4), strata(rng, 20, 0.5, 2), strata(rng, 20, 0.3, 2)):
        add("tweedie_cdf p=1.5", lambda a=(1.5, y, mu, tau): tweedie.tweedie_cdf(*a),
            _abs_check(oracles.tweedie_cpg_cdf(1.5, y, mu, tau), oracles.QUAD_CDF_ATOL, "cdf"))

    # Tweedie p > 2: regression guards at fixed points
    for point, value in zip(guard_points(), golden["density"]):
        add(f"tweedie_density p={point[0]:g}", lambda a=point: tweedie.tweedie_density(*a),
            _value_check(value, oracles.GUARD_RTOL, "density"), guard=True)
    add("tweedie_cdf p=2.5", lambda: tweedie.tweedie_cdf(*GUARD_CDF),
        _abs_check(golden["cdf"], oracles.GUARD_CDF_ATOL, "cdf"), guard=True)

    # saddlepoint family on gamma, where every approximation has an exact twin
    gamma = fams["gamma"]
    for y, mu, tau in zip(strata(rng, 235, 0.2, 4), strata(rng, 235, 0.5, 2), strata(rng, 235, 0.05, 0.5)):
        expected = oracles.gamma_pdf(y, mu, tau) * oracles.gamma_stirling_factor(tau)
        add("saddlepoint_density", lambda a=(gamma, y, -1.0 / mu, tau): saddlepoint.saddlepoint_density(*a).value,
            _value_check(expected, oracles.SADDLE_RTOL, "saddlepoint density"))
    # one fixed point next to the mean each, so that the lr-near-mean defect
    # shows on every seed and not only when a seeded point lands there
    lr_points = list(zip(strata(rng, 60, 0.2, 4), strata(rng, 60, 0.5, 2), strata(rng, 60, 0.05, 0.5)))
    for y, mu, tau in lr_points + [(1.0 + 1.4e-5, 1.0, 0.05)]:
        exact = oracles.gamma_cdf(y, mu, tau)
        add("lugannani_rice_cdf", lambda a=(gamma, y, -1.0 / mu, tau): saddlepoint.lugannani_rice_cdf(*a),
            _abs_check(exact, oracles.LR_ATOL_PER_TAU * tau, "LR cdf"),
            known_defect="lr-near-mean", defect_check=_near_mean_defect(y, mu, exact))
    mean_points = list(zip(strata(rng, 60, 0.3, 3), strata(rng, 60, 0.5, 2), strata(rng, 60, 0.05, 0.5)))
    for y, mu, tau in mean_points + [(1.0 + 1e-5, 1.0, 0.2)]:
        exact = oracles.gamma_cdf(y, mu, tau, n=5)
        add("sample_mean_cdf n=5", lambda a=(gamma, y, -1.0 / mu, tau, 5): saddlepoint.sample_mean_cdf(*a),
            _abs_check(exact, oracles.LR_ATOL_PER_TAU * tau / 5, "mean LR cdf"),
            known_defect="lr-near-mean", defect_check=_near_mean_defect(y, mu, exact))
    dev, var = models["gamma_deviance"], models["gamma_variance"]
    for y, mu, tau in zip(strata(rng, 20, 0.2, 4), strata(rng, 20, 0.5, 2), strata(rng, 20, 0.05, 0.5)):
        add("renormalized_saddlepoint",
            lambda a=(dev, var, y, mu, tau): saddlepoint.renormalized_saddlepoint(*a).value,
            _value_check(oracles.gamma_pdf(y, mu, tau), oracles.RENORM_RTOL, "renormalized density"))

    # PDM densities, the CLI ``pdm --y`` path: a fresh spec per call
    for y, mu, tau in zip(strata(rng, 30, 0.0, 2 * math.pi), strata(rng, 30, 0.0, 2 * math.pi), strata(rng, 30, 0.2, 2)):
        add("pdm_density vonmises", lambda a=(y, mu, tau): pdm.pdm_density(pdm.get_pdm("vonmises"), *a),
            _value_check(oracles.vonmises_density(y, mu, tau), oracles.PDM_RTOL, "density"))
    for y, mu, tau in zip(strata(rng, 30, 0.05, 0.95), strata(rng, 30, 0.1, 0.9), strata(rng, 30, 0.2, 2)):
        add("pdm_density simplex", lambda a=(y, mu, tau): pdm.pdm_density(pdm.get_pdm("simplex"), *a),
            _value_check(oracles.simplex_density(y, mu, tau), oracles.PDM_RTOL, "density"))

    # CLI Tweedie tables
    mu, tau = float(strata(rng, 1, 0.7, 1.5)[0]), float(strata(rng, 1, 0.5, 1.5)[0])
    argv = ["tweedie", "--p", "1.5", "--mu", repr(mu), "--tau", repr(tau),
            "--y-min", "0", "--y-max", "3", "--y-step", "0.5"]
    expected = [(y, oracles.tweedie_cpg_density(1.5, y, mu, tau), oracles.tweedie_cpg_cdf(1.5, y, mu, tau))
                for y in np.arange(0.0, 3.25, 0.5)]
    add("cli tweedie p=1.5", lambda argv=argv: run_cli(argv, lib.cli),
        _table_check(expected, oracles.SERIES_RTOL, oracles.QUAD_CDF_ATOL))
    add("cli tweedie p=2.5", lambda: run_cli(GUARD_TABLE, lib.cli),
        _table_check(golden["table"], oracles.GUARD_RTOL, oracles.GUARD_CDF_ATOL), guard=True)

    order = rng.permutation(len(ops))
    return Workload("evaluate", [ops[i] for i in order], min_passes=3)


# ----------------------------------------------------------------------
# construct
# ----------------------------------------------------------------------

def _solution_check(cf: cf_construct.CfSpec, N: int):
    def check(sol: cf_construct.GridSolution):
        if len(sol.grid) != N or np.any(sol.a_values < 0):
            return "grid size or sign of the solution is wrong"
        direct = cf_construct.convolution_residual(sol, cf)
        if sol.ill_posed or direct > oracles.CF_RESIDUAL_MAX:
            return f"interior residual {direct:.3g} > {oracles.CF_RESIDUAL_MAX:g}"
        return oracles.within_abs(sol.residual, direct, oracles.CF_RESIDUAL_AGREE_ATOL, "reported residual")

    return check


def _cf_cli_check(cf: cf_construct.CfSpec, tau: float, L: float):
    def check(out: CliOutput):
        bad = _cli_ok(out)
        if bad:
            return bad
        report = json.loads(out.stderr)
        rows = np.loadtxt(io.StringIO(out.stdout), delimiter=",", skiprows=1)
        sol = cf_construct.GridSolution(
            grid=rows[:, 0], a_values=rows[:, 1], tau=tau, residual=report["residual"],
            lambda_reg=report["lambda_reg"], edge_band=report["edge_band"],
            iterations=report["iterations"], ill_posed=report["ill_posed"],
        )
        return _solution_check(cf, report["N"])(sol)

    return check


def _check_cli_check(out: CliOutput) -> Optional[str]:
    lines = out.stdout.strip().splitlines()
    passed, total = lines[-1].split()[0].split("/")
    if out.code != 0 or passed != total or int(total) != len(lines) - 1:
        return f"exit code {out.code}, summary {lines[-1]!r}"
    return None


def build_construct(seed: int, lib, models: dict, data_dir: Path) -> Workload:
    """Fixed cases: the seed changes nothing here.  The gauss solve at tau
    near 0.25 is erratic in its inputs (tau = 0.24, 0.25, 0.26 take 4907,
    4015 and 1272 CG iterations; tau = 0.245 raises ConvergenceError), so a
    seeded tau or L would make the cost, or the outcome, depend on the seed."""
    cfs = models["cfs"]
    solve = lib.cf_construct.solve_normalizer
    L = 20.0
    ops = []
    solves = [
        ("gauss", 0.25, 2**10),
        ("gauss", 0.25, 2**12),
        ("laplace-cf", 0.5, 2**12),
        ("triangular-cf", 0.5, 2**12),
    ]
    for name, tau, N in solves:
        ops.append(Op(f"solve_normalizer {name} N={N}",
                      lambda a=(cfs[name], tau, L, N): solve(*a),
                      _solution_check(cfs[name], N)))
    ops.append(Op("solve_normalizer gauss N=4096 lambda=1e-8",
                  lambda: solve(cfs["gauss"], 0.25, L, 4096, lambda_reg=1e-8),
                  _solution_check(cfs["gauss"], 4096),
                  known_defect="cf-lambda", defect_check=raises(ConvergenceError)))
    ops.append(Op("cli cf-construct gauss",
                  lambda: run_cli(["cf-construct", "--cf", "gauss", "--tau", "0.5"], lib.cli),
                  _cf_cli_check(cfs["gauss"], 0.5, L)))
    ops.append(Op("cli check all", lambda: run_cli(["check", "--scope", "all"], lib.cli), _check_cli_check))
    return Workload("construct", ops, min_passes=2)


BUILDERS = {"glm": build_glm, "evaluate": build_evaluate, "construct": build_construct}


def build(name: str, seed: int, lib, models: dict, data_dir: Path) -> Workload:
    """The job list of workload ``name`` calling ``lib``; any integer seed is accepted."""
    return BUILDERS[name](seed % 2**64, lib, models, data_dir)
