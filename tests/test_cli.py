"""CLI through ``cli.run``: CSV input, predictors, exit codes and error prefixes."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import special

from dispmodels import cf_construct, cli, edm, pdm, regression, saddlepoint, tweedie
from dispmodels.deviance import DEVIANCES, eval_deviance
from dispmodels.errors import DomainError


def _write_csv(path, columns):
    names = list(columns)
    data = np.column_stack([columns[k] for k in names])
    np.savetxt(path, data, delimiter=",", header=",".join(names), comments="", fmt="%.17g")
    return str(path)


def _run(capsys, argv):
    code = cli.run(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def poisson_csv(tmp_path):
    rng = np.random.default_rng(11)
    x1, x2 = rng.uniform(-1, 1, 400), rng.uniform(-1, 1, 400)
    y = rng.poisson(np.exp(0.5 + 0.8 * x1 - 0.4 * x2)).astype(float)
    return _write_csv(tmp_path / "pois.csv", {"x1": x1, "x2": x2, "y": y}), x1, x2, y


def _fit_argv(path, *extra):
    return ["fit", "--data", path, "--response", "y", "--family", "poisson", "--link", "log", *extra]


def test_linear_fit_matches_the_library(capsys, poisson_csv):
    path, x1, x2, y = poisson_csv
    code, out, err = _run(capsys, _fit_argv(path, "--formula", "x1+x2"))
    assert code == 0 and err == ""
    res = json.loads(out)
    X = np.column_stack([np.ones(len(y)), x1, x2])
    model = regression.RegressionModel(
        edm.get_family("poisson"), regression.get_link("log"), regression.linear_predictor(3)
    )
    ref = regression.fit(model, X, y)
    assert res["converged"] is True
    assert res["terms"] == ["(intercept)", "x1", "x2"]
    np.testing.assert_allclose(res["beta"], ref.beta, rtol=1e-15)
    assert res["deviance"] == pytest.approx(ref.deviance, rel=1e-15)


def test_unconverged_fit_prints_the_result_and_exits_2(capsys, poisson_csv, monkeypatch):
    path = poisson_csv[0]
    real_fit = regression.fit

    def stopped_early(*args, **kwargs):
        res = real_fit(*args, **kwargs)
        return regression.FitResult(**{**res.__dict__, "converged": False, "iterations": 100})

    monkeypatch.setattr(regression, "fit", stopped_early)
    code, out, err = _run(capsys, _fit_argv(path, "--formula", "x1+x2"))
    assert code == 2
    assert json.loads(out)["converged"] is False
    assert err.startswith("ERROR:numerical:") and "did not converge in 100 iterations" in err


def test_predictor_expression_recovers_beta(capsys, tmp_path):
    x = np.linspace(0.0, 3.0, 300)
    path = _write_csv(tmp_path / "decay.csv", {"x": x, "y": 2.0 * np.exp(-0.7 * x)})
    argv = ["fit", "--data", path, "--response", "y", "--family", "normal", "--link", "identity",
            "--predictor-expr", "b1*exp(-b2*x)", "--n-params", "2", "--beta0", "1,0.5"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    res = json.loads(out)
    assert res["terms"] == ["b1", "b2"]
    np.testing.assert_allclose(res["beta"], [2.0, 0.7], rtol=1e-8)


def test_predictor_expression_outside_its_domain_is_a_domain_error(capsys, tmp_path):
    x = np.linspace(0.0, 3.0, 30)
    path = _write_csv(tmp_path / "bad.csv", {"x": x, "y": np.ones(30)})
    argv = ["fit", "--data", path, "--response", "y", "--family", "gamma", "--link", "identity",
            "--predictor-expr", "sqrt(b1 - x)", "--n-params", "1", "--beta0", "1"]
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("ERROR:domain:") and "outside the mean domain" in err


def test_non_numeric_csv_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "text.csv"
    path.write_text("x1,y\n0.5,1\nabc,2\n")
    code, _, err = _run(capsys, ["fit", "--data", str(path), "--response", "y", "--family", "poisson",
                                 "--link", "log", "--formula", "x1"])
    assert code == 1
    assert err.startswith("ERROR:domain:") and "not fully numeric" in err


def test_quoted_and_spaced_csv_fields(capsys, tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_text(' x1 , y\n"0.5", 1\n-0.5 ,2\n0.1,0\n0.9,3\n')
    code, out, _ = _run(capsys, ["fit", "--data", str(path), "--response", "y", "--family", "poisson",
                                 "--link", "log", "--formula", "x1"])
    assert code == 0
    assert json.loads(out)["converged"] is True


def test_usage_error_then_valid_command(capsys, poisson_csv):
    # the parser is built once per process: an error must leave no state behind
    code, out, err = _run(capsys, ["fit", "--data", poisson_csv[0], "--family", "poisson"])
    assert code == 1 and out == ""
    assert err.startswith("ERROR:usage:")
    code, out, err = _run(capsys, _fit_argv(poisson_csv[0], "--formula", "x1+x2"))
    assert code == 0 and err == ""
    assert json.loads(out)["converged"] is True


def test_cf_construct_prints_the_solution_and_its_residual(capsys):
    n = 2**10
    code, out, err = _run(capsys, ["cf-construct", "--cf", "gauss", "--tau", "0.5", "--N", str(n)])
    assert code == 0
    assert out.startswith("y,a\n")
    table = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1)
    assert table.shape == (n, 2)
    report = json.loads(err)
    assert report["ill_posed"] is False
    assert 0.0 < report["overshoot"] < 0.1  # the convolution's excess where a = 0
    sol = cf_construct.GridSolution(
        grid=table[:, 0], a_values=table[:, 1], tau=report["tau"], residual=report["residual"],
        lambda_reg=report["lambda_reg"], edge_band=report["edge_band"],
        iterations=report["iterations"], ill_posed=report["ill_posed"],
    )
    assert sol.passes == 0  # built without it, as a reader of the report may build it
    fresh = cf_construct.convolution_residual(sol, cf_construct.get_cf("gauss"))
    assert fresh == pytest.approx(report["residual"], abs=1e-6)
    direct = cf_construct.solve_normalizer(cf_construct.get_cf("gauss"), 0.5, 20.0, n)
    assert (report["iterations"], report["passes"]) == (direct.iterations, direct.passes)
    assert report["passes"] >= 2  # gauss binds part of the grid: the first pass's set does not hold
    # the kernel's plateau e^(-1/(2 tau)) and a's middle level in units of 1/(2 L c)
    assert report["plateau"] == pytest.approx(math.exp(-1.0), rel=1e-15)
    middle = float(np.mean(table[3 * n // 8 : 5 * n // 8, 1]))
    assert report["interior_level"] == pytest.approx(middle * 40.0 * report["plateau"], rel=1e-12)


@pytest.mark.parametrize("name", sorted(cf_construct.CHARACTERISTIC_FUNCTIONS))
def test_cf_construct_table_matches_the_csv_writer(capsys, name):
    # the table is written in one formatting pass; it is the csv.writer text of _fmt, byte for byte
    code, out, err = _run(capsys, ["cf-construct", "--cf", name, "--tau", "0.5", "--N", "1024"])
    assert code == 0
    sol = cf_construct.solve_normalizer(cf_construct.get_cf(name), 0.5, 20.0, 2**10)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["y", "a"])
    for y, a in zip(sol.grid, sol.a_values):
        writer.writerow([cli._fmt(y), cli._fmt(a)])
    assert out == buffer.getvalue()


def test_cf_construct_grid_size_not_a_power_of_two_is_a_domain_error(capsys):
    code, out, err = _run(capsys, ["cf-construct", "--cf", "gauss", "--tau", "0.5", "--N", "1000"])
    assert code == 1 and out == ""
    assert err.startswith("ERROR:domain:")


def test_cf_construct_refuses_a_cusped_lattice_cf(capsys):
    # exp(-|sin(t/2)|) written without abs: 2 pi-periodic, with a cusp where |phi| = 1
    expr = "exp(-sqrt((1-cos(t))/2))"
    with pytest.raises(DomainError, match="lattice"):
        cf_construct.get_cf(expr)
    code, out, err = _run(capsys, ["cf-construct", "--cf", expr, "--tau", "0.5"])
    assert code == 1 and out == ""
    assert err.startswith("ERROR:domain:") and "lattice" in err


def test_check_scope_passes_every_check(capsys):
    code, out, _ = _run(capsys, ["check", "--scope", "gamma"])
    assert code == 0
    lines = out.splitlines()
    assert lines and all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} checks passed"


def _json_out(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == "", err
    return json.loads(out)


RENORM_POISSON = ["approx", "--family", "poisson", "--method", "renorm", "--y", "3", "--theta", "0", "--tau"]


def test_renormalized_lattice_sum_at_large_dispersion(capsys):
    assert _json_out(capsys, [*RENORM_POISSON, "1e5"])["value"] == 0.0029992574786784705


def test_lattice_sum_that_cannot_converge_is_refused_before_summing(capsys):
    # at tau = 1e100 the term 10^7 points above the centre is 3e-4 of the centre's
    start = time.perf_counter()
    code, out, err = _run(capsys, [*RENORM_POISSON, "1e100"])
    assert code == 2 and out == "" and err.startswith("ERROR:numerical:lattice sum from 1")
    assert time.perf_counter() - start < 5.0


def test_lattice_sum_that_converges_late_is_started(capsys):
    # at tau = 1e6 the terms fall below 1e-14 of the total only after about 2e6 of them; the check
    # before summing lets the sum start, and the summand runs on blocks of terms
    start = time.perf_counter()
    value = _json_out(capsys, [*RENORM_POISSON, "1e6"])["value"]
    assert value == pytest.approx(0.0010554954929742138, rel=1e-10)
    assert time.perf_counter() - start < 5.0


def test_deviance_prints_the_library_value(capsys):
    code, out, err = _run(capsys, ["deviance", "--family", "gamma", "--y", "2", "--mu", "1"])
    assert code == 0 and err == ""
    assert float(out) == eval_deviance(DEVIANCES["gamma"], 2.0, 1.0)
    assert float(out) == pytest.approx(2.0 * (2.0 - math.log(2.0) - 1.0), rel=1e-15)


def test_density_by_mean_or_canonical_parameter(capsys):
    gamma = edm.get_family("gamma")
    expected = edm.density(gamma, 1.3, -0.5, 0.4)
    for pair in (["--mu", "2"], ["--theta", "-0.5"]):
        code, out, _ = _run(capsys, ["density", "--family", "gamma", "--y", "1.3", "--tau", "0.4", *pair])
        assert code == 0 and float(out) == expected
    code, out, err = _run(capsys, ["density", "--family", "gamma", "--y", "1.3", "--mu", "2",
                                   "--theta", "-0.5"])
    assert code == 1 and out == "" and err.startswith("ERROR:domain:")


def test_density_underflows_to_zero(capsys):
    code, out, err = _run(capsys, ["density", "--family", "inverse_gaussian", "--y", "1e-300",
                                   "--mu", "1", "--tau", "1"])
    assert code == 0 and float(out) == 0.0 and err == ""


def test_approx_methods_serialize_the_library_results(capsys):
    gamma = edm.get_family("gamma")
    base = ["approx", "--family", "gamma", "--mu", "2", "--tau", "0.5", "--y", "3", "--method"]
    saddle = _json_out(capsys, [*base, "saddle"])
    res = saddlepoint.saddlepoint_density(gamma, 3.0, -0.5, 0.5)
    assert saddle == {"value": res.value, "saddle": res.saddle, "r": None, "u": None}
    renorm = _json_out(capsys, [*base, "renorm"])
    assert renorm["saddle"] is None and renorm["r"] is None
    assert renorm["value"] == pytest.approx(saddlepoint.renormalized_saddlepoint(
        edm.unit_deviance_of(gamma), edm.variance_function_of(gamma), 3.0, 2.0, 0.5).value, rel=1e-15)
    # one observation: the two Lugannani-Rice methods are one formula
    lr = _json_out(capsys, [*base, "lr"])
    assert _json_out(capsys, [*base, "mean-lr"]) == lr
    assert lr["r"] == pytest.approx(0.614931, abs=1e-6)
    assert lr["u"] == pytest.approx(0.707107, abs=1e-6)
    assert lr["value"] == pytest.approx(0.800701, abs=1e-6)
    assert lr["saddle"] == pytest.approx(1.0 / 3.0, rel=1e-14)
    mean = _json_out(capsys, [*base, "mean-lr", "--n", "4"])
    assert mean["value"] == saddlepoint.sample_mean_cdf(gamma, 3.0, -0.5, 0.5, 4)
    assert mean["r"] == pytest.approx(2.0 * lr["r"], rel=1e-14)
    assert mean["saddle"] == lr["saddle"]


# (the p = 2.5 table is short: each pointwise cdf integrates from zero)
@pytest.mark.parametrize("p, tau, y_min, y_max", [
    (1.5, 0.8, "0", "3"), (2.5, 0.8, "1", "1.5"), (0.0, 0.8, "-1", "3"), (1.0, 0.5, "0", "3"),
])
def test_tweedie_table_rows_match_the_library(capsys, p, tau, y_min, y_max):
    mu = 1.1
    code, out, err = _run(capsys, ["tweedie", "--p", str(p), "--mu", str(mu), "--tau", str(tau),
                                   "--y-min", y_min, "--y-max", y_max, "--y-step", "0.5"])
    assert code == 0 and err == ""
    rows = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1, ndmin=2)
    assert out.startswith("y,density,cdf\n")
    support = tweedie.tweedie_support(p)
    assert all(support.contains(y) for y in rows[:, 0])
    for y, dens, cdf in rows.tolist():
        assert dens == tweedie.tweedie_density(p, y, mu, tau)
        assert cdf == pytest.approx(tweedie.tweedie_cdf(p, y, mu, tau), abs=2e-7)
    if p == 1.5:
        # the y = 0 row is the atom
        atom = tweedie.tweedie_zero_mass(p, mu, tau)
        assert rows[0].tolist() == [0.0, atom, atom]


def test_pdm_density_and_normalizer(capsys):
    spec = pdm.get_pdm("simplex")
    res = _json_out(capsys, ["pdm", "--model", "simplex", "--mu", "0.3", "--tau", "0.5", "--y", "0.4"])
    assert res == {"model": "simplex", "y": 0.4, "mu": 0.3, "tau": 0.5,
                   "density": pdm.pdm_density(spec, 0.4, 0.3, 0.5)}
    res = _json_out(capsys, ["pdm", "--model", "vonmises", "--mu", "0.3", "--tau", "0.5", "--integrate"])
    spec = pdm.get_pdm("vonmises")
    assert res["a0"] == pdm.pdm_normalizer(spec.deviance, spec.carrier, 0.5, 0.3)
    # von Mises: a0 = 1 / (2 pi e^(-1/tau) I0(1/tau))
    assert res["a0"] == pytest.approx(1.0 / (2 * math.pi * math.exp(-2.0) * special.i0(2.0)), rel=1e-8)


@pytest.mark.parametrize("argv, code, prefix", [
    (["no-such-command"], 1, "ERROR:usage:"),
    (["deviance", "--family", "gamma", "--y", "2"], 1, "ERROR:usage:"),
    (["deviance", "--family", "gamma", "--y", "-1", "--mu", "1"], 1, "ERROR:domain:"),
    (["tweedie", "--p", "0.5", "--mu", "1", "--tau", "1", "--y-min", "0", "--y-max", "1",
      "--y-step", "0.5"], 1, "ERROR:domain:"),
    (["tweedie", "--p", "1.5", "--mu", "1", "--tau", "1", "--y-min", "0", "--y-max", "1",
      "--y-step", "0"], 1, "ERROR:domain:"),
    # the simplex normalizer integral underflows to zero at tau = 1e-9
    (["pdm", "--model", "simplex", "--mu", "0.5", "--tau", "1e-9", "--integrate"], 2, "ERROR:numerical:"),
    (["tweedie", "--p", "1.5", "--mu", "1", "--tau", "1", "--y-min", "0", "--y-max", "inf",
      "--y-step", "1"], 1, "ERROR:usage:"),
    (["tweedie", "--p", "1.5", "--mu", "1", "--tau", "1", "--y-min", "nan", "--y-max", "1",
      "--y-step", "1"], 1, "ERROR:usage:"),
    (["tweedie", "--p", "1.5", "--mu", "1", "--tau", "1", "--y-min", "0", "--y-max", "1e300",
      "--y-step", "1e-300"], 1, "ERROR:domain:"),
    # 10^6 + 1 rows: numpy could allocate them, but the table is refused before any row
    (["tweedie", "--p", "1.5", "--mu", "1", "--tau", "1", "--y-min", "0", "--y-max", "1000000",
      "--y-step", "1"], 1, "ERROR:domain:"),
    (["density", "--family", "tweedie:abc", "--y", "1", "--mu", "1"], 1, "ERROR:domain:"),
    (["density", "--family", "tweedie:nan", "--y", "1", "--mu", "1"], 1, "ERROR:domain:"),
    (["pdm", "--model", "vonmises", "--mu", "1", "--tau", "1", "--pivotal-check",
      "--mu-list", "a,b"], 1, "ERROR:domain:"),
    (["pdm", "--model", "vonmises", "--mu", "1", "--tau", "1", "--pivotal-check",
      "--mu-list", "0,1", "--m", "0"], 1, "ERROR:domain:"),
    (["cf-construct", "--cf", "gauss", "--tau", "nan"], 1, "ERROR:usage:"),
    (["cf-construct", "--cf", "gauss", "--tau", "0.5", "--L", "nan"], 1, "ERROR:usage:"),
    (["cf-construct", "--cf", "gauss", "--tau", "0.5", "--lambda-reg", "nan"], 1, "ERROR:usage:"),
    # the normal deviance (y - mu)^2 overflows a float
    (["deviance", "--family", "normal", "--y", "8e246", "--mu=-1.35e253"], 2, "ERROR:numerical:"),
    # 2^30 grid points and 10^7 + 1 draws would fill memory; both are refused before
    # the grid or the sample is allocated
    (["cf-construct", "--cf", "gauss", "--tau", "0.5", "--N", "1073741824"], 1, "ERROR:domain:"),
    (["pdm", "--model", "vonmises", "--mu", "1", "--tau", "1", "--pivotal-check",
      "--m", "10000001"], 1, "ERROR:domain:"),
    # 1/tau overflows, and the log density is inf - inf
    (["density", "--family", "gamma", "--y", "1", "--mu", "1", "--tau", "5e-324"], 2, "ERROR:numerical:"),
])
def test_exit_codes_and_error_prefixes(capsys, argv, code, prefix):
    got, out, err = _run(capsys, argv)
    assert got == code and out == ""
    assert err.startswith(prefix)


@pytest.mark.parametrize("beta0", ["a,b", "1,nan"])
def test_bad_initial_coefficients_exit_1(capsys, poisson_csv, beta0):
    code, out, err = _run(capsys, _fit_argv(poisson_csv[0], "--formula", "x1+x2", "--beta0", beta0))
    assert code == 1 and out == ""
    assert err.startswith("ERROR:domain:")


@pytest.mark.parametrize("module", ["dispmodels.deviance", "dispmodels.edm", "dispmodels.cli"])
def test_each_module_imports_first(module):
    # deviance derives its EDM entries from edm.FAMILIES: either may load first
    src = os.path.dirname(os.path.dirname(edm.__file__))
    code = f"import {module}, dispmodels.deviance as d; assert d.DEVIANCES['gamma'].name == 'gamma'"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


@pytest.mark.parametrize("argv", [
    ["tweedie", "--p", "1.5", "--mu", "1.1", "--tau", "0.8", "--y-min", "0", "--y-max", "3", "--y-step", "0.5"],
    ["cf-construct", "--cf", "gauss", "--tau", "0.5", "--N", "1024"],
], ids=lambda argv: argv[0])
def test_output_file_holds_the_stdout_bytes(capsys, tmp_path, argv):
    code, out, _ = _run(capsys, argv)
    assert code == 0 and out
    path = tmp_path / "table.csv"
    code, written, _ = _run(capsys, [*argv, "--output", str(path)])
    assert code == 0 and written == ""
    assert path.read_bytes() == out.encode("utf-8")


def test_unknown_check_scope_is_a_usage_error(capsys):
    code, out, err = _run(capsys, ["check", "--scope", "nope"])
    assert code == 1 and out == ""
    assert err.startswith("ERROR:usage:unknown check scope 'nope'")


@pytest.mark.parametrize("extra, message", [
    (["--response", "z", "--formula", "x1"], "response column 'z' not in CSV header"),
    (["--response", "y", "--formula", "x1+x3"], "formula term 'x3' not in CSV header"),
], ids=["response", "term"])
def test_fit_with_a_missing_column_is_a_domain_error(capsys, poisson_csv, extra, message):
    argv = ["fit", "--data", poisson_csv[0], "--family", "poisson", "--link", "log", *extra]
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("ERROR:domain:" + message)


def test_density_of_the_tweedie_one_view_off_unit_dispersion(capsys):
    # y = 1.5 is the count 3 of tau N0 at tau = 0.5: the Poisson(mu/tau = 4) mass at 3
    code, out, err = _run(capsys, ["density", "--family", "tweedie:1", "--y", "1.5", "--mu", "2", "--tau", "0.5"])
    assert code == 0 and err == ""
    assert out == "0.19536681481316454\n"
    code, out, err = _run(capsys, ["density", "--family", "tweedie:1", "--y", "1.2", "--mu", "2", "--tau", "0.5"])
    assert code == 1 and err.startswith("ERROR:domain:") and "not a lattice point" in err
