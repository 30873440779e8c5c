"""Tests of the benchmark's own machinery: oracle, tracer, grading, report.

    PYTHONPATH=src python3 -m pytest -q benchmarks/tests
"""

import math
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import Op, raises  # noqa: E402

import dispmodels  # noqa: E402
from dispmodels import pdm, support  # noqa: E402
from dispmodels.errors import ConvergenceError  # noqa: E402


def test_irls_oracle_equals_lstsq_for_normal_identity():
    rng = np.random.default_rng(7)
    X = np.column_stack([np.ones(500), rng.normal(size=500), rng.uniform(-2, 2, 500)])
    y = X @ np.array([1.5, -0.7, 0.3]) + rng.normal(0.0, 0.5, 500)
    beta, mu, deviance = oracles.irls(X, y, "normal", "identity")
    expected = np.linalg.lstsq(X, y, rcond=None)[0]
    np.testing.assert_allclose(beta, expected, rtol=1e-12, atol=1e-12)
    assert deviance == pytest.approx(float(np.sum((y - X @ expected) ** 2)), rel=1e-12)


def _bindings():
    """Every attribute of every dispmodels module, plus the patched class slots."""
    modules = [m for k, m in sys.modules.items() if m is not None and k.split(".")[0] == "dispmodels"]
    snapshot = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    for attr in ("contains", "__contains__"):
        snapshot[("RealInterval", attr)] = support.RealInterval.__dict__[attr]
    return snapshot


def test_tracer_restores_every_binding():
    before = _bindings()
    original = pdm.eval_deviance
    with tracing.Tracer() as tr:
        assert pdm.eval_deviance is not original
        assert dispmodels.eval_deviance is pdm.eval_deviance
        pdm.pdm_density(pdm.get_pdm("simplex"), 0.3, 0.4, 0.5)
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
    assert tr.counts["support.calls"] > 0
    assert tr.calls_of("deviance.eval_deviance") > 0


def test_self_times_of_one_op_fit_in_its_wall_time():
    with tracing.Tracer() as tr:
        start = perf_counter()
        with tr.span("op"):
            pdm.pdm_density(pdm.get_pdm("simplex"), 0.3, 0.4, 0.5)
        wall = perf_counter() - start
    name_ids, self_s = tr.self_times()
    assert len(self_s) > 3
    assert np.all(self_s >= 0.0)
    report = tr.layer_report()
    layers_s = sum(entry["self_ms"] for entry in report.values()) / 1e3
    assert layers_s <= wall
    assert self_s.sum() <= wall
    assert report["pdm"]["calls"] == sum(
        tr.calls_of(f"pdm.{name}") for name in ("get_pdm", "pdm_density", "pdm_normalizer")
    )


def test_wrong_output_counts_as_failed_op():
    def check(value):
        return oracles.within_rel(value, 2.0, 1e-9, "value")

    def stuck():
        raise ConvergenceError("budget used up")

    ops = [
        Op("right", lambda: 2.0, check),
        Op("wrong", lambda: 2.5, check),
        Op("known", stuck, check, known_defect="cf-lambda", defect_check=raises(ConvergenceError)),
    ]
    tally = run.Tally(ops)
    tally.add(*run.run_pass(ops))
    assert tally.attempted == 3
    assert tally.failed == 2
    assert not tally.correct  # the wrong answer is not a known defect
    assert tally.failed / tally.attempted == pytest.approx(2 / 3)

    known_only = run.Tally(ops[::2])
    known_only.add(*run.run_pass(ops[::2]))
    assert known_only.failed == 1 and known_only.correct


def test_known_defect_with_another_wrong_value_is_unexpected():
    def check(value):
        return oracles.within_rel(value, 1.0, 1e-9, "value")

    def defect(value):  # the defect doubles the value
        return oracles.within_rel(value, 2.0, 1e-9, "defective value")

    ops = [
        Op("as documented", lambda: 2.0, check, known_defect="gsh-normalizer", defect_check=defect),
        Op("worse", lambda: float("nan"), check, known_defect="gsh-normalizer", defect_check=defect),
        Op("raises instead", lambda: 1 / 0, check, known_defect="gsh-normalizer", defect_check=defect),
    ]
    tally = run.Tally(ops)
    tally.add(*run.run_pass(ops))
    assert tally.failed == 3
    assert [entry[2] for entry in tally.failures.values()] == [True, False, False]
    assert not tally.correct


def test_gsh_defect_factor_matches_the_library():
    gsh = dispmodels.edm.get_family("gsh")
    for y, theta, tau in ((-1.7, 0.2, 0.5), (0.4, -0.5, 1.1), (2.2, 0.0, 0.8)):
        exact = oracles.gsh_density(y, theta, tau)
        value = dispmodels.edm.density(gsh, y, theta, tau)
        assert value == pytest.approx(exact * oracles.gsh_defect_factor(y, tau), rel=1e-10)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_per_mille(42) == 750
    assert run.tail_per_mille(8400) == 990
    assert run.tail_per_mille(14) is None
    value, beyond = run.percentile([float(i) for i in range(1, 101)], 900)
    assert (value, beyond) == (90.0, 10)
    assert run.percentile([3.0, 1.0, 2.0], 500) == (2.0, 1)


def test_twins_run_next_to_their_ops_in_alternating_order():
    order = []

    def op(name):
        return Op(name, lambda: order.append(name), lambda out: None)

    ops, twins = [op("a"), op("b"), op("c")], [op("A"), op("B"), op("C")]
    _, latencies, _, twin_latencies = run.run_pass(ops, twins=twins)
    assert order == ["a", "A", "B", "b", "c", "C"]
    order.clear()
    run.run_pass(ops, twins=twins, pass_index=1)
    assert order == ["A", "a", "b", "B", "C", "c"]
    assert len(latencies) == len(twin_latencies) == 3


def test_timings_are_means_over_passes_relative_to_the_twins(monkeypatch):
    calibration = {"job_s": 6.0, "op_p50_ms": 1000.0, "op_tail_ms": 4000.0}
    monkeypatch.setitem(run.REFERENCE_TIMINGS, "glm", calibration)
    ops = [Op(f"op{k}", lambda: 2.0, lambda out: None) for k in range(3)]
    tally = run.Tally(ops)
    tally.add(9.0, [1.0, 2.0, 4.0], [2.0] * 3, [2.0, 2.0, 2.0])
    tally.add(9.0, [2.0, 1.0, 3.0], [2.0] * 3, [1.0, 3.0, 6.0])
    assert tally.latencies == [1.5, 1.5, 3.5]
    assert tally.twin_latencies == [1.5, 2.5, 4.0]
    metrics, _ = run.end_to_end("glm", tally, [1.0, 2.0, 3.0])
    assert metrics["job_s"][0] == pytest.approx(6.0 * 6.5 / 8.0)
    assert metrics["op_p50_ms"][0] == pytest.approx(1000.0 * 1.5 / 2.5)
    assert metrics["op_tail_ms"][0] == pytest.approx(4000.0 * 3.5 / 4.0)  # 3 ops: the slowest
    assert metrics["setup_s"][0] == 2.0


def test_reference_copy_is_a_separate_library():
    import workloads

    current, reference = workloads.library(), workloads.library(run.REFERENCE)
    for name in workloads.LIBRARY_MODULES:
        assert getattr(current, name).__name__ == f"dispmodels.{name}"
        assert getattr(reference, name).__name__ == f"{run.REFERENCE}.{name}"


def test_refuses_to_run_without_library_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", BENCH / "no-such-dir")
    assert run.main(["--workload", "glm", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_gsh_oracle_integrates_to_one():
    from scipy.integrate import quad

    mass, _ = quad(lambda y: oracles.gsh_density(y, 0.3, 0.7), -math.inf, math.inf, limit=400)
    assert mass == pytest.approx(1.0, abs=1e-9)
