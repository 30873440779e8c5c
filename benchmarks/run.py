"""Run one dispmodels benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload glm --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The run builds the seeded job list with its oracle values, then repeats
passes over the job list (one op at a time, closed loop) for about
``--seconds`` seconds, never fewer than the workload's minimum, and times
``setup_s`` in fresh interpreters before and after the passes.  Each op
runs next to its twin, the same call on ``dispmodels_ref``, a frozen copy
of the library kept in this directory.  An op's latency is its mean
over the run's passes.  ``job_s``, ``op_p50_ms`` and ``op_tail_ms`` are
computed from those latencies and from the twins' alike, and each is
reported as its ratio to the twins' figure times the twins' figure at
calibration (``REFERENCE_TIMINGS``), so that the host's speed cancels.
Every op's output is checked after its pass, outside the timed region.
``--trace 1`` makes untraced passes for half the time and then one pass
under the tracer, and reports per-module metrics instead.  A readable
report comes first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads, so timings do not depend on how
# many cores the machine lends the process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA_DIR = ROOT / ".bench_data"

WORKLOADS = ("glm", "evaluate", "construct")
# the frozen copy of the library that the twin of every op calls
REFERENCE = "dispmodels_ref"
# the twins' job_s, op_p50_ms and op_tail_ms at calibration (rounded; a
# shared 2-CPU Xeon container in a fast phase): a run reports its own
# figure over the twins' figure in the run, times these
REFERENCE_TIMINGS = {
    "glm": {"job_s": 3.3, "op_p50_ms": 240.0, "op_tail_ms": 2100.0},
    "evaluate": {"job_s": 2.0, "op_p50_ms": 0.012, "op_tail_ms": 10.0},
    "construct": {"job_s": 18.0, "op_p50_ms": 1250.0, "op_tail_ms": 12000.0},
}
TIMING_UNITS = {"job_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms"}
# fresh interpreters timed per run, about half before the passes and the
# rest after them, so the median samples the whole run
SETUP_PROBES = 3
# tail percentiles in per mille; the tail is the highest that leaves at
# least TAIL_BEYOND of the job list's ops above it, and the slowest op when
# none does
TAIL_LADDER = (500, 750, 900, 950, 990, 999)
TAIL_BEYOND = 10
# never start a pass that would end after this many seconds of measuring
MEASURE_CAP_S = 140.0


def percentile(values, per_mille: int):
    """Nearest-rank percentile: (value, number of samples beyond it)."""
    ordered = sorted(values)
    rank = -(-len(ordered) * per_mille // 1000)  # ceil without float error
    return ordered[max(rank, 1) - 1], len(ordered) - rank


def tail_per_mille(n: int):
    eligible = [p for p in TAIL_LADDER if n - -(-n * p // 1000) >= TAIL_BEYOND]
    return max(eligible) if eligible else None


def setup_seconds(workload: str, probes: int) -> list[float]:
    """``import dispmodels`` plus model construction, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout))
    return times


def timed(op, tracer=None):
    """(seconds, output or exception) of one call of ``op``."""
    t0 = perf_counter()
    try:
        if tracer is None:
            out = op.call()
        else:
            with tracer.span(op.kind):
                out = op.call()
    except Exception as exc:  # a raising op is a failed op, not a crash
        out = exc
    return perf_counter() - t0, out


def run_pass(ops, tracer=None, twins=None, pass_index=0):
    """One closed-loop pass: (wall seconds, per-op seconds, per-op output or
    exception, per-twin seconds).  ``twins`` is the same job list calling the
    reference library; each op then runs right next to its twin, the twin
    first on every other op (and on the others in odd passes), so that both
    see the same host speed."""
    latencies, outputs, twin_latencies = [], [], []
    start = perf_counter()
    for k, op in enumerate(ops):
        twin_before = twins is not None and (k + pass_index) % 2 == 1
        if twin_before:
            twin_latencies.append(timed(twins[k])[0])
        latency, out = timed(op, tracer)
        if twins is not None and not twin_before:
            twin_latencies.append(timed(twins[k])[0])
        latencies.append(latency)
        outputs.append(out)
    return perf_counter() - start, latencies, outputs, twin_latencies


def grade(op, out):
    """None when the op's output is right, else (reason, expected), where
    ``expected`` marks exactly the failure its known defect produces."""
    if isinstance(out, Exception):
        reason = f"raised {type(out).__name__}: {out}"
    else:
        try:
            reason = op.check(out)
        except Exception as exc:  # an unparseable output is a wrong output
            reason = f"check failed on the output: {type(exc).__name__}: {exc}"
    if reason is None:
        return None
    if op.defect_check is None:
        return reason, False
    try:
        return reason, op.defect_check(out) is None
    except Exception:  # an output the defect check cannot read is not the defect
        return reason, False


class Tally:
    """Per-op latencies, pass times and failures accumulated over a run.

    An op's latency is its mean over the passes, and so is its
    twin's (the same call on the reference library) when the passes run
    twins.  Twins run right next to their ops, so the host's speed swings
    alike in the sums of both.
    """

    def __init__(self, ops):
        self.ops = ops
        self.pass_times: list[float] = []
        self.time = [0.0] * len(ops)  # each op's summed latency
        self.twin_time = [0.0] * len(ops)
        self.attempted = 0
        # op kind -> [count, last reason, expected, known defect key]
        self.failures: dict[str, list] = {}

    def add(self, job_s, latencies, outputs, twin_latencies=()):
        self.pass_times.append(job_s)
        self.time = [total + t for total, t in zip(self.time, latencies)]
        if twin_latencies:
            self.twin_time = [total + t for total, t in zip(self.twin_time, twin_latencies)]
        self.attempted += len(outputs)
        for op, out in zip(self.ops, outputs):
            verdict = grade(op, out)
            if verdict is not None:
                entry = self.failures.setdefault(op.kind, [0, "", True, op.known_defect])
                entry[0] += 1
                entry[1] = verdict[0]
                entry[2] = entry[2] and verdict[1]

    @property
    def latencies(self) -> list[float]:
        return [total / len(self.pass_times) for total in self.time]

    @property
    def twin_latencies(self) -> list[float]:
        return [total / len(self.pass_times) for total in self.twin_time]

    @property
    def failed(self) -> int:
        return sum(entry[0] for entry in self.failures.values())

    @property
    def correct(self) -> bool:
        return all(entry[2] for entry in self.failures.values())


def measure(workload, seconds: float, min_passes: int, tally: Tally, twins=None) -> None:
    """Untraced passes until the next one would overrun ``seconds``."""
    start = perf_counter()
    while True:
        tally.add(*run_pass(workload.ops, twins=twins, pass_index=len(tally.pass_times)))
        done = len(tally.pass_times)
        elapsed = perf_counter() - start
        typical = statistics.median(tally.pass_times)
        if elapsed + typical > MEASURE_CAP_S:
            return
        if done >= min_passes and elapsed + typical > seconds:
            return


def timings(latencies) -> dict:
    """job_s, op_p50_ms and op_tail_ms of one latency per op of the job list."""
    per_mille = tail_per_mille(len(latencies))
    tail = max(latencies) if per_mille is None else percentile(latencies, per_mille)[0]
    return {
        "job_s": math.fsum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
    }


def end_to_end(name: str, tally: Tally, setup: list[float]) -> tuple[dict, list[str]]:
    measured, twins = timings(tally.latencies), timings(tally.twin_latencies)
    reference = REFERENCE_TIMINGS[name]
    n = len(tally.ops)
    per_mille = tail_per_mille(n)
    if per_mille is None:
        tail_note = f"slowest of {n} ops: no percentile leaves {TAIL_BEYOND} beyond it"
    else:
        tail_note = f"p{per_mille / 10:g} of {n} ops, {n - -(-n * per_mille // 1000)} beyond it"
    metrics = {"setup_s": (statistics.median(setup), "s")}
    for key, unit in TIMING_UNITS.items():
        metrics[key] = (reference[key] * measured[key] / twins[key], unit)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    basis = {key: f"{measured[key]:.6g} measured, twins {twins[key]:.6g}" for key in TIMING_UNITS}
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "job_s": f"sum of {n} op latencies, each its mean over {len(tally.pass_times)} passes; "
                 f"{basis['job_s']}",
        "op_p50_ms": f"median of {n} ops; {basis['op_p50_ms']}",
        "op_tail_ms": f"{tail_note}; {basis['op_tail_ms']}",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    lines = [f"  {key:<13} {value:12.6g} {unit:<3} ({notes[key]})" for key, (value, unit) in metrics.items()]
    rate = tally.failed / tally.attempted
    lines.append(f"  {'error_rate':<13} {rate:12.6g} 1   ({tally.failed} of {tally.attempted} ops failed)")
    return metrics, lines


def per_layer(tracer, traced_s: float, untraced_s: float) -> dict:
    from tracer import LAYERS

    report = tracer.layer_report()
    metrics = {}
    for layer in LAYERS:
        label = layer.lstrip("_")  # metric names start with a letter: numdiff.*
        metrics[f"{label}.calls"] = (report[layer]["calls"], "count")
        metrics[f"{label}.self_ms"] = (report[layer]["self_ms"], "ms")
        metrics[f"{label}.errors"] = (report[layer]["errors"], "count")
    counts = tracer.counts
    support_calls = counts.get("support.calls", 0)
    obs = counts.get("regression.observations", 0)
    iterations = counts.get("regression.iterations", 0)
    candidates = tracer.calls_of("regression.total_deviance") - tracer.calls_of("regression.fit")

    def ratio(num, den):  # 0 where the layer is not used at all
        return num / den if den else 0.0

    metrics.update({
        "support.calls": (support_calls, "count"),
        "regression.iterations": (iterations, "count"),
        "regression.step_acceptance": (ratio(iterations, candidates), "ratio"),
        "edm.calls_per_obs": (ratio(report["edm"]["calls"], obs), "calls/obs"),
        "support.calls_per_obs": (ratio(support_calls, obs), "calls/obs"),
        "tweedie.density_per_cdf": (
            ratio(tracer.calls_of("tweedie.tweedie_density"), tracer.calls_of("tweedie.tweedie_cdf")), "ratio"),
        "pdm.normalizer_hit_ratio": (
            ratio(tracer.calls_of("pdm.pdm_density") - tracer.calls_of("pdm.pdm_normalizer"),
                  tracer.calls_of("pdm.pdm_density")), "ratio"),
        "cf_construct.cg_iterations": (counts.get("cf_construct.cg_iterations", 0), "count"),
        "cf_construct.kernel_calls": (tracer.calls_of("cf_construct.kernel"), "count"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    })
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    package = SRC / "dispmodels"
    if not (package / "__init__.py").is_file():
        print(f"error: no dispmodels sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dispmodels

    if Path(dispmodels.__file__).resolve().parent != package.resolve():
        print(f"error: imported dispmodels from {dispmodels.__file__}, not {package}", file=sys.stderr)
        return 2
    import mpmath  # noqa: F401  (imported lazily by the p > 2 Tweedie series; load before timing)

    import workloads
    from models import build_models

    data_dir = DATA_DIR / f"{args.workload}-{args.seed}"
    workload = workloads.build(args.workload, args.seed, workloads.library(), build_models(args.workload), data_dir)
    tally = Tally(workload.ops)
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}  seed {args.seed}  {len(workload.ops)} ops per pass  ({mode})")

    if args.trace:
        from tracer import Tracer

        measure(workload, args.seconds / 2, 1, tally)
        untraced_s = statistics.median(tally.pass_times)
        with Tracer() as tracer:
            traced_s, latencies, outputs, _ = run_pass(workload.ops, tracer)
        tally.add(traced_s, latencies, outputs)
        metrics = per_layer(tracer, traced_s, untraced_s)
        lines = [f"  {name:<28} {value:14.6g} {unit}" for name, (value, unit) in metrics.items()]
    else:
        twins = workloads.build(args.workload, args.seed, workloads.library(REFERENCE),
                                build_models(args.workload, REFERENCE), data_dir).ops
        setup = setup_seconds(args.workload, (SETUP_PROBES + 1) // 2)
        measure(workload, args.seconds, workload.min_passes, tally, twins)
        setup += setup_seconds(args.workload, SETUP_PROBES // 2)
        metrics, lines = end_to_end(args.workload, tally, setup)

    print("\n".join(lines))
    guards = sum(op.guard for op in workload.ops)
    if guards:
        print(f"  {guards} ops per pass are regression guards (values recorded at the benchmark's "
              "first commit), not oracles")
    for kind, (count, reason, expected, defect) in sorted(tally.failures.items()):
        label = f"known defect: {workloads.KNOWN_DEFECTS[defect]}" if expected else "UNEXPECTED"
        print(f"  FAILED {count}x {kind}: {reason[:300]}  [{label}]")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
