"""The twistcert benchmark.  Run from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and README.md): certify, normal_form,
commutator_twists.  Each is closed-loop with one client in one process.

--trace 0 measures the end-to-end metrics with tracing off.  Every
time is scaled to a reference host speed with speed.py's fixed unit of
work, timed next to it in the same process (see speed.py); the raw
wall-clock figures and the speed factors are in the metadata line.
  setup_s      median over 11 fresh interpreters (after one warm-up) of
               the time to import twistcert and finish the workload's
               smallest operation;
  ops_per_s    operations per second of operation time;
  op_p50_ms,
  op_p90_ms    per-operation latency; a run has at least 100 ops, so at
               least 10 samples lie beyond p90;
  ok_ratio     1 - fail_ratio: the share of operations whose output
               passed its check;
  peak_rss_mb  peak resident memory of the process that ran the ops.
The timed ops run in a fresh worker process, for whole blocks of inputs,
until `--seconds` of (raw) operation time and 100 ops are reached.

--trace 1 runs a fixed prefix of the same ops three times, each in a
fresh process: once untraced and twice traced.  It reports per-layer
calls, self times (raw wall clock) and counts, and `trace.overhead`,
the traced ops/s over the untraced ops/s (both scaled).  The two
traced passes must give identical counts, or the run is marked
incorrect.

The line before the last is a JSON object with the run's metadata; the
last line is the result.  The exit code is 0 only when a result was
printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from tracer import SPAN_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 100
SETUP_REPEATS = 11
OUT_DIR = ROOT / ".bench_out"

REPORTED_COUNTS = ("laurent.mul.term_products", "laurent.hom_apply.terms_in",
                   "laurent.ring_eq.calls", "amalgam.json_bytes",
                   "amalgam.normal_form.letters")
SELF_ONLY = ("amalgam.build_certificate", "amalgam.json")
CALLS_ONLY = ("rep.matrix_Mk",)


def _python(args, timeout):
    proc = subprocess.run([sys.executable] + args, cwd=ROOT, timeout=timeout,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_seconds(snippet: str) -> tuple[float, list, list]:
    """Median scaled set-up time, and the raw times and units behind it.

    Each interpreter times the snippet, then samples the speed unit ten
    times and keeps the median of the last five, after the interpreter
    has warmed up to the unit's code."""
    code = ("import sys, time\n_t0 = time.perf_counter()\n"
            f"sys.path.insert(0, {str(ROOT / 'src')!r})\n" + snippet +
            "_t1 = time.perf_counter() - _t0\n"
            f"sys.path.insert(0, {str(HERE)!r})\n"
            "import speed, statistics\n"
            "_units = [speed.sample() for _ in range(10)]\n"
            "print(_t1, statistics.median(_units[5:]))\n")
    pairs = [tuple(map(float, _python(["-c", code], 60).split()))
             for _ in range(SETUP_REPEATS + 1)][1:]
    scaled = [speed.scaled(t, unit) for t, unit in pairs]
    return (statistics.median(scaled), [t for t, _ in pairs],
            [unit for _, unit in pairs])


def scaled_times(res: dict) -> list:
    return [speed.scaled(t, unit) for t, unit in zip(res["times"], res["units"])]


def worker(config: dict, timeout: float) -> dict:
    return json.loads(_python([str(HERE / "worker.py"), json.dumps(config)],
                              timeout).splitlines()[-1])


def percentile(sorted_values, q: float):
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def git_rev() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def timed_run(args, workload) -> tuple[dict, dict, dict]:
    setup, setup_samples, setup_units = setup_seconds(workload.SETUP)
    res = worker({"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "min_ops": MIN_OPS,
                  "max_ops": workload.MAX_OPS, "wall_limit": 140},
                 timeout=170)
    times = sorted(scaled_times(res))
    p50 = statistics.median(times)
    p90, beyond = percentile(times, 0.9)
    raw = sorted(res["times"])
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (p50 * 1000, "ms"),
        "op_p90_ms": (p90 * 1000, "ms"),
        "ok_ratio": (1 - res["failed"] / res["attempted"], "ratio"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
    }
    classes = {}
    for cls in res["classes"]:
        classes[cls] = classes.get(cls, 0) + 1
    meta = {"samples": len(times), "samples_above_p90": beyond,
            "raw_wall_clock": {
                "setup_s": statistics.median(setup_samples),
                "ops_per_s": len(raw) / sum(raw),
                "op_p50_ms": statistics.median(raw) * 1000,
                "op_p90_ms": percentile(raw, 0.9)[0] * 1000},
            "speed_factor": {
                "ops_median": speed.REFERENCE_S / statistics.median(
                    res["units"]),
                "setup_median": speed.REFERENCE_S / statistics.median(
                    setup_units)},
            "setup_samples_s": setup_samples,
            "fail_ratio": res["failed"] / res["attempted"],
            "class_counts": classes, "op_seconds": sum(raw),
            "worker_wall_s": res["wall_s"], "failures": res["reasons"],
            "selftest_ok": res["selftest_ok"]}
    return metrics, meta, res


def traced_run(args, workload) -> tuple[dict, dict, list]:
    OUT_DIR.mkdir(exist_ok=True)
    base = {"workload": args.workload, "seed": args.seed,
            "fixed_ops": workload.TRACE_OPS, "wall_limit": 50}
    plain = worker(base, timeout=60)
    passes = [worker(dict(base, trace=True, spans_path=str(
        OUT_DIR / f"spans-{args.workload}-{i}.bin")), timeout=60)
        for i in (1, 2)]
    traces = [p["trace"] for p in passes]

    def counts(trace):
        return {**{f"{k}.calls": v for k, v in trace["calls"].items()},
                **trace["counts"]}

    repeat_ok = counts(traces[0]) == counts(traces[1])
    calls, extra = traces[0]["calls"], traces[0]["counts"]
    metrics = {}
    for name in SPAN_NAMES:
        if name not in SELF_ONLY:
            metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        if name not in CALLS_ONLY:
            metrics[f"{name}.self_s"] = (statistics.mean(
                t["self_s"].get(name, 0.0) for t in traces), "s")
    for key in REPORTED_COUNTS:
        metrics[key] = (extra.get(key, 0),
                        "bytes" if key.endswith("bytes") else "count")
    lifts = extra.get("homology.validate_lift.lifts", 0)
    metrics["homology.validate_lift.per_lift"] = (
        calls.get("homology.validate_lift", 0) / lifts if lifts else 0.0,
        "ratio")
    letters = extra.get("amalgam.normal_form.letters", 0)
    metrics["amalgam.normal_form.acts_per_letter"] = (
        extra.get("amalgam.normal_form.acts", 0) / letters if letters else 0.0,
        "ratio")
    untraced = sum(scaled_times(plain))
    traced = statistics.mean(sum(scaled_times(p)) for p in passes)
    metrics["trace.overhead"] = (untraced / traced, "ratio")

    # Shares of each input class's traced op time: in each layer's own
    # code, in each span's own code, and inside each span with its
    # children.  These confirm (or not) each workload's design reason.
    class_time = traces[0]["class_time"]
    layers, spans, inclusive = {}, {}, {}
    for cls, name, own in traces[0]["self_by_class"]:
        share = own / class_time[cls]
        layer = layers.setdefault(cls, {})
        layer[name.split(".")[0]] = layer.get(name.split(".")[0], 0) + share
        if share >= 0.01:
            spans.setdefault(cls, {})[name] = round(share, 4)
    for cls, name, total in traces[0]["incl_by_class"]:
        if total / class_time[cls] >= 0.01:
            inclusive.setdefault(cls, {})[name] = round(
                total / class_time[cls], 4)
    meta = {"samples": workload.TRACE_OPS, "counts_repeat": repeat_ok,
            "spans": traces[0]["spans"],
            "untraced_op_seconds": untraced, "traced_op_seconds": traced,
            "layer_self_share_by_class": {
                c: {k: round(v, 4) for k, v in s.items()}
                for c, s in layers.items()},
            "span_self_share_by_class": spans,
            "span_inclusive_share_by_class": inclusive,
            "selftest_ok": all(p["selftest_ok"] for p in [plain] + passes),
            "failures": [r for p in [plain] + passes for r in p["reasons"]]}
    return metrics, meta, [plain] + passes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "twistcert" / "__init__.py").is_file():
        print(f"error: no twistcert sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    try:
        if args.trace:
            metrics, meta, passes = traced_run(args, workload)
        else:
            metrics, meta, res = timed_run(args, workload)
            passes = [res]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and meta["selftest_ok"] \
        and meta.get("counts_repeat", True)
    meta.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "git_rev": git_rev(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
    })
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
