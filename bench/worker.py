"""One measured pass of one workload, in a fresh process.

    python3 bench/worker.py '{"workload": "certify", "seed": 1, ...}'

Keys: workload, seed, seconds, min_ops, max_ops, wall_limit, fixed_ops
(run exactly this many ops instead of running for `seconds`), trace
(record spans) and spans_path (where a traced pass writes its spans).

Before the measured ops, a self-test runs one extra op, checks its real
output (which must pass) and a deliberately corrupted copy of it (which
must fail), through the same tally that counts the run's failures.

Each op is timed between two samples of speed.py's fixed unit of work,
whose mean is reported with the op's time.

Prints one JSON line: per-op times, units and classes, the failure
tally, the self-test outcome, peak RSS and, for a traced pass,
per-layer totals.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from workloads import WORKLOADS, Timer  # noqa: E402


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


def _checked(workload, op, out):
    try:
        return workload.check(op, out)
    except Exception as exc:  # a malformed output must count, not crash
        return f"check raised {type(exc).__name__}: {exc}"


def self_test(workload, seed: int) -> bool:
    """The checker accepts a real output and rejects a corrupted one."""
    op = workload.selftest_op(random.Random(f"selftest-{seed}"))
    try:
        out = workload.run(op, Timer())
    except Exception:  # a broken program fails the self-test, not the run
        return False
    good = _checked(workload, op, out)
    bad = _checked(workload, op, workload.corrupt(op, out))
    tally = Tally()
    tally.add(good)
    tally.add(bad)
    return good is None and bad is not None and tally.failed == 1


def main(config: dict) -> dict:
    workload = WORKLOADS[config["workload"]]()
    tracer = None
    if config.get("trace"):
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    selftest_ok = self_test(workload, config["seed"])

    tally = Tally()
    times, units, classes, op_ranges = [], [], [], []
    wall_start = time.perf_counter()
    fixed = config.get("fixed_ops")
    for op in workload.ops(config["seed"]):
        first = len(tracer.name) if tracer else 0
        unit = speed.sample()
        timer = Timer(tracer)
        try:
            out = workload.run(op, timer)
        except Exception as exc:
            out = None
            reason = f"operation raised {type(exc).__name__}: {exc}"
        else:
            reason = None
        if tracer is not None:
            tracer.end_op()
            op_ranges.append((first, len(tracer.name), op.cls))
        times.append(timer.elapsed)
        units.append((unit + speed.sample()) / 2)
        classes.append(op.cls)
        tally.add(reason or _checked(workload, op, out))
        n = len(times)
        if fixed is not None:
            if n >= fixed:
                break
            continue
        if time.perf_counter() - wall_start > config["wall_limit"] \
                or n >= config["max_ops"]:
            break
        if n % workload.BLOCK == 0 and sum(times) >= config["seconds"] \
                and n >= config["min_ops"]:
            break

    result = {
        "times": times, "units": units, "classes": classes,
        "attempted": tally.attempted, "failed": tally.failed,
        "reasons": tally.reasons, "selftest_ok": bool(selftest_ok),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "wall_s": time.perf_counter() - wall_start,
    }
    if tracer is not None:
        calls, self_s, by_class, incl_by_class, acts_in_nf = \
            tracer.aggregate(op_ranges)
        counts = dict(tracer.counts)
        counts["homology.validate_lift.lifts"] = tracer.distinct_lifts
        counts["amalgam.normal_form.acts"] = acts_in_nf
        class_time = {}
        for t, cls in zip(times, classes):
            class_time[cls] = class_time.get(cls, 0.0) + t
        result["trace"] = {
            "calls": dict(calls), "self_s": dict(self_s), "counts": counts,
            "self_by_class": [[c, name, s] for (c, name), s in by_class.items()],
            "incl_by_class": [[c, name, s]
                              for (c, name), s in incl_by_class.items()],
            "class_time": class_time, "spans": len(tracer.name),
        }
        if config.get("spans_path"):
            tracer.dump(config["spans_path"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
