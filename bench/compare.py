"""Compare benchmark runs of two commits.

    python3 bench/compare.py PARENT.txt CHANGE.txt

Each file holds the standard output of several ``bench/run.py`` runs of
one commit, appended one after another.  Run the two commits in
alternating order (parent, change, change, parent, ...), with the same
seeds and settings; the i-th run of a workload in one file is paired with
the i-th run of that workload in the other.

For every workload and metric the report prints each side's median and
quartiles, the share of pairs each side won (ties count for neither) and
the change's median as a ratio of the parent's, with that base.  An
end-to-end metric gets a verdict, with the bound from BENCHMARK.json:

  improved     the change won at least 9 in 10 pairs and the medians
               differ by more than the parent's quartile distance;
  unresolved   either side's quartile distance exceeds the bound (as a
               share of its median), unless every run of the change
               reads better than every run of the parent;
  regressed    the change's median is worse by more than the bound;
  within bound otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: str) -> dict:
    """{(workload, trace): [metrics dict per run, in file order]}."""
    runs: dict = {}
    meta = None
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "meta" in obj:
            meta = obj["meta"]
        elif "metrics" in obj and meta is not None:
            key = (meta["workload"], meta["trace"])
            runs.setdefault(key, []).append(
                {k: v["value"] for k, v in obj["metrics"].items()})
            meta = None
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, won_b: int, sign: int, bound: float) -> str:
    """sign is 1 when lower is better, -1 when higher is better."""
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    if won_b >= 0.9 * min(len(a), len(b)) and abs(mb - ma) > qa3 - qa1:
        return "improved"
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    spread = max((qa3 - qa1) / abs(ma) if ma else 0.0,
                 (qb3 - qb1) / abs(mb) if mb else 0.0)
    if spread > bound and not all_better:
        return "unresolved"
    if ma and sign * (mb - ma) / abs(ma) > bound:
        return "regressed"
    return "within bound"


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower"
             for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_runs(argv[1]), load_runs(argv[2])
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        a_runs, b_runs = parent[key], change[key]
        n = min(len(a_runs), len(b_runs))
        print(f"== {workload} (trace {trace}): {n} pairs "
              f"({len(a_runs)} parent runs, {len(b_runs)} change runs)")
        print(f"  {'metric':40} {'parent median [q1, q3]':>30} "
              f"{'change median [q1, q3]':>30} {'won P | C':>11} "
              f"{'change/parent (base)':>30}  verdict")
        for name in a_runs[0]:
            a = [r[name] for r in a_runs if name in r]
            b = [r[name] for r in b_runs if name in r]
            if not a or not b:
                continue
            sign = 1 if lower.get(name, True) else -1
            pairs = list(zip(a, b))
            won_b = sum(1 for x, y in pairs if sign * (y - x) < 0)
            won_a = sum(1 for x, y in pairs if sign * (y - x) > 0)
            qa1, ma, qa3 = quartiles(a)
            qb1, mb, qb3 = quartiles(b)
            ratio = f"{mb / ma:.4f} of {ma:.6g}" if ma else f"base {ma}"
            if name in bounds:
                text = verdict(a, b, won_b, sign, bounds[name]["bound"])
                text += f" (bound {bounds[name]['bound']})"
            else:
                text = "no bound (per-layer)"
            won = f"{won_a}/{len(pairs)} | {won_b}/{len(pairs)}"
            print(f"  {name:40} {ma:>12.6g} [{qa1:.4g}, {qa3:.4g}]"
                  f"  {mb:>12.6g} [{qb1:.4g}, {qb3:.4g}]"
                  f"  {won:>11}  {ratio:>27}  {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
