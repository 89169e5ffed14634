"""Summarise and compare benchmark runs.

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

Each file holds the final JSON lines of several runs of one workload (other
lines are ignored).  For every metric this prints the median, the
quartiles and the spread (quartile distance over the median).  With a
second file it also prints the change of the median, measured in the
metric's "worse" direction, against the bound that BENCHMARK.json fixes.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    runs = [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.startswith("{")]
    values = {}
    for run in runs:
        if not run["correct"]:
            print(f"{path}: a run reported correct=false", file=sys.stderr)
        for name, metric in run["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def summary(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = load(argv[0])
    change = load(argv[1]) if len(argv) == 2 else {}
    worst = 0.0
    for name, values in base.items():
        median, q1, q3, spread = summary(values)
        meta = metrics.get(name, {})
        bound = meta.get("bound")
        line = (f"{name:42s} n={len(values):2d} median {median:.6g} "
                f"[{q1:.6g}, {q3:.6g}] spread {spread:.3f}")
        if bound is not None:
            line += f" (bound {bound})"
            if name != "setup_s":
                worst = max(worst, spread / bound)
        if name in change:
            other = statistics.median(change[name])
            sign = 1.0 if meta.get("better") == "lower" else -1.0
            worse = sign * (other / median - 1.0) if median else 0.0
            flag = " REGRESSION" if bound is not None and worse > bound else ""
            line += f" -> {other:.6g} ({worse:+.3f} worse){flag}"
        print(line)
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
