"""dirac2d benchmark: run one workload (or all three) and report its metrics.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

Runs one workload (or ``all`` three, one after another) against the dirac2d
sources of this checkout, checks every result, prints each metric by name
and unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end slots listed in BENCHMARK.json; with ``--trace 1``
they are the per-layer metrics of a traced run.

Every workload process is started fresh by worker.py, one at a time, with
OMP/OpenBLAS/MKL limited to one thread.  ``setup_s`` is the median over
SETUP_RUNS process starts of the time from spawning the process to the end
of its untimed warm-up operation, dirac2d imports included.  The timed
operations are reported twice: in seconds (printed) and, in the JSON line,
divided by a reference kernel timed next to them (see calibrate.py).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("verify-sweep", "tables", "spinor-points")
SETUP_RUNS = 7
TIME_LIMIT_S = 170.0  # per invocation of this script, spawn included
SLOT_UNITS = {"light": "ref", "heavy": "ref", "throughput": "1/ref"}
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def spawn(workload, seed, seconds, mode, deadline):
    """Run worker.py once; returns (seconds from spawn to ready, result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env={**os.environ, **THREAD_ENV}
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{workload} {mode} process exceeded the time limit")
    if proc.returncode != 0:
        raise WorkerError(f"{workload} {mode} process exited with status {proc.returncode}")
    ready, result = None, None
    for line in out.splitlines():
        tag, _, body = line.partition(" ")
        if tag == "ready":
            ready = float(body) - start
        elif tag == "result":
            result = json.loads(body)
    if ready is None or (mode != "setup" and result is None):
        raise WorkerError(f"{workload} {mode} process printed no result")
    return ready, result


def run_workload(name, seed, seconds, traced, deadline):
    """Metrics of one workload: (result summary, metrics {name: (value, unit)})."""
    if traced:
        _, result = spawn(name, seed, seconds, "trace", deadline)
        return result, result["layer_metrics"]
    # Set-up samples sit on both sides of the measuring process, so that a
    # slow spell of the machine rarely covers all of them.
    setups = [spawn(name, seed, seconds, "setup", deadline)[0] for _ in range(SETUP_RUNS // 2)]
    ready, result = spawn(name, seed, seconds, "measure", deadline)
    setups.append(ready)
    setups += [spawn(name, seed, seconds, "setup", deadline)[0]
               for _ in range(SETUP_RUNS - len(setups))]
    result["named"] = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        **result["named"],
    }
    metrics = {k: result["named"][k] for k in ("setup_s", "peak_rss_mb")}
    metrics.update((slot, (value, SLOT_UNITS[slot])) for slot, value in result["slots"].items())
    return result, metrics


def report(name, seed, result, metrics, traced):
    """Human-readable lines for one workload (the last stdout line stays JSON)."""
    probe = result["probe"]
    attempted = result["attempted"] + probe["attempted"]
    failed = result["failed"] + probe["failed"]
    print(f"[{name}] seed {seed}, {result['passes']} passes, "
          f"{'traced' if traced else 'untraced'}")
    print(f"  provenance {json.dumps(result['provenance'], sort_keys=True)}")
    shown = metrics if traced else result["named"]
    for metric, (value, unit) in shown.items():
        print(f"  {metric:42s} {value:.6g} {unit}")
    if not traced:
        print(f"  reference kernel: median {result['ref_ms']:.4g} ms "
              f"over {result['ref_samples']} runs; per reference time:")
        for slot in result["slots"]:
            value, unit = metrics[slot]
            print(f"  {slot:42s} {value:.6g} {unit}")
    print(f"  {'failed_frac':42s} {failed / attempted:.6g} ratio "
          f"({failed}/{attempted} operations)")
    if probe["attempted"]:
        print(f"  m=60 probe failed {probe['failed']}/{probe['attempted']}: "
              f"{'; '.join(probe['reasons']) or 'none'}")
    for reason in result["failures"]:
        print(f"  FAILED {reason}")
    if traced:
        print(f"  {result['spans']} spans written to {result['trace_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "dirac2d" / "__init__.py").is_file():
        print(f"error: no dirac2d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    attempted = failed = 0
    all_metrics = {}
    try:
        for name in names:
            result, metrics = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            report(name, args.seed, result, metrics, args.trace)
            attempted += result["attempted"]
            failed += result["failed"]
            prefix = f"{name}/" if args.workload == "all" else ""
            all_metrics.update((prefix + k, v) for k, v in metrics.items())
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in all_metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
