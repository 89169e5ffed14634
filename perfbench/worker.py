"""One workload process: import dirac2d, warm up, then measure or trace.

run.py starts this script once per process, one process at a time, with
the BLAS/OpenMP thread counts set to 1.  It writes two lines to stdout:
``ready <time.monotonic()>`` once the imports and the untimed warm-up
operation are done, then ``result <json>`` (nothing more in ``setup``
mode).  Output files of the commands go to a temporary directory under
``perfbench/out`` that is removed on exit.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import calibrate
from spans import Tracer
from workloads import WORKLOADS, execute

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REF_INTERVAL_S = 0.5

# per-layer metric -> (span name or layer prefix, statistic)
PER_LAYER = {
    "oracle.self_share": ("oracle.", "share"),
    "oracle.smallest_eigenvalues.calls": ("oracle.smallest_eigenvalues", "calls"),
    "oracle.smallest_eigenvalues.levels": ("oracle.smallest_eigenvalues", "work0"),
    "oracle.smallest_eigenvalues.self_share": ("oracle.smallest_eigenvalues", "share"),
    "oracle.build_radial_operator.self_share": ("oracle.build_radial_operator", "share"),
    "oracle.ode_residual.calls": ("oracle.ode_residual", "calls"),
    "oracle.ode_residual.self_share": ("oracle.ode_residual", "share"),
    "oracle.coupled_residual.calls": ("oracle.coupled_residual", "calls"),
    "oracle.coupled_residual.self_share": ("oracle.coupled_residual", "share"),
    "oracle.integrate_radial.calls": ("oracle.integrate_radial", "calls"),
    "oracle.integrate_radial.self_share": ("oracle.integrate_radial", "share"),
    "specfun.self_share": ("specfun.", "share"),
    "specfun.kummer_m.calls": ("specfun.kummer_m", "calls"),
    "specfun.kummer_m.points": ("specfun.kummer_m", "work0"),
    "specfun.kummer_m.terms": ("specfun.kummer_m", "work1"),
    "specfun.kummer_m.self_share": ("specfun.kummer_m", "share"),
    "specfun.kummer_m.calls_per_op": ("specfun.kummer_m", "per_op"),
    "specfun.laguerre.calls": ("specfun.laguerre", "calls"),
    "specfun.laguerre.self_share": ("specfun.laguerre", "share"),
    "wavefn.self_share": ("wavefn.", "share"),
    "wavefn.radial_psi1.calls": ("wavefn.radial_psi1", "calls"),
    "wavefn.derive_lower_component.calls": ("wavefn.derive_lower_component", "calls"),
    "wavefn.normalize.calls": ("wavefn.normalize", "calls"),
    "wavefn.default_grid.calls": ("wavefn.default_grid", "calls"),
    "wavefn.spinor_sample.calls": ("wavefn.spinor_sample", "calls"),
    "wavefn.profile_evals": ("wavefn.KummerProfile.", "calls"),
    "wavefn.errors": ("wavefn.", "errors"),
    "cli.self_share": ("cli.", "share"),
    "cli.commands": ("cli.main", "calls"),
    "spectrum.self_share": ("spectrum.", "share"),
    "spectrum.energy.calls": ("spectrum.energy", "calls"),
    "units.self_share": ("units.", "share"),
    "units.to_dimensionless_z.calls": ("units.to_dimensionless_z", "calls"),
}
UNITS = {"share": "ratio", "per_op": "count", "errors": "count"}


def import_package():
    """Import dirac2d from this checkout's src/, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import dirac2d
    import dirac2d.cli  # noqa: F401  (part of set-up, as the cli pays it)

    if Path(dirac2d.__file__).resolve().parent != src / "dirac2d":
        raise SystemExit(f"dirac2d imported from {dirac2d.__file__}, not {src}")
    return dirac2d


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    import numpy as np

    src_lines = sum(
        len(path.read_text().splitlines()) for path in (ROOT / "src").rglob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_lines": src_lines,
        "threads_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _failures(records) -> list[str]:
    return sorted({r.reason for r in records if not r.ok and not r.op.probe})[:5]


def _probe(records) -> dict:
    probes = [r for r in records if r.op.probe]
    return {
        "attempted": len(probes),
        "failed": sum(not r.ok for r in probes),
        "reasons": sorted({r.reason for r in probes if not r.ok}),
    }


def measure(workload, seconds):
    """Whole passes until ``seconds`` have elapsed; end-to-end metrics.

    The workload's reference kernels run between operations whenever
    REF_INTERVAL_S has passed since their last run; each operation is
    divided by the median of the (up to) four reference times nearest to
    its start.
    """
    records, digests, refs, passes = [], {}, [], 0
    deadline = time.perf_counter() + seconds
    while True:
        for op in workload.next_pass():
            if not refs or time.perf_counter() - refs[-1][0] >= REF_INTERVAL_S:
                refs.append((time.perf_counter(), calibrate.timed(workload.reference)))
            records.append(execute(op, digests, time.perf_counter))
        passes += 1
        if time.perf_counter() >= deadline:
            break
    refs.append((time.perf_counter(), calibrate.timed(workload.reference)))
    starts = [t for t, _ in refs]
    for r in records:
        i = bisect.bisect(starts, r.start)
        r.ref_s = statistics.median(s for _, s in refs[max(0, i - 2):i + 2])
    counted = [r for r in records if not r.op.probe]
    relative = workload.summary(records, lambda r: r.rel)
    return {
        "passes": passes,
        "attempted": len(counted),
        "failed": sum(not r.ok for r in counted),
        "failures": _failures(records),
        "probe": _probe(records),
        "named": workload.summary(records, lambda r: r.seconds),
        "slots": {
            slot: relative[metric][0] * factor
            for slot, (metric, factor) in workload.slots.items()
        },
        "ref_ms": 1e3 * statistics.median(s for _, s in refs),
        "ref_samples": len(refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(workload, seconds, pkg, trace_path):
    """Alternate untraced and traced passes; per-layer metrics per traced pass."""
    tracer = Tracer(pkg)
    records, digests = [], {}
    walls = {False: [], True: []}
    bytes_written = 0
    ops = 0
    deadline = time.perf_counter() + seconds
    while True:
        for traced in (False, True):
            wall = 0.0
            for op in workload.next_pass():
                rec = execute(op, digests, time.perf_counter, tracer if traced else None)
                records.append(rec)
                wall += rec.seconds
                if traced:
                    ops += 1
                    if rec.ok and op.path is not None:
                        bytes_written += op.path.stat().st_size
            walls[traced].append(wall)
        if time.perf_counter() >= deadline:
            break
    passes = len(walls[True])
    traced_wall = sum(walls[True])
    stats = tracer.self_times()

    def stat(target, kind):
        rows = [row for name, row in stats.items()
                if name == target or (target.endswith(".") and name.startswith(target))]
        if kind == "share":
            return sum(r[1] for r in rows) / traced_wall
        if kind == "per_op":
            return sum(r[0] for r in rows) / ops
        column = {"calls": 0, "work0": 2, "work1": 3, "errors": 4}[kind]
        return sum(r[column] for r in rows) / passes

    probe = _probe(records)
    metrics = {
        "trace.overhead": (statistics.median(walls[True]) / statistics.median(walls[False]), "ratio"),
        "trace.pass_wall_s": (traced_wall / passes, "s"),
        "probe.failures": (probe["failed"] / (2 * passes), "count"),
        "cli.bytes_written": (bytes_written / passes, "bytes"),
    }
    for metric, (target, kind) in PER_LAYER.items():
        metrics[metric] = (stat(target, kind), UNITS.get(kind, "count"))
    tracer.write(
        trace_path,
        {"workload": workload.name, "traced_passes": passes, "ops": ops,
         "self_times": stats},
    )
    counted = [r for r in records if not r.op.probe]
    return {
        "passes": 2 * passes,
        "attempted": len(counted),
        "failed": sum(not r.ok for r in counted),
        "failures": _failures(records),
        "probe": probe,
        "layer_metrics": metrics,
        "spans": len(tracer.spans),
        "trace_file": str(trace_path.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args(argv)

    pkg = import_package()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](pkg, workdir, args.seed)
        workload.warm_up()
        print(f"ready {time.monotonic()!r}", flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "measure":
            result = measure(workload, args.seconds)
        else:
            result = trace(
                workload, args.seconds, pkg, OUT / f"spans-{args.workload}.jsonl.gz"
            )
        result["provenance"] = provenance()
        print("result " + json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
