"""The three benchmark workloads.

A workload is a fixed list of operations per pass, issued closed-loop: the
next operation starts when the previous one returns.  Only ``Op.run`` is
timed; preparing the output path, reading the result back and checking it
happen outside the timed region.  Every pass repeats the same inputs (in a
seeded order), except spinor-points, which draws fresh points each pass.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import (
    GRID_POINTS,
    CheckFailed,
    check_nr_limit,
    check_spectrum,
    check_spinor,
    check_verify,
    check_wavefn,
    dirac_energy,
)

VERIFY_CONFIGS = ((0, 5), (3, 5), (0, 20), (3, 20))  # (m, n_max)
PROBE = (60, 5)  # outside the default grid's domain today
WAVEFN_STATES = tuple((n, m) for n in (0, 5, 10, 20) for m in (0, 4))
SPECTRUM_N_MAX = 1000
NR_N_MAX = 200
NR_LAMBDAS = (1e-2, 1e-3, 1e-4)  # the cli default
SPINOR_N_MAX = 20
SPINOR_M_MAX = 5
SPINOR_RHO_MAX = 6.0  # oscillator lengths


@dataclass
class Op:
    """One closed-loop operation.

    ``run`` is the timed call.  ``check`` raises CheckFailed on a wrong
    result and otherwise returns bytes that must repeat exactly whenever
    the same ``key`` runs again in the process.  ``items`` counts rows or
    verified states the result delivers.
    """

    kind: str
    key: str
    run: Callable[[], object]
    check: Callable[[object], bytes]
    items: int = 0
    probe: bool = False
    path: Path | None = None  # the command's output file, if it writes one


@dataclass
class Record:
    op: Op
    seconds: float
    ok: bool
    reason: str = ""
    start: float = 0.0
    ref_s: float = 1.0  # reference-kernel time around this operation

    @property
    def rel(self) -> float:
        """Time in multiples of the reference kernel's time next to it."""
        return self.seconds / self.ref_s


def execute(op: Op, digests: dict, clock, tracer=None) -> Record:
    """Run one operation, timing only ``op.run``, then check its result."""
    if op.path is not None:
        op.path.unlink(missing_ok=True)
    if tracer is not None:
        tracer.op += 1
        tracer.install()
    error = None
    start = clock()
    try:
        result = op.run()
    except Exception as exc:  # a failing operation is counted, the run goes on
        error = exc
    seconds = clock() - start
    if tracer is not None:
        tracer.uninstall()
    if error is not None:
        return Record(op, seconds, False, f"{type(error).__name__}: {error}", start)
    try:
        digest = op.check(result)
    except CheckFailed as exc:
        return Record(op, seconds, False, str(exc), start)
    except (OSError, ValueError, KeyError, IndexError) as exc:  # malformed output
        return Record(op, seconds, False, f"unreadable result: {type(exc).__name__}: {exc}", start)
    if digests.setdefault(op.key, digest) != digest:
        return Record(op, seconds, False, f"{op.key}: output differs from its first run", start)
    return Record(op, seconds, True, "", start)


def _cli_op(pkg, kind, key, argv, path: Path, check, items=0, probe=False) -> Op:
    """An in-process ``dirac2d`` command whose output goes to ``path``."""

    def run():
        captured = io.StringIO()
        with redirect_stdout(captured), redirect_stderr(captured):
            rc = pkg.cli.main([*argv, "--output", str(path)])
        return rc, captured.getvalue()

    def checked(result):
        rc, messages = result
        if rc != 0:
            raise CheckFailed(f"{argv[0]} exited with status {rc}: {messages.strip()}")
        data = path.read_bytes()
        check(data)
        return hashlib.sha256(data).digest()

    return Op(kind, key, run, checked, items, probe, path)


def _median_by_key(records, kind, time_of) -> float:
    """Mean over configurations of each configuration's median time."""
    by_key: dict[str, list[float]] = {}
    for r in records:
        if r.op.kind == kind:
            by_key.setdefault(r.op.key, []).append(time_of(r))
    return statistics.fmean(statistics.median(v) for v in by_key.values())


class VerifySweep:
    """``verify`` at two sizes and two m, plus the m=60 domain-edge probe."""

    name = "verify-sweep"
    reference = ("scalar", "vector")  # Sturm counts and Kummer series, about half each
    # end-to-end slot -> (named metric, factor from its unit to the slot's)
    slots = {
        "light": ("verify_n5_s", 1.0),
        "heavy": ("verify_n20_s", 1.0),
        "throughput": ("verified_states_per_s", 1.0),
    }

    def __init__(self, pkg, workdir: Path, seed: int):
        self.pkg, self.workdir, self.rng = pkg, workdir, random.Random(seed)

    def _op(self, m, n_max, probe=False):
        path = self.workdir / f"verify_m{m}_n{n_max}.csv"
        argv = ["verify", "--n-max", str(n_max), "--m", str(m)]
        kind = "probe" if probe else f"verify-n{n_max}"
        return _cli_op(
            self.pkg, kind, f"m{m}-n{n_max}", argv, path, check_verify, n_max + 1, probe
        )

    def warm_up(self):
        self._op(0, 0).run()

    def next_pass(self) -> list[Op]:
        ops = [self._op(m, n_max) for m, n_max in VERIFY_CONFIGS]
        ops.append(self._op(*PROBE, probe=True))
        self.rng.shuffle(ops)
        return ops

    def summary(self, records, time_of):
        done = [r for r in records if not r.op.probe]
        states = sum(r.op.items for r in done if r.ok)
        return {
            "verify_n5_s": (_median_by_key(done, "verify-n5", time_of), "s"),
            "verify_n20_s": (_median_by_key(done, "verify-n20", time_of), "s"),
            "verified_states_per_s": (states / sum(map(time_of, done)), "1/s"),
        }


class Tables:
    """``wavefn`` tables in both formats plus long spectrum and nr-limit tables."""

    name = "tables"
    reference = ("render",)  # row building and rendering dominate
    slots = {
        "light": ("wavefn_csv_ms", 1e-3),
        "heavy": ("wavefn_json_ms", 1e-3),
        "throughput": ("rows_per_s", 1.0),
    }

    def __init__(self, pkg, workdir: Path, seed: int):
        self.pkg, self.workdir, self.rng = pkg, workdir, random.Random(seed)

    def _wavefn(self, n, m, fmt):
        path = self.workdir / f"wavefn_n{n}_m{m}.{fmt}"
        argv = ["wavefn", "--n", str(n), "--m", str(m), "--format", fmt]
        return _cli_op(
            self.pkg, f"wavefn-{fmt}", f"n{n}-m{m}-{fmt}", argv, path,
            lambda data: check_wavefn(n, fmt, data), GRID_POINTS,
        )

    def warm_up(self):
        self._wavefn(0, 0, "csv").run()

    def next_pass(self) -> list[Op]:
        ops = [self._wavefn(n, m, fmt) for n, m in WAVEFN_STATES for fmt in ("csv", "json")]
        ops.append(
            _cli_op(
                self.pkg, "spectrum", "spectrum",
                ["spectrum", "--n-max", str(SPECTRUM_N_MAX)],
                self.workdir / "spectrum.csv",
                lambda data: check_spectrum(SPECTRUM_N_MAX, data),
                SPECTRUM_N_MAX + 1,
            )
        )
        ops.append(
            _cli_op(
                self.pkg, "nr-limit", "nr-limit",
                ["nr-limit", "--n-max", str(NR_N_MAX)],
                self.workdir / "nr_limit.csv",
                lambda data: check_nr_limit(NR_LAMBDAS, NR_N_MAX, data),
                len(NR_LAMBDAS) * (NR_N_MAX + 1),
            )
        )
        self.rng.shuffle(ops)
        return ops

    def summary(self, records, time_of):
        rows = sum(r.op.items for r in records if r.ok)
        return {
            "wavefn_csv_ms": (1e3 * _median_by_key(records, "wavefn-csv", time_of), "ms"),
            "wavefn_json_ms": (1e3 * _median_by_key(records, "wavefn-json", time_of), "ms"),
            "rows_per_s": (rows / sum(map(time_of, records)), "1/s"),
        }


class SpinorPoints:
    """Single-point ``spinor_sample`` queries.

    Each pass visits every (n, m) with n <= 20, m <= 5 once, in seeded order,
    at a fresh seeded (rho, phi).  Covering every state each pass keeps the
    cost mix, which depends on n and m, the same for every seed.
    """

    name = "spinor-points"
    reference = ("vector",)  # full-grid Kummer series dominate
    slots = {
        "light": ("spinor_p50_ms", 1e-3),
        "heavy": ("spinor_p90_ms", 1e-3),
        "throughput": ("spinor_calls_per_s", 1.0),
    }

    def __init__(self, pkg, workdir: Path, seed: int):
        self.pkg, self.rng = pkg, random.Random(seed)
        self.params = pkg.units.natural_params()

    def _op(self, n, m, rho, phi, recheck=False):
        pkg, params = self.pkg, self.params
        qn = pkg.spectrum.QuantumNumbers(n=n, m=m)
        energy = dirac_energy(n)

        def run():
            return pkg.wavefn.spinor_sample(qn, rho, phi, energy, params)

        def checked(sample):
            check_spinor(n, m, rho, phi, sample.psi1, sample.psi2)
            if recheck and repr(run()) != repr(sample):
                raise CheckFailed(f"spinor_sample(n={n}, m={m}) differs on a repeat")
            return repr(sample).encode()

        return Op("spinor", f"n{n}-m{m}-{rho!r}-{phi!r}", run, checked, 1)

    def warm_up(self):
        self._op(0, 0, 1.0, 0.0).run()

    def next_pass(self) -> list[Op]:
        states = [(n, m) for n in range(SPINOR_N_MAX + 1) for m in range(SPINOR_M_MAX + 1)]
        self.rng.shuffle(states)
        ops = []
        for i, (n, m) in enumerate(states):
            rho = SPINOR_RHO_MAX * (1.0 - self.rng.random())  # in (0, 6b]
            phi = 2.0 * math.pi * self.rng.random()
            ops.append(self._op(n, m, rho, phi, recheck=i == 0))
        return ops

    def summary(self, records, time_of):
        times = sorted(map(time_of, records))
        return {
            "spinor_p50_ms": (1e3 * statistics.median(times), "ms"),
            "spinor_p90_ms": (1e3 * statistics.quantiles(times, n=10)[-1], "ms"),
            "spinor_calls_per_s": (len(times) / sum(times), "1/s"),
        }


WORKLOADS = {w.name: w for w in (VerifySweep, Tables, SpinorPoints)}
