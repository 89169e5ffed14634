"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The smoke tests run every workload for one second (a verify-sweep pass
takes longer; a run always completes one pass), so the file needs about
a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import CheckFailed, check_spinor, check_verify, reference_spinor
from workloads import WORKLOADS, Op, execute

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMED = {
    "verify-sweep": ["verify_n5_s", "verify_n20_s", "verified_states_per_s"],
    "tables": ["wavefn_csv_ms", "wavefn_json_ms", "rows_per_s"],
    "spinor-points": ["spinor_p50_ms", "spinor_p90_ms", "spinor_calls_per_s"],
}


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(NAMED))
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if not trace:
        for name in ["setup_s", "peak_rss_mb", "failed_frac", *NAMED[workload]]:
            assert any(line.split()[:1] == [name] and len(line.split()) >= 3
                       for line in lines), name
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "tables", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


REPORT = (
    "name,measured,tolerance,passed,detail\n"
    "fd-spectrum,1e-05,0.001,true,x\n"
    "dirac-energy-map,1e-05,0.001,true,x\n"
    "ode-residual,1e-15,1e-12,true,x\n"
    "coupled-residual,1e-09,1e-06,true,x\n"
    "node-counts,0,0,true,x\n"
    "normalization,1e-14,1e-08,true,x\n"
    "kummer-laguerre,1e-14,1e-10,true,x\n"
).encode()


def _op(outputs, check):
    results = iter(outputs)
    return Op("test", "key", lambda: next(results), check)


def _digest_of(check):
    def checked(data):
        check(data)
        return data
    return checked


def test_a_report_with_one_failed_check_counts_as_failed():
    digests = {}
    good = execute(_op([REPORT], _digest_of(check_verify)), digests, lambda: 0.0)
    bad_report = REPORT.replace(b"1e-09,1e-06,true", b"2e-06,1e-06,false")
    bad = execute(_op([bad_report], _digest_of(check_verify)), {}, lambda: 0.0)
    assert good.ok
    assert not bad.ok and "coupled-residual" in bad.reason


def test_a_spinor_value_off_by_1e_6_counts_as_failed():
    psi1, psi2 = reference_spinor(7, 2, 1.7, 0.4)
    check_spinor(7, 2, 1.7, 0.4, psi1, psi2)
    with pytest.raises(CheckFailed):
        check_spinor(7, 2, 1.7, 0.4, psi1 + 1e-6, psi2)
    with pytest.raises(CheckFailed):
        check_spinor(7, 2, 1.7, 0.4, psi1, psi2 - 1e-6j)


def test_a_repeat_with_different_output_counts_as_failed():
    digests = {}
    op = _op([REPORT, REPORT.replace(b"1e-05,0.001", b"2e-05,0.001", 1)], _digest_of(check_verify))
    assert execute(op, digests, lambda: 0.0).ok
    again = execute(op, digests, lambda: 0.0)
    assert not again.ok and "differs" in again.reason


def test_an_exception_counts_as_failed():
    def boom():
        raise ValueError("out of domain")

    rec = execute(Op("test", "key", boom, _digest_of(check_verify)), {}, lambda: 0.0)
    assert not rec.ok and "out of domain" in rec.reason


def test_tracer_wraps_import_copies_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    import dirac2d
    from spans import Tracer

    original = dirac2d.wavefn.radial_psi1
    p = dirac2d.natural_params()
    qn = dirac2d.QuantumNumbers(n=1, m=0)
    energy = dirac2d.energy(qn, p).E
    tracer = Tracer(dirac2d)
    tracer.install()
    try:
        assert dirac2d.oracle.radial_psi1 is dirac2d.wavefn.radial_psi1 is not original
        assert dirac2d.wavefn.kummer_m is dirac2d.specfun.kummer_m
        assert not hasattr(dirac2d.oracle._negative_pivot_count, "__wrapped__")
        dirac2d.spinor_sample(qn, 1.0, 0.0, energy, p)
    finally:
        tracer.uninstall()
    assert dirac2d.oracle.radial_psi1 is original
    stats = tracer.self_times()
    assert stats["wavefn.spinor_sample"][0] == 1
    assert stats["specfun.kummer_m"][0] == 4
    assert stats["specfun.kummer_m"][2] == 2 * 4097 + 2  # two grid, two point calls
    assert stats["wavefn.KummerProfile.value_z"][0] == 4
    assert sum(row[1] for row in stats.values()) <= (
        tracer.spans[0][2] - tracer.spans[0][1]
    ) * (1 + 1e-9)


def test_every_workload_is_declared():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
