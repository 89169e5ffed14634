"""Byte-for-byte comparison of command output against pinned golden files.

Each case runs one ``dirac2d`` command in process and compares the file it
writes with ``tests/golden/<name>``; a mismatch names the first differing
line.  The files pin the output of the closed forms and of the verification
report, so refactors that must not change a number are checked here.

After an intended output change, regenerate every golden file with

    python tests/test_golden.py

(no arguments: any argument prints the usage and writes nothing) and review
the diff before committing it.  Each case is written to a temporary file
first, which replaces its golden file only if the exit status matches.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from dirac2d.cli import main  # noqa: E402

# name -> (command line without --output, expected exit status)
CASES = {
    "spectrum_natural.csv": ("spectrum --n-max 1000 --m 2", 0),
    "spectrum_natural.json": (
        "spectrum --n-max 40 --m0 2.5 --omega 0.3 --format json",
        0,
    ),
    "spectrum_si.csv": ("spectrum --units si --n-max 20", 0),
    "spectrum_si.json": ("spectrum --units si --omega 1e15 --n-max 5 --format json", 0),
    "wavefn_natural.csv": ("wavefn --n 3 --m 2", 0),
    "wavefn_natural_1025.json": (
        "wavefn --n 1 --m 0 --grid-points 1025 --format json",
        0,
    ),
    "wavefn_si_1025.csv": ("wavefn --units si --n 2 --m 1 --grid-points 1025", 0),
    "verify_n20_m3.csv": ("verify --n-max 20 --m 3", 0),
    "verify_natural.json": ("verify --n-max 4 --m 1 --omega 0.5 --format json", 0),
    "verify_si.csv": ("verify --units si --n-max 3", 0),
    "verify_si.json": ("verify --units si --n-max 2 --format json", 0),
    "nr_limit.csv": ("nr-limit --n-max 10", 0),
    "nr_limit.json": (
        "nr-limit --lambdas 0.1,0.05,1e-3,1e-6 --n-max 4 --format json",
        0,
    ),
}


def run_case(name: str, output: Path) -> None:
    command, expected_status = CASES[name]
    status = main([*command.split(), "--output", str(output)])
    if status != expected_status:
        raise AssertionError(
            f"{name}: exit status {status}, expected {expected_status}"
        )


def first_difference(expected: bytes, actual: bytes) -> str:
    old = expected.decode().split("\n")
    new = actual.decode().split("\n")
    for i, (a, b) in enumerate(zip(old, new), start=1):
        if a != b:
            return f"line {i} differs:\n  golden: {a}\n  actual: {b}"
    return f"line counts differ: golden {len(old)}, actual {len(new)}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path):
    output = tmp_path / name
    run_case(name, output)
    expected = (GOLDEN / name).read_bytes()
    actual = output.read_bytes()
    if actual != expected:
        pytest.fail(f"{name}: {first_difference(expected, actual)}")


def regenerate(argv) -> int:
    """Rewrite every golden file and return 0; any argument returns 2 and writes nothing."""
    if argv:
        print("usage: python tests/test_golden.py  (no arguments)", file=sys.stderr)
        return 2
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        scratch = GOLDEN / f".{name}.new"
        try:
            run_case(name, scratch)
            scratch.replace(GOLDEN / name)
        finally:
            scratch.unlink(missing_ok=True)
    return 0


def test_a_script_argument_prints_the_usage_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # the script once ignored its arguments: --help rewrote every golden file
    golden = tmp_path / "golden"
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", golden)
    assert regenerate(["--help"]) == 2
    assert capsys.readouterr().err.startswith("usage: ")
    assert not golden.exists()


def test_a_case_whose_status_differs_keeps_its_golden_file(tmp_path, monkeypatch):
    # the output replaces a golden file only after its exit status matched
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", tmp_path)
    cases = {"a.csv": ("spectrum --n-max 2", 0), "b.csv": ("spectrum --n-max 2", 1)}
    monkeypatch.setattr(sys.modules[__name__], "CASES", cases)
    for name in cases:
        (tmp_path / name).write_bytes(b"pinned\n")
    with pytest.raises(AssertionError, match="b.csv: exit status 0, expected 1"):
        regenerate([])
    assert (tmp_path / "b.csv").read_bytes() == b"pinned\n"
    assert (tmp_path / "a.csv").read_bytes().startswith(b"n,")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["a.csv", "b.csv"]


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
