"""Command-line front end: spectra, wavefunction tables, verification reports.

Subcommands
-----------
spectrum   energies and eigenvalue bookkeeping for n = 0 .. n_max
wavefn     sampled radial profiles and probability density for one state
verify     run the oracle suite and report pass/fail per check
nr-limit   exact energies against the three-term weak-coupling expansion

Output is CSV (comma separated, '.' decimals, LF line endings, floats in
17-significant-digit scientific form) or JSON (object with "config", "rows"
and "checks" keys; floats serialized in shortest round-trip form).  Rows are
rendered column-wise through one row template, byte-identical to
json.dumps(indent=2) of one dict per row, and written in pieces of
_PIECE_ROWS rows, which ``spectrum`` and ``nr-limit`` also build a piece at
a time: memory does not grow with the row count.  Identical
configurations produce byte-identical files; files are written atomically.
The environment variable DIRAC2D_OUTPUT_DIR redirects relative output paths.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import oracle, spectrum, wavefn
from .spectrum import QuantumNumbers
from .units import PhysicalParams

__all__ = [
    "RunConfig",
    "cmd_spectrum",
    "cmd_wavefn",
    "cmd_verify",
    "cmd_nr_limit",
    "main",
]

OUTPUT_DIR_ENV = "DIRAC2D_OUTPUT_DIR"
_PIECE_ROWS = 256  # rows per written piece: no string or cell list holds more

SI_HBAR = 1.054571817e-34
SI_C = 299792458.0
SI_ELECTRON_MASS = 9.1093837015e-31
# unit system -> default rest mass, hbar and c
_UNITS = {"natural": (1.0, 1.0, 1.0), "si": (SI_ELECTRON_MASS, SI_HBAR, SI_C)}

# verify's pass/fail bound per check, in report order
TOLERANCES = {
    "fd-spectrum": 1e-3,
    "dirac-energy-map": 1e-3,
    "ode-residual": 1e-12,
    "coupled-residual": 1e-12,
    "node-counts": 0.0,
    "normalization": 1e-12,
    "kummer-laguerre": 1e-10,
}


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a command's output."""

    command: str
    units: str = "natural"
    m0: float | None = None
    omega: float | None = None
    n_max: int = 5
    m: int = 0
    n: int = 0
    grid_points: int = 4097
    fmt: str = "csv"
    output: str | None = None
    lambdas: tuple[float, ...] = (1e-2, 1e-3, 1e-4)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.units not in _UNITS:
            known = " or ".join(map(repr, _UNITS))
            raise ValueError(f"units must be {known}, got {self.units!r}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.fmt!r}")
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")
        if self.n < 0 or self.m < 0:
            raise ValueError("n and m must be non-negative")

    def params(self) -> PhysicalParams:
        m0, hbar, c = _UNITS[self.units]
        return PhysicalParams(
            rest_mass=self.m0 if self.m0 is not None else m0,
            omega=self.omega if self.omega is not None else 1.0,
            hbar=hbar,
            c=c,
        )

    def to_dict(self) -> dict:
        """The JSON "config" block: the command and the fields its flags set.

        Fields come in declaration order.  ``output`` names where the file
        goes, not what it holds, so it is left out; ``fmt`` is emitted as
        "format".
        """
        flags = COMMANDS[self.command][2].split()
        read = {OPTIONS[f].get("dest", f[2:].replace("-", "_")) for f in flags}
        out = {"command": self.command}
        for f in fields(self):
            if f.name in read - {"output"}:
                out["format" if f.name == "fmt" else f.name] = getattr(self, f.name)
        return out


# ---------------------------------------------------------------------------
# serialization helpers


def _fmt_csv(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


def _floats(column) -> bool:
    """Whether every cell of ``column`` (a sequence or array) is a float."""
    if isinstance(column, np.ndarray):
        return column.dtype.kind == "f"
    return set(map(type, column)) == {float}


def _pieces(table) -> tuple[list, object]:
    """(names, pieces of _PIECE_ROWS rows) of a table, or of an iterator of its pieces."""
    if not isinstance(table, dict):
        first = next(table)  # read now, for the names
        return list(first), itertools.chain([first], table)
    cut = range(0, min(map(len, table.values()), default=0), _PIECE_ROWS)
    return list(table), ({k: c[i : i + _PIECE_ROWS] for k, c in table.items()} for i in cut)


def _row_pieces(pieces, slot, frame: tuple, sep: str = ""):
    """The rows of each piece: ``slot(name, column)`` gives a column's slot and its cells'
    format (None: as they are), and frame (start, joiner, end) joins the slots into one row."""
    start, joiner, end = frame
    for piece in pieces:
        slots, formats = zip(*itertools.starmap(slot, piece.items()))
        parts = [part.tolist() if isinstance(part, np.ndarray) else part for part in piece.values()]
        cells = (part if form is None else map(form, part) for part, form in zip(parts, formats))
        yield sep.join(map((start + joiner.join(slots) + end).__mod__, zip(*cells)))


def _render_csv(table):
    """CSV table in pieces: a header of the column names, then one line per row.

    A column of floats fills a %.16e slot of the row template, which formats
    like f"{v:.16e}"; any other column is formatted through _fmt_csv.
    """
    names, pieces = _pieces(table)
    yield ",".join(names) + "\n"
    slot = {True: ("%.16e", None), False: ("%s", _fmt_csv)}
    yield from _row_pieces(pieces, lambda _, column: slot[_floats(column)], ("", ",", "\n"))


def _render_json(config: RunConfig, table, checks: list[dict]):
    """The object {"config", "rows", "checks"} as json.dumps writes it, in pieces.

    Byte-identical to json.dumps(..., indent=2, allow_nan=False) with one
    dict per row of ``table``, but the rows fill one row template: a float
    cell as str (float.__repr__, as json writes it), any other cell through
    json.dumps.  A float that is not finite raises ValueError before the
    piece that holds it, and a check's before any piece.
    """

    def nested(value):  # a value of the top-level object, indented one level
        return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  ")

    def slot(name, column):
        floats = _floats(column)
        cells = column if floats else [v for v in column if isinstance(v, float)]
        if not np.isfinite(cells).all():
            raise ValueError(f"column {name!r} holds a float that is not finite")
        return f'      {json.dumps(name).replace("%", "%%")}: %s', None if floats else cell

    head = f'{{\n  "config": {nested(config.to_dict())},\n  "rows": '
    tail = f',\n  "checks": {nested(checks)}\n}}\n'
    cell = json.JSONEncoder(allow_nan=False).encode  # json.dumps(v, allow_nan=False)
    pieces = _row_pieces(_pieces(table)[1], slot, ("    {\n", ",\n", "\n    }"), ",\n")
    first = next(pieces, None)
    if first is None:
        return [head, "[]", tail]
    return itertools.chain([head, "[\n", first], (",\n" + p for p in pieces), ["\n  ]", tail])


def _resolve_output(config: RunConfig) -> Path:
    name = config.output or f"{config.command.replace('-', '_')}.{config.fmt}"
    path = Path(name)
    override = os.environ.get(OUTPUT_DIR_ENV)
    if override and not path.is_absolute():
        path = Path(override) / path
    return path


def _write_atomic(path: Path, pieces) -> None:
    """Write ``pieces`` to ``path`` whole; where they raise, leave no file and no new directory."""
    made = list(itertools.takewhile(lambda d: not d.exists(), path.parents))  # deepest first
    path.parent.mkdir(parents=True, exist_ok=True)
    # mode 0o666 leaves the umask to set the file's mode, as open(path, "w") does
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        for directory in made:
            with contextlib.suppress(OSError):  # unless another writer filled it
                os.rmdir(directory)
        raise


def _emit(config: RunConfig, table, checks: list[dict]) -> Path:
    """Write ``table`` (see ``_pieces``) or, in CSV without one, ``checks``."""
    if config.fmt == "csv":
        pieces = _render_csv(table or {k: [c[k] for c in checks] for k in checks[0]})
    else:
        pieces = _render_json(config, table, checks)  # refuses a check before any write
    path = _resolve_output(config)
    _write_atomic(path, pieces)
    return path


# ---------------------------------------------------------------------------
# commands


def cmd_spectrum(config: RunConfig) -> Path:
    """Table of levels n = 0 .. n_max at fixed m, built and written a piece at a time."""
    params = config.params()

    def pieces():
        for start in range(0, config.n_max + 1, _PIECE_ROWS):
            ns = range(start, min(start + _PIECE_ROWS, config.n_max + 1))
            levels = [spectrum.energy(QuantumNumbers(n=n, m=config.m), params) for n in ns]
            top = min(ns.stop, config.n_max)
            gaps = spectrum.level_spacings(top, params, start) if top > start else []
            yield {
                "n": ns,
                "m": [config.m] * len(ns),
                "E": [level.E for level in levels],
                "E_minus_mc2": [level.excitation for level in levels],
                "k1": [level.k1 for level in levels],
                "kummer_a": [level.kummer_a for level in levels],
                "spacing_to_next": gaps + [None] * (len(ns) - len(gaps)),
            }

    return _emit(config, pieces(), [])


def cmd_wavefn(config: RunConfig) -> Path:
    """Sampled radial profiles of one state plus its probability density.

    Columns: rho, z, R1_normalized, R2_derived and the spinor density
    2 pi rho (|psi1|^2 + |psi2|^2).  The emitted columns are scaled so the
    density column integrates to one under the trapezoid rule on the emitted
    rows themselves, making the table self-consistently normalized.  The
    grid is the state's ``wavefn.default_grid``, which reaches 7 b past its
    turning point, so no state is truncated; a grid too coarse for its
    trapezoid and Simpson norms to agree within 1e-2 raises ValueError and
    writes no table.
    """
    params = config.params()
    qn = QuantumNumbers(n=config.n, m=config.m)
    level = spectrum.energy(qn, params)
    grid = wavefn.default_grid(qn, params, config.grid_points)
    upper = wavefn.radial_psi1(qn, grid, params)
    lower = wavefn.derive_lower_component(upper, level.E)

    rho = grid.samples
    weight, total, unit_grid, unit = wavefn._norm_integral(
        lambda rho, r1, r2: 2.0 * math.pi * rho * (r1**2 + r2**2),
        lambda d, g: g.spacing * float(0.5 * d[0] + d[1:-1].sum() + 0.5 * d[-1]),
        grid,
        upper.values,
        lower.values,
    )
    scale = 1.0 / wavefn._root(total, unit)  # refuses a total of 0
    # where the trapezoid and Simpson totals part, the grid does not resolve the state
    gap = abs(total / wavefn.integrate_radial(weight, unit_grid) - 1.0)
    if gap > 1e-2:
        raise ValueError(f"trapezoid and Simpson norms differ by {gap:.1e}: use more --grid-points")

    r1 = scale * upper.values
    r2 = scale * lower.values
    table = {
        "rho": rho,
        "z": upper._rows.z,  # psi1's own z on the grid
        "R1_normalized": r1,
        "R2_derived": r2,
        "probability_density": 2.0 * math.pi * rho * (r1 * r1 + r2 * r2),
    }
    return _emit(config, table, [])


def _check(name, measured, tolerance, detail=""):
    return {
        "name": name,
        "measured": float(measured),
        "tolerance": float(tolerance),
        "passed": bool(measured <= tolerance),
        "detail": detail,
    }


def _residual(report: oracle.ResidualReport) -> float:
    """A report's relative RMS, or 1.0 for a profile zero at every sample, as its norm reads."""
    return 1.0 if report.degenerate else report.rms_residual


def _level_column(levels) -> spectrum.EnergyLevel:
    """``levels`` as one EnergyLevel of columns (states, 1), as the stacked residuals read it."""
    names = ("E", "k1", "kummer_a", "excitation")
    columns = (np.array([[getattr(x, name)] for x in levels]) for name in names)
    return spectrum.EnergyLevel([x.qn for x in levels], *columns)


def _trapezoid_roots(values, weights):
    """Per row: the root of the t-trapezoid norm of the samples scaled by 2**-e, and e."""
    e = np.frexp(np.max(np.abs(values), axis=-1, keepdims=True))[1]  # no square leaves float64
    return np.sqrt(np.add.reduce(weights * np.ldexp(values, -e) ** 2, axis=-1)), e[..., 0]


def run_verification_checks(config: RunConfig) -> list[dict]:
    """The oracle suite behind ``verify``; returns one record per check."""
    params = config.params()
    m = config.m
    results = []  # (check name, measured value, detail) in report order

    # Levels of the discrete Dirac operator B B^T, on grids m and n_max size, against 4(n + 1).
    levels = config.n_max + 1
    found, correction, (coarse, fine) = oracle.extrapolated_levels(m, config.n_max)
    worst = max(abs(level - 4.0 * (n + 1)) / (4.0 * (n + 1)) for n, level in enumerate(found))
    detail = (
        f"first {levels} levels at m={m} extrapolated from {coarse} and {fine} "
        f"points (correction {correction:.1e})"
    )
    results.append(("fd-spectrum", worst, detail))

    # The same levels mapped onto excitations E - m0 c^2 = m0 c^2 x / (1 + sqrt(1 + x)),
    # x = level lam, which keep their digits where E rounds to m0 c^2.
    states = [spectrum.energy(QuantumNumbers(n=n, m=m), params) for n in range(levels)]
    worst = 0.0
    for level, state in zip(found, states):
        x = level * params.lam
        excitation = params.rest_energy * x / (1.0 + math.sqrt(1.0 + x))
        worst = max(worst, abs(excitation - state.excitation) / state.excitation)
    results.append(("dirac-energy-map", worst, f"{levels} mapped levels at m={m}"))

    # One stacked pass over the states, on the t-trapezoid nodes: the psi1 family
    # holds blocks of states as (states, nodes) rows from one recurrence pass,
    # and each Kummer row M(a, b) read is kept at 8 nodes spread evenly in rho,
    # the outermost last, as (degree -a, alpha - m = b - m - 1, row).
    nodes = oracle.trapezoid_nodes(m, config.n_max, params.oscillator_length)
    worst_ode = worst_coupled = worst_norm = 0.0
    mismatches = 0
    picks = np.searchsorted(nodes.samples, nodes.samples[-1] * np.arange(1, 9) / 8.0)
    held = []
    for rf in wavefn._psi1_family(m, config.n_max, nodes, params):
        level = _level_column(states[: len(rf.profile.a)])
        states = states[len(rf.profile.a) :]
        # Closed-form profiles pushed through the second-order radial equation.
        worst_ode = max([worst_ode, *map(_residual, oracle.ode_residual(rf, m, level.k1))])
        # Upper plus derived lower components in the coupled first-order system.
        worst_coupled = max([worst_coupled, *map(_residual, oracle.coupled_residual(level, rf))])
        # Node counts: n+1 sign changes in psi1's samples.
        nodal = wavefn.sign_changes(rf.values[:, 1:-1])
        mismatches += sum(count != qn.n + 1 for count, qn in zip(nodal.tolist(), level.qn))
        # The t-trapezoid norm of samples scaled by 2**-e, times the closed-form constant, is 1.
        roots, exponents = _trapezoid_roots(rf.values, nodes.weights)
        for qn, root, e in zip(level.qn, roots.tolist(), exponents.tolist()):
            closed = wavefn.closed_form_norm_constant(qn, params) * params.oscillator_length
            worst_norm = max(worst_norm, abs(root * math.ldexp(closed, e) - 1.0))
        for (a, b), rows in rf._rows.items():  # less the zero rows, of degree below 0
            held += [(-round(x), round(b) - m - 1, r) for x, r in zip(a, rows[:, picks]) if x <= 0]
    detail = f"n <= {config.n_max} at m={m}"
    results.append(("ode-residual", worst_ode, detail))
    results.append(("coupled-residual", worst_coupled, detail))
    results.append(("node-counts", mismatches, detail))
    results.append(("normalization", worst_norm, detail))

    # The Kummer rows the states read against exact rational Laguerre values.
    degrees, columns, got = zip(*held)
    z_set = rf._rows.z[picks]  # the states' own z
    exact = oracle._laguerre_table(max(degrees), range(m, m + 3), z_set)[degrees, columns]
    worst = float(np.max(np.abs(np.array(got) - exact) / np.maximum(1.0, np.abs(exact))))
    detail = f"n <= {max(degrees)} and alpha {m}..{m + 2} at 8 z up to {z_set[-1]:g}"
    results.append(("kummer-laguerre", worst, detail))
    return [_check(name, value, TOLERANCES[name], detail) for name, value, detail in results]


def cmd_verify(config: RunConfig) -> tuple[Path, bool]:
    """Write the verification report; returns (path, all_passed)."""
    checks = run_verification_checks(config)
    path = _emit(config, {}, checks)
    return path, all(c["passed"] for c in checks)


def cmd_nr_limit(config: RunConfig) -> Path:
    """Exact energy against the three-term expansion across lambda decades.

    Energies are reported in units of the rest energy, so the rows depend
    only on lambda and n.
    """
    if not config.lambdas:
        raise ValueError("lambdas must name at least one frequency ratio")
    for lam in config.lambdas:
        if not (0.0 < lam <= 0.1):
            raise ValueError(f"lambda must lie in (0, 0.1], got {lam}")
        if lam * lam * lam < sys.float_info.min:
            raise ValueError(f"lambda={lam} is too small: lambda**3 underflows float64")

    def rows():
        for lam in config.lambdas:
            params = PhysicalParams(rest_mass=1.0, omega=lam, hbar=1.0, c=1.0)
            for n in range(config.n_max + 1):
                exact = spectrum.energy(QuantumNumbers(n=n, m=0), params).E
                approx = spectrum.nr_expansion(n, params).total
                err = abs(exact - approx)
                yield lam, n, exact, approx, err, err / lam**3

    names = "lambda n E_exact E_three_term abs_error error_over_lambda_cubed".split()
    rows = rows()  # built and written a piece at a time
    pieces = iter(lambda: list(itertools.islice(rows, _PIECE_ROWS)), [])
    return _emit(config, (dict(zip(names, zip(*piece))) for piece in pieces), [])


# ---------------------------------------------------------------------------
# argument parsing


# flag -> add_argument keywords; each dest is a RunConfig field.  An option
# left off the command line is left out of the namespace, so RunConfig's
# field defaults are the only defaults.
OPTIONS = {
    "--n-max": dict(type=int, help="largest level index"),
    "--n": dict(type=int, help="level index of the state"),
    "--m": dict(type=int, help="angular momentum index"),
    "--omega": dict(type=float, help="oscillator frequency"),
    "--m0": dict(type=float, help="rest mass"),
    "--units": dict(choices=tuple(_UNITS), help="unit system"),
    "--grid-points": dict(type=int, help="radial samples (odd)"),
    "--lambdas": dict(help="comma-separated frequency ratios in (0, 0.1]"),
    "--format": dict(choices=("csv", "json"), dest="fmt"),
    "--output": dict(help="output file path"),
}

# name -> (help, command, the flags it reads); verify alone returns
# (path, all_passed)
COMMANDS = {
    "spectrum": (
        "tabulate energy levels",
        cmd_spectrum,
        "--n-max --m --omega --m0 --units --format --output",
    ),
    "wavefn": (
        "tabulate radial profiles for one state",
        cmd_wavefn,
        "--n --m --omega --m0 --units --grid-points --format --output",
    ),
    "verify": (
        "run the oracle verification suite",
        cmd_verify,
        "--n-max --m --omega --m0 --units --format --output",
    ),
    "nr-limit": (
        "compare against the weak-coupling expansion",
        cmd_nr_limit,
        "--n-max --lambdas --format --output",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirac2d",
        description="Spectrum and eigenfunctions of the two-dimensional Dirac "
        "oscillator, with independent numerical verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, flags) in COMMANDS.items():
        # Exact flags only: a prefix such as --n would otherwise set --n-max.
        command = sub.add_parser(
            name, help=text, argument_default=argparse.SUPPRESS, allow_abbrev=False
        )
        for flag in flags.split():
            command.add_argument(flag, **OPTIONS[flag])
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    values = dict(vars(args))
    if "lambdas" in values:
        values["lambdas"] = tuple(float(p) for p in values["lambdas"].split(",") if p)
    return RunConfig(**values)


# main's parser, built on its first call: parsing leaves a parser unchanged.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = config_from_args(args)
        result = COMMANDS[config.command][1](config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path, passed = result if config.command == "verify" else (result, True)
    print(f"wrote {path}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
