"""Command-line front end: spectra, wavefunction tables, verification reports.

Subcommands
-----------
spectrum   energies and eigenvalue bookkeeping for n = 0 .. n_max
wavefn     sampled radial profiles and probability density for one state
verify     run the oracle suite and report pass/fail per check
nr-limit   exact energies against the three-term weak-coupling expansion

Output is CSV (comma separated, '.' decimals, LF line endings, floats in
17-significant-digit scientific form) or JSON (object with "config", "rows"
and "checks" keys; floats serialized in shortest round-trip form).  Identical
configurations produce byte-identical files; files are written atomically.
The environment variable DIRAC2D_OUTPUT_DIR redirects relative output paths.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import oracle, specfun, spectrum, wavefn
from .spectrum import QuantumNumbers
from .units import PhysicalParams, to_dimensionless_z

__all__ = [
    "RunConfig",
    "cmd_spectrum",
    "cmd_wavefn",
    "cmd_verify",
    "cmd_nr_limit",
    "main",
]

OUTPUT_DIR_ENV = "DIRAC2D_OUTPUT_DIR"

SI_HBAR = 1.054571817e-34
SI_C = 299792458.0
SI_ELECTRON_MASS = 9.1093837015e-31

DEFAULT_TOLERANCES = {
    "fd-spectrum": 1e-3,
    "dirac-energy-map": 1e-3,
    "ode-residual": 1e-12,
    "coupled-residual": 1e-6,
    "node-counts": 0.0,
    "normalization": 1e-8,
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
    rho_max_in_b: float = 12.0
    grid_points: int = 4097
    fmt: str = "csv"
    output: str | None = None
    lambdas: tuple[float, ...] = (1e-2, 1e-3, 1e-4)
    tolerances: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.units not in ("natural", "si"):
            raise ValueError(f"units must be 'natural' or 'si', got {self.units!r}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.fmt!r}")
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")
        if self.n < 0 or self.m < 0:
            raise ValueError("n and m must be non-negative")
        for name in self.tolerances:
            if name not in DEFAULT_TOLERANCES:
                raise ValueError(
                    f"unknown tolerance {name!r}; known: {sorted(DEFAULT_TOLERANCES)}"
                )

    def params(self) -> PhysicalParams:
        if self.units == "natural":
            return PhysicalParams(
                rest_mass=self.m0 if self.m0 is not None else 1.0,
                omega=self.omega if self.omega is not None else 1.0,
                hbar=1.0,
                c=1.0,
            )
        return PhysicalParams(
            rest_mass=self.m0 if self.m0 is not None else SI_ELECTRON_MASS,
            omega=self.omega if self.omega is not None else 1.0,
            hbar=SI_HBAR,
            c=SI_C,
        )

    def grid(self, params: PhysicalParams) -> wavefn.RadialGrid:
        return wavefn.default_grid(params, self.rho_max_in_b, self.grid_points)

    def tolerance(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])

    def to_dict(self) -> dict:
        """Field values in declaration order, as the JSON "config" block.

        ``output`` names where the file goes, not what it holds, so it is
        left out; ``fmt`` is emitted as "format" and every tolerance is
        filled in.
        """
        out = {}
        for f in fields(self):
            if f.name != "output":
                out["format" if f.name == "fmt" else f.name] = getattr(self, f.name)
        out["lambdas"] = list(self.lambdas)
        out["tolerances"] = {k: self.tolerance(k) for k in sorted(DEFAULT_TOLERANCES)}
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


def _render_csv(rows: list[dict]) -> str:
    """CSV table whose header is the keys of the first record."""
    columns = list(rows[0])
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt_csv(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _render_json(config: RunConfig, rows: list[dict], checks: list[dict]) -> str:
    return json.dumps(
        {"config": config.to_dict(), "rows": rows, "checks": checks},
        indent=2,
    ) + "\n"


def _resolve_output(config: RunConfig) -> Path:
    name = config.output or f"{config.command.replace('-', '_')}.{config.fmt}"
    path = Path(name)
    override = os.environ.get(OUTPUT_DIR_ENV)
    if override and not path.is_absolute():
        path = Path(override) / path
    return path


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(config: RunConfig, rows: list[dict], checks: list[dict]) -> Path:
    if config.fmt == "csv":
        text = _render_csv(rows or checks)
    else:
        text = _render_json(config, rows, checks)
    path = _resolve_output(config)
    _write_atomic(path, text)
    return path


# ---------------------------------------------------------------------------
# commands


def cmd_spectrum(config: RunConfig) -> Path:
    """Table of levels n = 0 .. n_max at fixed m."""
    params = config.params()
    rows = []
    levels = [
        spectrum.energy(QuantumNumbers(n=n, m=config.m), params)
        for n in range(config.n_max + 1)
    ]
    gaps = spectrum.level_spacings(config.n_max, params) if config.n_max else []
    for n, level in enumerate(levels):
        rows.append(
            {
                "n": n,
                "m": config.m,
                "E": level.E,
                "E_minus_mc2": level.excitation,
                "k1": level.k1,
                "kummer_a": level.kummer_a,
                "spacing_to_next": gaps[n] if n < config.n_max else None,
            }
        )
    return _emit(config, rows, [])


def cmd_wavefn(config: RunConfig) -> Path:
    """Sampled radial profiles of one state plus its probability density.

    Columns: rho, z, R1_normalized, R2_derived and the spinor density
    2 pi rho (|psi1|^2 + |psi2|^2).  The emitted columns are scaled so the
    density column integrates to one under the trapezoid rule on the emitted
    rows themselves, making the table self-consistently normalized.  A state
    that the grid truncates raises ``TruncationError`` and writes no table.
    """
    params = config.params()
    qn = QuantumNumbers(n=config.n, m=config.m)
    grid = config.grid(params)
    level = spectrum.energy(qn, params)
    upper = wavefn.radial_psi1(qn, grid, params)
    wavefn.normalize(upper)  # tail-mass check only; the table scales itself
    lower = wavefn.derive_lower_component(upper, level.E)

    rho = grid.samples
    density_raw = 2.0 * math.pi * rho * (upper.values**2 + lower.values**2)
    total = grid.spacing * float(
        0.5 * density_raw[0] + density_raw[1:-1].sum() + 0.5 * density_raw[-1]
    )
    scale = 1.0 / math.sqrt(total)

    r1 = scale * upper.values
    r2 = scale * lower.values
    table = {
        "rho": rho,
        "z": to_dimensionless_z(rho, params),
        "R1_normalized": r1,
        "R2_derived": r2,
        "probability_density": 2.0 * math.pi * rho * (r1 * r1 + r2 * r2),
    }
    columns = list(table)
    cells = zip(*(column.tolist() for column in table.values()))
    rows = [dict(zip(columns, row)) for row in cells]
    return _emit(config, rows, [])


def _check(name, measured, tolerance, detail=""):
    return {
        "name": name,
        "measured": float(measured),
        "tolerance": float(tolerance),
        "passed": bool(measured <= tolerance),
        "detail": detail,
    }


def run_verification_checks(config: RunConfig) -> list[dict]:
    """The oracle suite behind ``verify``; returns one record per check."""
    params = config.params()
    grid = config.grid(params)
    m = config.m
    results = []  # (check name, measured value, detail) in report order

    # Finite-difference spectrum against the auxiliary ladder k1 = 2(2 n_r + m + 1).
    levels = max(4, config.n_max + 2)
    op = oracle.build_radial_operator(m, grid, params)
    k1_fd = oracle.smallest_eigenvalues(op, levels)
    worst = max(
        abs(k1 - 2.0 * (2 * n_r + m + 1)) / (2.0 * (2 * n_r + m + 1))
        for n_r, k1 in enumerate(k1_fd)
    )
    detail = f"first {levels} levels at m={m} on {grid.num_points} points"
    results.append(("fd-spectrum", worst, detail))

    # The same finite-difference levels mapped onto excitations E - m0 c^2.
    mapped = oracle.dirac_excitations_from_k1(k1_fd, m, params)
    ref = [spectrum.energy(QuantumNumbers(n=n, m=m), params) for n, _ in mapped]
    worst = max(abs(x - e.excitation) / e.excitation for (_, x), e in zip(mapped, ref))
    results.append(("dirac-energy-map", worst, f"{len(mapped)} mapped levels at m={m}"))

    # One pass over the states: each level and psi1 profile is built once.
    worst_ode = worst_coupled = worst_norm = 0.0
    mismatches = 0
    z = to_dimensionless_z(grid.samples, params)
    # The psi2 ansatz M(-n, m+1) of state n is psi1's profile at state n-1.
    ansatz = wavefn.radial_psi2(QuantumNumbers(n=0, m=m), grid, params)
    for n in range(config.n_max + 1):
        qn = QuantumNumbers(n=n, m=m)
        level = spectrum.energy(qn, params)
        # psi1's Kummer ladder, summed once on the grid, gives its values and
        # (at the interior radii) both residuals' exact derivatives.
        profile = wavefn.psi1_profile(qn)
        ladder = profile.ladder(z)
        rf = wavefn.RadialFunction(grid, profile, params, ladder)
        inner = ladder._replace(  # a zero-weight term stays 0.0
            z=z[1:-1], terms=tuple(t[1:-1] if np.ndim(t) else t for t in ladder.terms)
        )
        # Closed-form profile pushed through the second-order radial equation.
        ode = oracle.ode_residual(rf, m, level.k1, inner)
        worst_ode = max(worst_ode, ode.rms_residual)
        # Upper plus derived lower component in the coupled first-order system.
        coupled = oracle.coupled_residual(level, rf, ladder=inner)
        worst_coupled = max(worst_coupled, coupled.rms_residual)
        # Node counts: n+1 sign changes for psi1, n for the psi2 ansatz.
        if wavefn.count_radial_nodes(qn, params) != n + 1:
            mismatches += 1
        if wavefn.sign_changes(ansatz.values[1:-1]) != n:
            mismatches += 1
        ansatz = rf
        # Quadrature normalization against the Laguerre-orthogonality constant.
        quad = wavefn.normalize(rf)
        closed = wavefn.closed_form_norm_constant(qn, params)
        worst_norm = max(worst_norm, abs(quad / closed - 1.0))
    detail = f"n <= {config.n_max} at m={m}"
    results.append(("ode-residual", worst_ode, detail))
    results.append(("coupled-residual", worst_coupled, detail))
    results.append(("node-counts", mismatches, detail))
    results.append(("normalization", worst_norm, detail))

    # Kummer series against the independent Laguerre recurrence.
    worst = 0.0
    z_set = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0])
    alpha_column = np.arange(11)[:, None]  # alpha = 0 .. 10
    for n in range(21):
        lag = specfun.laguerre(n, alpha_column, z_set)
        binom = np.array([[math.comb(n + alpha, n)] for alpha in range(11)], float)
        kum = binom * specfun.kummer_m(-float(n), alpha_column + 1.0, z_set)
        dev = np.max(np.abs(kum - lag) / np.maximum(1.0, np.abs(lag)))
        worst = max(worst, float(dev))
    detail = "n <= 20 and alpha <= 10 with z up to 50"
    results.append(("kummer-laguerre", worst, detail))
    return [
        _check(name, value, config.tolerance(name), detail)
        for name, value, detail in results
    ]


def cmd_verify(config: RunConfig) -> tuple[Path, bool]:
    """Write the verification report; returns (path, all_passed)."""
    checks = run_verification_checks(config)
    path = _emit(config, [], checks)
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
    rows = []
    for lam in config.lambdas:
        params = PhysicalParams(rest_mass=1.0, omega=lam, hbar=1.0, c=1.0)
        for n in range(config.n_max + 1):
            exact = spectrum.energy(QuantumNumbers(n=n, m=0), params).E
            approx = spectrum.nr_expansion(n, params).total
            err = abs(exact - approx)
            rows.append(
                {
                    "lambda": lam,
                    "n": n,
                    "E_exact": exact,
                    "E_three_term": approx,
                    "abs_error": err,
                    "error_over_lambda_cubed": err / lam**3,
                }
            )
    return _emit(config, rows, [])


# ---------------------------------------------------------------------------
# argument parsing


def _parse_tolerances(pairs: list[str]) -> dict[str, float]:
    out = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"tolerance override must look like name=value, got {pair!r}")
        out[name.strip()] = float(value)
    return out


# flag -> add_argument keywords; each dest is a RunConfig field.  An option
# left off the command line is left out of the namespace, so RunConfig's
# field defaults are the only defaults.
OPTIONS = {
    "--n-max": dict(type=int, help="largest level index"),
    "--n": dict(type=int, help="level index of the state"),
    "--m": dict(type=int, help="angular momentum index"),
    "--omega": dict(type=float, help="oscillator frequency"),
    "--m0": dict(type=float, help="rest mass"),
    "--units": dict(choices=("natural", "si"), help="unit system"),
    "--rho-max": dict(
        type=float,
        dest="rho_max_in_b",
        metavar="RHO_MAX",
        help="grid extent in units of the oscillator length",
    ),
    "--grid-points": dict(type=int, help="radial samples (odd)"),
    "--lambdas": dict(help="comma-separated frequency ratios in (0, 0.1]"),
    "--format": dict(choices=("csv", "json"), dest="fmt"),
    "--output": dict(help="output file path"),
    "--tolerance": dict(
        action="append",
        dest="tolerances",
        metavar="NAME=VALUE",
        help="override a verification tolerance (repeatable)",
    ),
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
        "--n --m --omega --m0 --units --rho-max --grid-points --format --output",
    ),
    "verify": (
        "run the oracle verification suite",
        cmd_verify,
        "--n-max --m --omega --m0 --units --rho-max --grid-points --format "
        "--output --tolerance",
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
    if "tolerances" in values:
        values["tolerances"] = _parse_tolerances(values["tolerances"])
    return RunConfig(**values)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
