"""Independent correctness checks for every benchmark result.

Each check re-derives the expected values from the paper's closed forms,
without calling dirac2d, and raises ``CheckFailed`` when the program's
output disagrees.  All parameters are natural units (m0 = omega = hbar =
c = 1), so the oscillator length b is 1 and z = rho**2.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from fractions import Fraction

GRID_POINTS = 4097  # the cli's default grid
VERIFY_CHECKS = (
    "fd-spectrum",
    "dirac-energy-map",
    "ode-residual",
    "coupled-residual",
    "node-counts",
    "normalization",
    "kummer-laguerre",
)
ENERGY_RTOL = 1e-14
DENSITY_TOL = 1e-12
SPINOR_TOL = 1e-8  # the cli's "normalization" tolerance
NODE_FLOOR = 1e-13


class CheckFailed(Exception):
    """A result that disagrees with the benchmark's independent check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _csv_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def dirac_energy(n: int, lam: float = 1.0) -> float:
    """E(n) = sqrt((m0c^2)^2 + 4(n+1) m0c^2 hbar w) in units of m0c^2."""
    return math.sqrt(1.0 + 4.0 * (n + 1) * lam)


def _close(value: float, expected: float, rtol: float) -> bool:
    return abs(value - expected) <= rtol * abs(expected)


def check_verify(data: bytes) -> None:
    """A CSV report that lists every check, each one passed."""
    rows = _csv_rows(data)
    _require(
        tuple(r["name"] for r in rows) == VERIFY_CHECKS,
        f"report lists checks {[r['name'] for r in rows]}",
    )
    for r in rows:
        _require(
            r["passed"] == "true" and float(r["measured"]) <= float(r["tolerance"]),
            f"check {r['name']} failed: measured {r['measured']}",
        )


def sign_changes(values: list[float]) -> int:
    scale = max(abs(v) for v in values)
    kept = [v for v in values if abs(v) > NODE_FLOOR * scale]
    return sum(1 for a, b in zip(kept, kept[1:]) if a * b < 0.0)


def check_wavefn(n: int, fmt: str, data: bytes) -> int:
    """Row count, unit trapezoid norm and n+1 nodes; returns the row count."""
    if fmt == "csv":
        rows = _csv_rows(data)
        rho = [float(r["rho"]) for r in rows]
        density = [float(r["probability_density"]) for r in rows]
        r1 = [float(r["R1_normalized"]) for r in rows]
    else:
        rows = json.loads(data)["rows"]
        rho = [r["rho"] for r in rows]
        density = [r["probability_density"] for r in rows]
        r1 = [r["R1_normalized"] for r in rows]
    _require(len(rows) == GRID_POINTS, f"{len(rows)} rows, expected {GRID_POINTS}")
    h = rho[-1] / (len(rho) - 1)
    integral = h * (math.fsum(density) - 0.5 * (density[0] + density[-1]))
    _require(abs(integral - 1.0) <= DENSITY_TOL, f"density integrates to {integral!r}")
    nodes = sign_changes(r1)
    _require(nodes == n + 1, f"R1 has {nodes} sign changes, expected {n + 1}")
    return len(rows)


def check_spectrum(n_max: int, data: bytes) -> int:
    rows = _csv_rows(data)
    _require(len(rows) == n_max + 1, f"{len(rows)} rows, expected {n_max + 1}")
    for i, r in enumerate(rows):
        _require(int(r["n"]) == i, f"row {i} holds n={r['n']}")
        _require(
            _close(float(r["E"]), dirac_energy(i), ENERGY_RTOL),
            f"E({i}) = {r['E']}, expected {dirac_energy(i)!r}",
        )
    return len(rows)


def check_nr_limit(lambdas, n_max: int, data: bytes) -> int:
    rows = _csv_rows(data)
    expected = [(lam, n) for lam in lambdas for n in range(n_max + 1)]
    _require(len(rows) == len(expected), f"{len(rows)} rows, expected {len(expected)}")
    for (lam, n), r in zip(expected, rows):
        _require(
            float(r["lambda"]) == lam and int(r["n"]) == n,
            f"row ({r['lambda']}, {r['n']}) out of order",
        )
        three_term = 1.0 + 2.0 * (n + 1) * lam - 2.0 * (n + 1) ** 2 * lam * lam
        _require(
            _close(float(r["E_exact"]), dirac_energy(n, lam), ENERGY_RTOL)
            and _close(float(r["E_three_term"]), three_term, ENERGY_RTOL),
            f"energies at lambda={lam}, n={n} disagree",
        )
    return len(rows)


def _laguerre(n: int, alpha: int, z: float) -> float:
    """L_n^(alpha)(z) summed exactly in rationals, rounded once."""
    zf = Fraction(z)
    total = Fraction(0)
    power = Fraction(1)
    for k in range(n + 1):
        total += (-1) ** k * math.comb(n + alpha, n - k) * power / math.factorial(k)
        power *= zf
    return float(total)


def reference_spinor(n: int, m: int, rho: float, phi: float) -> tuple[complex, complex]:
    """(psi1, psi2) from the Laguerre form of the closed-form state.

    psi1 = A e^{i m phi} e^{-z/2} z^{m/2} L_{n+1}^(m)(z) / binom(n+m+1, n+1)
    with A^-2 = pi (n+1)! (m!)^2 / (n+m+1)!, and psi2 the coupling operator
    applied to it: -i A e^{i(m+1)phi} 2 (a/b) / (E + 1) e^{-z/2} z^{(m+1)/2}
    L_n^(m+1)(z) / binom(n+m+1, n) with a = -(n+1), b = m+1.
    """
    z = rho * rho
    amp = 1.0 / math.sqrt(
        math.pi * math.factorial(n + 1) * math.factorial(m) ** 2
        / math.factorial(n + m + 1)
    )
    gauss = math.exp(-0.5 * z)
    r1 = gauss * z ** (0.5 * m) * _laguerre(n + 1, m, z) / math.comb(n + m + 1, n + 1)
    coupling = 2.0 * (-(n + 1.0) / (m + 1.0)) / (dirac_energy(n) + 1.0)
    g = (
        coupling * gauss * z ** (0.5 * (m + 1))
        * _laguerre(n, m + 1, z) / math.comb(n + m + 1, n)
    )
    psi1 = amp * cmath.exp(1j * m * phi) * r1
    psi2 = -1j * amp * cmath.exp(1j * (m + 1) * phi) * g
    return psi1, psi2


def check_spinor(n: int, m: int, rho: float, phi: float, psi1: complex, psi2: complex):
    ref1, ref2 = reference_spinor(n, m, rho, phi)
    for label, got, ref in (("psi1", psi1, ref1), ("psi2", psi2, ref2)):
        _require(
            abs(got - ref) <= SPINOR_TOL * max(abs(ref), 1.0),
            f"{label}(n={n}, m={m}, rho={rho!r}) = {got!r}, expected {ref!r}",
        )
