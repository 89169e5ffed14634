"""Energy spectrum and quantization bookkeeping of the planar Dirac oscillator.

Bound states carry E = sqrt((m0 c^2)^2 + 4 (n+1) m0 c^2 hbar w) for the
radial termination index n >= 0, independent of the angular quantum number m.
The dimensionless eigenvalue k1 = 2(m+1) + (E^2 - (m0 c^2)^2)/(m0 c^2 hbar w)
combines the angular offset with the kinetic term, and the first Kummer
argument a = (m + 1 - k1/2)/2 must equal -(n+1) for the radial series to
terminate; ``quantization_residual`` exposes a(E) directly so that root
finding on the trial energy recovers the spectrum.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .units import PhysicalParams

__all__ = [
    "QuantumNumbers",
    "EnergyLevel",
    "NrExpansion",
    "energy",
    "quantization_residual",
    "nr_expansion",
    "level_spacings",
]


def _require_count(name: str, value, minimum: int = 0) -> None:
    """Raise unless value is an int (bool excluded) of at least ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        rule = "a non-negative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def _turning_point(m: int, n_max: int) -> float:
    """s = sqrt(4(n_max + 1) + 2m), the top state's turning point in oscillator lengths.

    Every radial grid is sized from s: the oracles' nodes and grids, and
    ``wavefn.default_grid``.  4(n_max + 1) + 2m of 4096 or more (s of 64 or
    more) is refused, in integer arithmetic, before any float.
    """
    _require_count("m", m)
    _require_count("n_max", n_max)
    if 4 * (n_max + 1) + 2 * m >= 4096:
        raise ValueError("4(n + 1) + 2m must be below 4096 (a turning point inside 64 b)")
    return math.sqrt(4 * (n_max + 1) + 2 * m)


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial termination index n >= 0 and angular momentum index m >= 0.

    Negative m is rejected rather than mapped to |m|: the radial factor
    z**(m/2) diverges at the origin for m < 0, and this package only models
    the m >= 0 family.
    """

    n: int
    m: int

    def __post_init__(self):
        _require_count("n", self.n)
        _require_count("m", self.m)


@dataclass(frozen=True)
class EnergyLevel:
    """One eigenvalue with its dimensionless bookkeeping.

    E is the positive-branch energy, k1 the dimensionless eigenvalue,
    kummer_a the first Kummer argument (always -(n+1) here), and excitation
    E - m0 c^2 computed without subtracting two nearly equal energies.
    """

    qn: QuantumNumbers
    E: float
    k1: float
    kummer_a: float
    excitation: float


def energy(qn: QuantumNumbers, params: PhysicalParams) -> EnergyLevel:
    """Closed-form energy of the state (n, m); E never depends on m.

    The excitation E - m0 c^2 = m0 c^2 x / (1 + sqrt(1 + x)), x = 4(n+1) lam,
    keeps its digits where lam is below machine epsilon (SI units).  An n or m
    past float64, or an E, excitation or k1 that overflows, raises ValueError.
    """
    n = qn.n
    for name, index in (("n", n), ("m", qn.m)):
        if index > sys.float_info.max:  # converting it to float would raise OverflowError
            raise ValueError(f"{name} lies past float64's largest value")
    x = 4.0 * (n + 1) * params.lam
    root = math.sqrt(1.0 + x)
    E = params.rest_energy * root
    excitation = params.rest_energy * x / (1.0 + root)
    if not (math.isfinite(E) and math.isfinite(excitation)):
        raise ValueError(
            f"energy of level n={n} overflows at lam={params.lam!r}: "
            f"4(n+1) lam = {x!r}, E = {E!r}"
        )
    k1 = 2.0 * (qn.m + 1) + 4.0 * (n + 1)
    if not math.isfinite(k1):  # a finite k1 keeps kummer_a finite
        raise ValueError(f"k1 = 2(m + 1) + 4(n + 1) of level n={n} leaves float64")
    kummer_a = 0.5 * (qn.m + 1 - 0.5 * k1)
    return EnergyLevel(qn=qn, E=E, k1=k1, kummer_a=kummer_a, excitation=excitation)


def quantization_residual(E_trial: float, m: int, params: PhysicalParams) -> float:
    """First Kummer argument a(E_trial) = (m + 1 - k1(E_trial)/2) / 2.

    Zero at the threshold E_trial = m0 c^2, strictly decreasing in E_trial,
    and equal to -(n+1) exactly at the n-th eigenvalue.  A bisection on this
    residual against a target -(n+1) therefore recovers the spectrum without
    using the closed form.  A residual that leaves float64 is refused.
    """
    _require_count("m", m)
    rest = params.rest_energy
    if not math.isfinite(E_trial) or E_trial < rest:
        raise ValueError(
            f"E_trial must be at least the rest energy {rest!r}, got {E_trial!r}"
        )
    kinetic = (E_trial - rest) * (E_trial + rest) / (rest * params.energy_quantum)
    k1 = 2.0 * (m + 1) + kinetic
    residual = 0.5 * (m + 1 - 0.5 * k1)
    if not math.isfinite(residual):
        raise ValueError(f"the quantization residual at E_trial={E_trial!r} leaves float64")
    return residual


@dataclass(frozen=True)
class NrExpansion:
    """Three leading terms of the weak-coupling expansion of E(n).

    rest_energy + harmonic_term + correction approximates the exact energy
    with an O(lam^3) remainder, lam = hbar*omega/(m0*c^2).  The harmonic term
    is the non-relativistic oscillator ladder 2(n+1) hbar*omega; the
    correction -2(n+1)^2 (hbar*omega)^2/(m0 c^2) is the leading relativistic
    shift and is always negative.
    """

    rest_energy: float
    harmonic_term: float
    correction: float

    @property
    def total(self) -> float:
        return self.rest_energy + self.harmonic_term + self.correction


def nr_expansion(n: int, params: PhysicalParams) -> NrExpansion:
    """Non-relativistic expansion of the level n energy."""
    _require_count("n", n)
    quantum = params.energy_quantum
    harmonic = 2.0 * (n + 1) * quantum
    correction = -2.0 * (n + 1) ** 2 * quantum * quantum / params.rest_energy
    return NrExpansion(
        rest_energy=params.rest_energy,
        harmonic_term=harmonic,
        correction=correction,
    )


def level_spacings(n_max: int, params: PhysicalParams, start: int = 0) -> list[float]:
    """Gaps E(n+1) - E(n) for n = start .. n_max-1.

    All gaps are positive and strictly decreasing: E grows like the square
    root of an affine function of n, so the ladder compresses upward instead
    of staying equally spaced.  Each gap is 4 hbar w m0 c^2 / (E(n) + E(n+1)),
    which avoids the cancellation in E(n+1) - E(n) when lam is tiny.
    """
    _require_count("n_max", n_max, minimum=1)
    levels = [energy(QuantumNumbers(n=n, m=0), params).E for n in range(start, n_max + 1)]
    quantum, rest = params.energy_quantum, params.rest_energy
    return [4.0 * quantum * (rest / (low + high)) for low, high in zip(levels, levels[1:])]
