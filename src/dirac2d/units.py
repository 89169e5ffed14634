"""Physical parameters and natural-unit scales of the planar Dirac oscillator.

Every closed-form result in this package depends on the inputs only through
two dimensionless combinations: the radial variable z = (m0*omega/hbar)*rho**2
and the frequency ratio lam = hbar*omega/(m0*c**2).  Parameters may therefore
be supplied in any consistent unit system (natural units are the default,
m0 = omega = hbar = c = 1); all downstream computation runs through the two
ratios, so SI magnitudes never enter raw arithmetic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhysicalParams",
    "natural_params",
    "to_dimensionless_z",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Rest mass, angular frequency and the fundamental constants hbar, c.

    All four fields must be strictly positive and finite; NaN or infinity is
    rejected at construction, and so is a product or quotient that leaves
    float64 in the ratios the package reads: lam, gamma and b**2.  A
    subnormal lam is refused too.
    """

    rest_mass: float
    omega: float
    hbar: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        for name in ("rest_mass", "omega", "hbar", "c"):
            value = getattr(self, name)
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be a number, got {value!r}") from None
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
            object.__setattr__(self, name, value)
        m0_omega = self.rest_mass * self.omega
        for name, num, den in (
            ("hbar*omega/(m0*c^2)", self.energy_quantum, self.rest_energy),
            ("m0*omega/hbar", m0_omega, self.hbar),
            ("hbar/(m0*omega)", self.hbar, m0_omega),
        ):
            ratio = num / den if den else math.inf
            if not math.isfinite(ratio) or ratio <= 0.0:
                raise ValueError(f"{name} = {ratio!r} is not a positive finite ratio")
        # A subnormal lam carries fewer than 53 bits, and every excitation loses them.
        if self.lam < sys.float_info.min:
            raise ValueError(
                f"hbar*omega/(m0*c^2) = {self.lam!r} is below float64's normal range"
            )

    @property
    def rest_energy(self) -> float:
        """m0 * c**2."""
        return self.rest_mass * self.c * self.c

    @property
    def energy_quantum(self) -> float:
        """hbar * omega."""
        return self.hbar * self.omega

    @property
    def lam(self) -> float:
        """Dimensionless frequency ratio hbar*omega / (m0*c**2)."""
        return self.energy_quantum / self.rest_energy

    @property
    def oscillator_length(self) -> float:
        """Characteristic length b = sqrt(hbar / (m0*omega))."""
        return math.sqrt(self.hbar / (self.rest_mass * self.omega))

    @property
    def gamma(self) -> float:
        """Inverse squared oscillator length m0*omega/hbar; z = gamma*rho**2."""
        return self.rest_mass * self.omega / self.hbar


def natural_params() -> PhysicalParams:
    """Parameters in natural units, m0 = omega = hbar = c = 1."""
    return PhysicalParams(rest_mass=1.0, omega=1.0, hbar=1.0, c=1.0)


def to_dimensionless_z(rho, params: PhysicalParams):
    """Map a radius (or array of radii) to z = (m0*omega/hbar) * rho**2.

    Monotone increasing in rho and exactly quadratic, so z(2*rho) = 4*z(rho).
    Negative radii, and radii whose z overflows float64, are rejected.
    """
    arr = np.asarray(rho, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("rho must be finite")
    if np.any(arr < 0.0):
        raise ValueError("rho must be non-negative")
    # The product is monotone in rho, so the largest radius decides.
    top = float(arr.max()) if arr.size else 0.0
    if not math.isfinite(params.gamma * top * top):
        raise ValueError(f"z = gamma * rho**2 overflows float64 at rho={top!r}")
    z = params.gamma * arr * arr
    return float(z) if arr.ndim == 0 else z
