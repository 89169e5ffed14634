"""Closed-form eigenfunctions of the planar Dirac oscillator.

Every radial profile in this package belongs to the one-parameter family

    f(rho) = coeff * exp(-z/2) * z**(mu/2) * M(a, b, z),   z = gamma * rho**2,

captured by ``KummerProfile``.  The power mu fixes b = mu + 1 and the
angular index of e^{i mu phi}.  A ``RadialFunction`` is a (grid, profile,
params) triple: it reads both facts from its profile and samples its values
from it, so the profile is the one source of the state.  The upper spinor
component has mu = m and a = -(n+1).  Because the family is closed under
differentiation (through dM/dz = (a/b) M(a+1, b+1, z)), residual checks
elsewhere evaluate exact derivatives instead of finite-differencing samples.

The lower component is not taken from an ansatz: it is derived by applying
the first-order coupling operator to psi1 and dividing by (E + m0 c^2).
In polar coordinates the operator sends e^{i m phi} R(rho) to

    -i e^{i (m+1) phi} * [hbar c (R' - (m/rho) R) + c m0 w rho R],

and the radial bracket collapses, through the derivative identity, to
another family member with mu -> mu+1, a -> a+1, b -> b+1.  Note that the
derived component carries angular index m+1, one unit above psi1; the
``radial_psi2`` ansatz pairs its radial shape with index m instead, and the
tests compare the two conventions without privileging either.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import InitVar, dataclass, field

import numpy as np

from .specfun import kummer_m
from .spectrum import QuantumNumbers
from .units import PhysicalParams, to_dimensionless_z

__all__ = [
    "TruncationError",
    "RadialGrid",
    "KummerLadder",
    "KummerProfile",
    "RadialFunction",
    "SpinorSample",
    "default_grid",
    "psi1_profile",
    "closed_form_norm_constant",
    "radial_psi1",
    "radial_psi2",
    "normalize",
    "lower_component_profile",
    "derive_lower_component",
    "spinor_sample",
    "count_radial_nodes",
    "sign_changes",
]

# Samples below this fraction of the profile peak are treated as zeros when
# counting sign changes, so near-machine noise at a root is not double counted.
NODE_FLOOR = 1e-13


class TruncationError(ValueError):
    """Raised when a grid misses a non-negligible share of the norm integral."""


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Uniform radial grid on [0, rho_max] with an odd number of samples.

    samples[0] == 0 (the origin is evaluated by limit where needed) and
    samples[-1] == rho_max.  The odd count keeps the interval number even,
    as composite Simpson quadrature requires.  The read-only samples are
    derived from (rho_max, num_points).
    """

    rho_max: float
    num_points: int
    samples: np.ndarray = field(init=False)

    def __post_init__(self):
        if not isinstance(self.num_points, (int, np.integer)) or self.num_points < 3:
            raise ValueError(f"num_points must be an integer >= 3, got {self.num_points!r}")
        if self.num_points % 2 == 0:
            raise ValueError(f"num_points must be odd, got {self.num_points}")
        object.__setattr__(self, "num_points", int(self.num_points))
        rho_max = float(self.rho_max)
        if not math.isfinite(rho_max) or rho_max <= 0.0:
            raise ValueError(f"rho_max must be positive and finite, got {self.rho_max!r}")
        object.__setattr__(self, "rho_max", rho_max)
        samples = np.linspace(0.0, rho_max, self.num_points)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def spacing(self) -> float:
        return self.rho_max / (self.num_points - 1)


def default_grid(
    params: PhysicalParams, rho_max_in_b: float = 12.0, num_points: int = 4097
) -> RadialGrid:
    """Grid reaching 12 oscillator lengths: exp(-z/2) there is ~1e-32."""
    return RadialGrid(rho_max_in_b * params.oscillator_length, num_points)


# The terms M(a+k, b+k, z), k = 0, 1, ..., each summed once at fixed z.
KummerLadder = namedtuple("KummerLadder", "a b z terms")


@dataclass(frozen=True)
class KummerProfile:
    """Descriptor of f(z) = coeff * exp(-z/2) * z**(mu/2) * M(a, mu + 1, z).

    ``derivatives`` is the one evaluator: it returns f and its first
    ``order`` z-derivatives from the shifted terms of

        d^k M/dz^k = [a (a+1)...(a+k-1)] / [b (b+1)...(b+k-1)] M(a+k, b+k, z),

    which ``ladder`` evaluates, each M(a+k, b+k, z) at most once.  A term
    whose weight is exactly zero is skipped: M is a polynomial of degree -a
    with no derivative past it, so only terminating series are ever summed.
    ``value_z``, ``dvalue_dz`` and ``d2value_dz2`` are single-output views.
    """

    coeff: float
    mu: int
    a: float

    @property
    def b(self) -> float:
        """Second Kummer argument, fixed by the power: b = mu + 1."""
        return self.mu + 1.0

    def ladder(self, z, order: int = 2) -> KummerLadder:
        """M(a+k, b+k, z) for k <= order <= 2, or 0.0 where the weight vanishes."""
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
        a, b = self.a, self.b
        z = np.asarray(z, dtype=float)
        w = (1.0, a / b, a * (a + 1.0) / (b * (b + 1.0)))
        terms = [kummer_m(a + k, b + k, z) if w[k] else 0.0 for k in range(order + 1)]
        return KummerLadder(a, b, z, tuple(terms))

    def derivatives(self, z, order: int = 2, ladder: KummerLadder | None = None):
        """[f, f', ..., f^(order)] at z, order <= 2, read from ``ladder`` if given."""
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
        a, b = self.a, self.b
        z = np.asarray(z, dtype=float)
        if ladder is None:
            ladder = self.ladder(z, order)
        elif ladder[:2] != (a, b) or len(ladder.terms) <= order or not (
            np.array_equal(ladder.z, z)
        ):
            raise ValueError(f"ladder {ladder[:2]} lacks order {order} of {a, b} at z")
        m = ladder.terms
        pref = self.coeff * np.exp(-0.5 * z) * np.power(z, 0.5 * self.mu)
        w1, w2 = a / b, a * (a + 1.0) / (b * (b + 1.0))
        out = [pref * m[0]]
        if order >= 1:
            g = 0.5 * self.mu / z - 0.5
            out.append(pref * (g * m[0] + w1 * m[1]))
        if order == 2:
            curv = g * g - 0.5 * self.mu / (z * z)
            out.append(pref * (curv * m[0] + 2.0 * g * w1 * m[1] + w2 * m[2]))
        return out

    def value_z(self, z, ladder: KummerLadder | None = None):
        return self.derivatives(z, 0, ladder)[0]

    def dvalue_dz(self, z):
        """Exact d/dz; requires z > 0 when mu > 0."""
        return self.derivatives(z, 1)[1]

    def d2value_dz2(self, z):
        """Exact d^2/dz^2; requires z > 0 when mu > 0."""
        return self.derivatives(z, 2)[2]


@dataclass(frozen=True, eq=False)
class RadialFunction:
    """A closed-form profile sampled on a grid in the given units.

    ``values`` is not an input: it is the profile evaluated once at every
    grid sample, read-only, so the samples and the profile cannot disagree.
    A ``ladder`` of the profile at those samples is read, not summed again.
    ``normalize`` returns the function's normalization constant.
    ``angular_index`` is the e^{i k phi} factor the full 2-d function
    carries: regularity at the origin ties it to the power z**(mu/2), so it
    is the profile's mu (m+1 for the derived lower component).
    """

    grid: RadialGrid
    profile: KummerProfile
    params: PhysicalParams
    values: np.ndarray = field(init=False)
    ladder: InitVar[KummerLadder | None] = None

    def __post_init__(self, ladder):
        z = to_dimensionless_z(self.grid.samples, self.params)
        values = self.profile.value_z(z, ladder)
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite at every sample")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def angular_index(self) -> int:
        return self.profile.mu


@dataclass(frozen=True)
class SpinorSample:
    """Both spinor components at one point (rho, phi); phi folded to [0, 2pi)."""

    rho: float
    phi: float
    psi1: complex
    psi2: complex

    def __post_init__(self):
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * math.pi))


def psi1_profile(qn: QuantumNumbers) -> KummerProfile:
    """Upper-component profile exp(-z/2) z**(m/2) M(-(n+1), m+1, z)."""
    return KummerProfile(coeff=1.0, mu=qn.m, a=-(qn.n + 1.0))


def closed_form_norm_constant(qn: QuantumNumbers, params: PhysicalParams) -> float:
    """Normalization constant of psi1 from Laguerre orthogonality.

    With M(-(n+1), m+1, z) = L_{n+1}^{(m)}(z) / binom(n+m+1, n+1) and
    integral exp(-z) z^m [L_k^{(m)}]^2 dz = (k+m)!/k!, the squared norm
    collapses to pi b^2 (n+1)! (m!)^2 / (n+m+1)!.
    """
    b = params.oscillator_length
    n, m = qn.n, qn.m
    squared = (
        math.pi
        * b
        * b
        * math.factorial(n + 1)
        * math.factorial(m) ** 2
        / math.factorial(n + m + 1)
    )
    return 1.0 / math.sqrt(squared)


def radial_psi1(
    qn: QuantumNumbers, grid: RadialGrid, params: PhysicalParams
) -> RadialFunction:
    """Upper-component radial function: ``psi1_profile`` sampled on the grid."""
    return RadialFunction(grid, psi1_profile(qn), params)


def radial_psi2(
    qn: QuantumNumbers, grid: RadialGrid, params: PhysicalParams
) -> RadialFunction:
    """Lower-component ansatz exp(-z/2) z**(m/2) M(-n, m+1, z).

    This is the shape quoted for the lower component with the same angular
    factor as psi1.  The coupling operator instead produces angular index
    m+1 (see ``derive_lower_component``); both are exposed so the two
    conventions can be compared.
    """
    profile = KummerProfile(coeff=1.0, mu=qn.m, a=-float(qn.n))
    return RadialFunction(grid, profile, params)


def normalize(rf: RadialFunction) -> float:
    """The constant A such that 2*pi * integral |A R|^2 rho d rho = 1.

    The quadrature comes from the oracle module so the constant can be
    checked against the closed form from Laguerre orthogonality.  ``rf`` is
    left as it is; A multiplies its values.  If the integrand still
    carries weight at rho_max (estimated tail mass above 1e-10 of the total)
    the grid is too short and a TruncationError is raised.
    """
    from .oracle import integrate_radial

    weight = 2.0 * math.pi * np.abs(rf.values) ** 2 * rf.grid.samples
    total = integrate_radial(weight, rf.grid)
    if total <= 0.0:
        raise ValueError("cannot normalize an identically zero radial function")
    f_end = float(weight[-1])
    if f_end > 0.0:
        # Estimate the lost tail from the integrand's own decay rate at the
        # edge: fit f ~ exp(-rho/L) to the last two samples, tail ~ f_end * L.
        f_prev = float(weight[-2])
        if f_prev > f_end:
            tail = f_end * rf.grid.spacing / math.log(f_prev / f_end)
        else:
            tail = f_end * rf.grid.rho_max
        if tail > 1e-10 * total:
            raise TruncationError(
                f"estimated tail mass {tail:.3e} beyond rho_max exceeds "
                f"1e-10 of the norm integral {total:.3e}; enlarge the grid"
            )
    return 1.0 / math.sqrt(total)


def lower_component_profile(psi1_radial: RadialFunction, E: float) -> KummerProfile:
    """Profile of ``derive_lower_component``, without sampling it on a grid."""
    params = psi1_radial.params
    rest = params.rest_energy
    if not math.isfinite(E) or E + rest <= 0.0:
        raise ValueError(f"E + m0 c^2 must be positive, got E={E!r}")
    p = psi1_radial.profile
    scale = params.hbar * params.c / (E + rest)
    return KummerProfile(
        coeff=p.coeff * scale * 2.0 * math.sqrt(params.gamma) * (p.a / p.b),
        mu=p.mu + 1,
        a=p.a + 1.0,
    )


def derive_lower_component(psi1_radial: RadialFunction, E: float) -> RadialFunction:
    """Lower-component radial profile obtained from the coupling operator.

    Returns (hbar c / (E + m0 c^2)) * [R' - (m/rho) R + gamma rho R] as a
    RadialFunction on psi1's grid and in psi1's units, where m is psi1's
    angular index; the full 2-d component is -i times this profile times
    e^{i (m+1) phi}.  The bracket is evaluated through the exact derivative
    identity, never by finite differences: for
    R = coeff e^{-z/2} z^{m/2} M(a, b, z) it equals
    2 sqrt(gamma) coeff (a/b) e^{-z/2} z^{(m+1)/2} M(a+1, b+1, z).
    """
    profile = lower_component_profile(psi1_radial, E)
    return RadialFunction(psi1_radial.grid, profile, psi1_radial.params)


def spinor_sample(
    qn: QuantumNumbers, rho: float, phi: float, E: float, params: PhysicalParams
) -> SpinorSample:
    """Both spinor components at (rho, phi) for the normalized state.

    psi1 = A e^{i m phi} R1(rho) with A fixed by ``normalize`` on the default
    grid; psi2 follows from the coupling operator applied to that psi1, so
    the pair satisfies the first-order system by construction.
    """
    if rho < 0.0:
        raise ValueError(f"rho must be non-negative, got {rho!r}")
    grid = default_grid(params)
    psi1_rf = radial_psi1(qn, grid, params)
    A = normalize(psi1_rf)
    lower = derive_lower_component(psi1_rf, E)

    z = to_dimensionless_z(rho, params)
    r1 = float(psi1_rf.profile.value_z(z))
    g = float(lower.profile.value_z(z))
    psi1 = A * complex(math.cos(qn.m * phi), math.sin(qn.m * phi)) * r1
    phase2 = complex(math.cos((qn.m + 1) * phi), math.sin((qn.m + 1) * phi))
    psi2 = -1j * A * phase2 * g
    return SpinorSample(rho=float(rho), phi=phi, psi1=psi1, psi2=psi2)


def sign_changes(values) -> int:
    """Strict sign changes in a sample sequence, ignoring near-zero samples."""
    v = np.asarray(values, dtype=float)
    scale = float(np.max(np.abs(v))) if v.size else 0.0
    if scale == 0.0:
        return 0
    kept = v[np.abs(v) > NODE_FLOOR * scale]
    return int(np.sum(kept[:-1] * kept[1:] < 0.0))


def count_radial_nodes(qn: QuantumNumbers, params: PhysicalParams) -> int:
    """Sign changes of the upper radial profile on (0, rho_max); equals n+1.

    rho_max = (2 sqrt(4(n+1) + 2m) + 4) * b covers every root of the
    terminating polynomial with margin (Laguerre root bound).
    """
    span = 2.0 * math.sqrt(4.0 * (qn.n + 1) + 2.0 * qn.m) + 4.0
    grid = RadialGrid(span * params.oscillator_length, 4097)
    rf = radial_psi1(qn, grid, params)
    return sign_changes(rf.values[1:-1])
