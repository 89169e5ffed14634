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

Every Kummer term is a row M(a, b, z) on a grid's z.  A ``RadialFunction``
reads its rows from a private table keyed by (a, b), which sums a missing
row once with ``kummer_m`` and keeps it; a derived lower component reads
its psi1's table, and each state of ``_psi1_family`` a table of the rows
it reads, filled by one recurrence pass.  The table forms exp(-z/2), and
per power mu z**(mu/2) and the derivative terms, once on its own z, where
a function samples its profile once: its interior samples are slices.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .specfun import _degree_rows, kummer_m
from .spectrum import QuantumNumbers
from .units import PhysicalParams, to_dimensionless_z

__all__ = [
    "TruncationError",
    "RadialGrid",
    "KummerProfile",
    "RadialFunction",
    "SpinorSample",
    "default_grid",
    "psi1_profile",
    "closed_form_norm_constant",
    "radial_psi1",
    "radial_psi2",
    "normalize",
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


class _Rows(dict):
    """Rows M(a, b, z) on one z, keyed by (a, b); a missing row is summed and kept.

    ``once`` keeps what depends on z alone: the profiles' factors, each
    formed on this z when first read.
    """

    def __init__(self, z, factors=None, rows=()):
        super().__init__(rows)
        self.z, self._factors = z, {} if factors is None else factors

    def __missing__(self, key):
        row = self[key] = kummer_m(*key, self.z)
        return row

    def once(self, key, form):
        """The entry ``key``: ``form()`` at its first read, kept for the later ones."""
        if key not in self._factors:
            self._factors[key] = form()
        return self._factors[key]


@dataclass(frozen=True)
class KummerProfile:
    """Descriptor of f(z) = coeff * exp(-z/2) * z**(mu/2) * M(a, mu + 1, z).

    ``derivatives`` is the one evaluator: it returns f and its first
    ``order`` z-derivatives from the shifted terms of

        d^k M/dz^k = [a (a+1)...(a+k-1)] / [b (b+1)...(b+k-1)] M(a+k, b+k, z),

    summing each M(a+k, b+k, z) at most once.  A term whose weight is
    exactly zero is skipped: M is a polynomial of degree -a with no
    derivative past it, so only terminating series are ever summed.
    A profile with coeff 0 is identically zero and sums no term at all.
    z may be a row table, whose z it evaluates at and whose rows it reads.
    ``value_z``, ``dvalue_dz`` and ``d2value_dz2`` are single-output views.
    """

    coeff: float
    mu: int
    a: float

    @property
    def b(self) -> float:
        """Second Kummer argument, fixed by the power: b = mu + 1."""
        return self.mu + 1.0

    def _keys(self, order: int) -> list:
        """(a+k, b+k), k <= order, where coeff and the weight a (a+1)...(a+k-1) are not 0."""
        live = (k for k in range(order + 1) if all(self.a + j for j in range(k)))
        return [(self.a + k, self.b + k) for k in live] if self.coeff else []

    def derivatives(self, z, order: int = 2):
        """[f, f', ..., f^(order)] at z (or a row table), order <= 2."""
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
        a, b, mu = self.a, self.b, self.mu
        rows = z if isinstance(z, _Rows) else _Rows(np.asarray(z, dtype=float))
        z, keys = rows.z, self._keys(order)
        m = [rows[key] for key in keys] + [0.0] * (order + 1 - len(keys))
        with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf, refused below
            decay = rows.once("exp", lambda: np.exp(-0.5 * z))
            pref = self.coeff * decay * rows.once(("power", mu), lambda: np.power(z, 0.5 * mu))
        if not np.all(np.isfinite(pref)):
            bad = float(np.min(z[~np.isfinite(pref)]))
            raise ValueError(f"coeff exp(-z/2) z**(mu/2) leaves float64 at z = {bad:.6g}")
        w1, w2 = a / b, a * (a + 1.0) / (b * (b + 1.0))
        out = [pref * m[0]]
        if order >= 1:
            # at mu = 0 these are the constants the forms give at z > 0, and at z = 0
            g = rows.once(("g", mu), lambda: 0.5 * mu / z - 0.5 if mu else -0.5)
            out.append(pref * (g * m[0] + w1 * m[1]))
        if order == 2:
            curv = rows.once(("curv", mu), lambda: g * g - 0.5 * mu / (z * z) if mu else 0.25)
            out.append(pref * (curv * m[0] + 2.0 * g * w1 * m[1] + w2 * m[2]))
        return out

    def value_z(self, z):
        return self.derivatives(z, 0)[0]

    def dvalue_dz(self, z):
        """Exact d/dz; requires z > 0 when mu > 0."""
        return self.derivatives(z, 1)[1]

    def d2value_dz2(self, z):
        """Exact d^2/dz^2; requires z > 0 when mu > 0."""
        return self.derivatives(z, 2)[2]


@dataclass(frozen=True, eq=False)
class RadialFunction:
    """A closed-form profile sampled on a grid in the given units.

    ``values`` is not an input: it is the profile evaluated at every grid
    sample when first read, read-only, so the samples and the profile
    cannot disagree, and a function whose values no one reads samples none.
    It keeps one read-only tuple [f, ..., f^(k)] on the grid, at the highest
    order k read so far: ``values`` is its f, and ``interior`` its slices
    [1:-1], which are the floats formed at the interior z.  Its terms
    M(a+k, b+k) come from a row table on the grid's read-only z, which sums
    a row when first read, for this function or any that shares the table
    (see ``derive_lower_component``), unless it holds it (see ``_psi1_family``).
    ``normalize`` returns the function's normalization constant.
    ``angular_index`` is the e^{i k phi} factor the full 2-d function
    carries: regularity at the origin ties it to the power z**(mu/2), so it
    is the profile's mu (m+1 for the derived lower component).
    """

    grid: RadialGrid
    profile: KummerProfile
    params: PhysicalParams
    _samples: tuple = field(init=False, repr=False, default=())
    _rows: _Rows = field(default=None, repr=False, kw_only=True)  # a shared table

    def __post_init__(self):
        if self._rows is None:
            z = to_dimensionless_z(self.grid.samples, self.params)
            z.setflags(write=False)
            object.__setattr__(self, "_rows", _Rows(z))

    def _grid_samples(self, order: int) -> tuple:
        """[f, ..., f^(order)] on the grid, order <= 2, read-only, kept at the highest
        order formed; order 0 goes through ``value_z``, which perfbench's tracer counts."""
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
        if len(self._samples) <= order:
            rows, profile = self._rows, self.profile
            # for mu > 0, f' and f'' read inf or nan at z = 0, where no one reads them
            with np.errstate(divide="ignore", invalid="ignore"):
                out = profile.derivatives(rows, order) if order else [profile.value_z(rows)]
            for samples in out:
                samples.setflags(write=False)
            object.__setattr__(self, "_samples", tuple(out))
        return self._samples[: order + 1]

    @cached_property
    def values(self) -> np.ndarray:
        (values,) = self._grid_samples(0)
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite at every sample")
        return values

    @property
    def angular_index(self) -> int:
        return self.profile.mu

    def interior(self, order: int):
        """rho and [f, ..., f^(order)] at grid.samples[1:-1], order <= 2, read-only."""
        return self.grid.samples[1:-1], tuple(f[1:-1] for f in self._grid_samples(order))


@dataclass(frozen=True)
class SpinorSample:
    """Both spinor components at one point (rho, phi); phi folded to [0, 2pi)."""

    rho: float
    phi: float
    psi1: complex
    psi2: complex

    def __post_init__(self):
        # a tiny negative phi rounds up to 2pi, which the range leaves out
        phi = float(self.phi) % (2.0 * math.pi)
        object.__setattr__(self, "phi", phi if phi < 2.0 * math.pi else 0.0)


def psi1_profile(qn: QuantumNumbers) -> KummerProfile:
    """Upper-component profile exp(-z/2) z**(m/2) M(-(n+1), m+1, z)."""
    return KummerProfile(coeff=1.0, mu=qn.m, a=-(qn.n + 1.0))


def closed_form_norm_constant(qn: QuantumNumbers, params: PhysicalParams) -> float:
    """Normalization constant of psi1 from Laguerre orthogonality.

    With M(-(n+1), m+1, z) = L_{n+1}^{(m)}(z) / binom(n+m+1, n+1) and
    integral exp(-z) z^m [L_k^{(m)}]^2 dz = (k+m)!/k!, the squared norm
    collapses to pi b^2 (n+1)! (m!)^2 / (n+m+1)! = pi b^2 m! / binom(n+m+1, m),
    that exact ratio rounded once.  Outside float64's normal range it is refused:
    before any factorial is formed, where its log-gamma estimate is beyond 2**+-1100.
    """
    b = params.oscillator_length
    n, m = qn.n, qn.m
    try:
        log_ratio = 2.0 * math.lgamma(m + 1) + math.lgamma(n + 2) - math.lgamma(n + m + 2)
    except OverflowError:  # past 1e305 the exact ratio decides
        log_ratio = 0.0
    if abs(log_ratio) > 1100.0 * math.log(2.0):
        raise ValueError(f"the norm constant at n={n}, m={m} leaves float64")
    try:
        ratio = math.factorial(m) / math.comb(n + m + 1, m)
    except OverflowError:
        ratio = math.inf
    squared = math.pi * b * b * ratio
    if not all(sys.float_info.min <= x < math.inf for x in (ratio, squared)):
        raise ValueError(f"the norm constant at n={n}, m={m} leaves float64")
    return 1.0 / math.sqrt(squared)


def radial_psi1(
    qn: QuantumNumbers, grid: RadialGrid, params: PhysicalParams
) -> RadialFunction:
    """Upper-component radial function: ``psi1_profile`` sampled on the grid."""
    return RadialFunction(grid, psi1_profile(qn), params)


def _psi1_family(m: int, n_max: int, grid: RadialGrid, params: PhysicalParams):
    """Yield ``radial_psi1`` of the states n = 0 .. n_max at angular index m.

    No state sums a row of its own: state n reads M(-(n+1-k), m+1+k), k <= 2,
    the rows of degrees n+1, n and n-1 of one degree recurrence over the
    column b = (m+1, m+2, m+3), n_max + 1 steps.  Each state's table holds
    exactly those rows, and all share one z and one set of factors.  Each
    element of a row is the same steps as ``kummer_m`` of its degree and b,
    so each function equals its own ``radial_psi1`` bit for bit.
    """
    z = to_dimensionless_z(grid.samples, params)
    z.setflags(write=False)
    factors, held, stream = {}, {}, _degree_rows(m + np.array([[1.0], [2.0], [3.0]]), z)
    for d, stacked in zip(range(n_max + 2), stream):
        held = {key: row for key, row in held.items() if -key[0] > d - 3}
        held.update(((-float(d), m + 1.0 + i), row) for i, row in enumerate(stacked))
        if d:  # state d - 1 reads degrees d - 2 .. d
            profile = psi1_profile(QuantumNumbers(d - 1, m))
            own = {key: held[key] for key in profile._keys(2) if key in held}
            yield RadialFunction(grid, profile, params, _rows=_Rows(z, factors, own))


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


def _norm_integral(integrand, integrate, grid: RadialGrid, *parts):
    """The norm integral ``integrate(integrand(rho, *parts), grid)``, scaled exactly.

    Returns (weight, total, grid, unit): the sampled integrand, its integral
    and the grid it was taken on, where the norm integral is total * unit**2.
    The parts are divided by 2**e and rho by 2**f, the powers of two that
    bring the largest part and rho_max into [1, 2), and unit = 2**(e + f).
    That division is exact: wherever the plain integral is a normal float,
    total * unit**2 is that float.
    """
    e = math.frexp(max(float(np.max(np.abs(p))) for p in parts))[1] - 1
    f = math.frexp(grid.rho_max)[1] - 1
    unit_grid = RadialGrid(math.ldexp(grid.rho_max, -f), grid.num_points)
    weight = integrand(unit_grid.samples, *(np.ldexp(p, -e) for p in parts))
    # two float factors: where 2**(e + f) leaves float64, unit reads inf or 0
    unit = math.ldexp(1.0, e) * math.ldexp(1.0, f)
    return weight, integrate(weight, unit_grid), unit_grid, unit


def normalize(rf: RadialFunction) -> float:
    """The constant A such that 2*pi * integral |A R|^2 rho d rho = 1.

    The quadrature comes from the oracle module so the constant can be
    checked against the closed form from Laguerre orthogonality.  ``rf`` is
    left as it is; A multiplies its values.  If the integrand still
    carries weight at rho_max (estimated tail mass above 1e-10 of the total)
    the grid is too short and a TruncationError is raised.  The integral is
    scaled by powers of two (see ``_norm_integral``), so it never leaves
    float64; a constant A outside float64's normal range is refused.
    """
    from .oracle import integrate_radial

    weight, total, grid, unit = _norm_integral(
        lambda rho, v: 2.0 * math.pi * np.abs(v) ** 2 * rho,
        integrate_radial,
        rf.grid,
        rf.values,
    )
    if total <= 0.0:
        raise ValueError("cannot normalize an identically zero radial function")
    f_end = float(weight[-1])
    if f_end > 0.0:
        # Estimate the lost tail from the integrand's own decay rate at the
        # edge: fit f ~ exp(-rho/L) to the last two samples, tail ~ f_end * L.
        f_prev = float(weight[-2])
        if f_prev > f_end:
            tail = f_end * grid.spacing / math.log(f_prev / f_end)
        else:
            tail = f_end * grid.rho_max
        if tail > 1e-10 * total:
            raise TruncationError(
                f"estimated tail mass beyond rho_max is {tail / total:.3e} of the "
                "norm integral, above 1e-10; enlarge the grid"
            )
    return 1.0 / _root(total, unit)


def _root(total: float, unit: float) -> float:
    """unit * sqrt(total), refused where its inverse would leave float64."""
    root = unit * math.sqrt(total)
    if not sys.float_info.min <= root < math.inf:
        raise ValueError(
            f"the normalization constant 1/({unit:.3e} * sqrt({total:.3e})) leaves float64"
        )
    return root


def derive_lower_component(psi1_radial: RadialFunction, E: float) -> RadialFunction:
    """Lower-component radial profile obtained from the coupling operator.

    Returns (hbar c / (E + m0 c^2)) * [R' - (m/rho) R + gamma rho R] as a
    RadialFunction on psi1's grid and in psi1's units, where m is psi1's
    angular index; the full 2-d component is -i times this profile times
    e^{i (m+1) phi}.  The bracket is evaluated through the exact derivative
    identity, never by finite differences: for
    R = coeff e^{-z/2} z^{m/2} M(a, b, z) it equals
    2 sqrt(gamma) coeff (a/b) e^{-z/2} z^{(m+1)/2} M(a+1, b+1, z).
    It reads psi1's row table: its terms M(a+1+k, b+1+k) are psi1's from
    k = 1 on, so a row that either reads is summed once.
    """
    grid, p, params = psi1_radial.grid, psi1_radial.profile, psi1_radial.params
    rest = params.rest_energy
    if not (math.isfinite(E) and 0.0 < E + rest < math.inf):
        raise ValueError(f"E + m0 c^2 must be positive and finite, got E={E!r}")
    scale = params.hbar * params.c / (E + rest)
    profile = KummerProfile(
        coeff=p.coeff * scale * 2.0 * math.sqrt(params.gamma) * (p.a / p.b),
        mu=p.mu + 1,
        a=p.a + 1.0,
    )
    return RadialFunction(grid, profile, params, _rows=psi1_radial._rows)


def spinor_sample(
    qn: QuantumNumbers, rho: float, phi: float, E: float, params: PhysicalParams
) -> SpinorSample:
    """Both spinor components at (rho, phi) for the normalized state.

    psi1 = A e^{i m phi} R1(rho) with A fixed by ``normalize`` on the default
    grid; psi2 follows from the coupling operator applied to that psi1, so
    the pair satisfies the first-order system by construction.
    """
    if not (rho >= 0.0 and math.isfinite(phi)):
        raise ValueError(f"rho must be >= 0 and phi finite: rho={rho!r}, phi={phi!r}")
    grid = default_grid(params)
    psi1_rf = radial_psi1(qn, grid, params)
    A = normalize(psi1_rf)
    lower = derive_lower_component(psi1_rf, E)
    lower.values  # refuses a lower component that leaves float64 on the grid

    z = to_dimensionless_z(rho, params)
    r1 = float(psi1_rf.profile.value_z(z))
    g = float(lower.profile.value_z(z))
    psi1 = A * complex(math.cos(qn.m * phi), math.sin(qn.m * phi)) * r1
    phase2 = complex(math.cos((qn.m + 1) * phi), math.sin((qn.m + 1) * phi))
    psi2 = -1j * A * phase2 * g
    return SpinorSample(rho=float(rho), phi=phi, psi1=psi1, psi2=psi2)


def sign_changes(values) -> int:
    """Strict sign changes in a sequence of finite samples, ignoring near-zero ones."""
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("sign changes need finite samples")
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
