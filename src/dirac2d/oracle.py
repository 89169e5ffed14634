"""Independent numerical machinery that checks the closed forms.

Nothing in this module reuses the analytic spectrum or eigenfunction shapes:
the eigensolver discretizes the radial differential operator directly, the
quadrature is plain composite Simpson, and the residual evaluators push
candidate solutions back through the differential equations.  Agreement
between this module and the closed-form modules is the package's primary
correctness evidence.

The radial operator is posed for u(rho) = rho**(1/2) R(rho), which removes
the first-derivative term and leaves the symmetric form

    -u'' + [(m^2 - 1/4)/rho^2 + gamma^2 rho^2] u = k^2 u.

Discretely, the rho-weighted flux form of the R equation is symmetrized by
the similarity w_j = rho_j**(1/2) R_j, giving a symmetric tridiagonal matrix
whose stencil weights -(j + 1/2)/(h^2 sqrt(j (j+1))) carry the -1/(4 rho^2)
part geometrically.  Evaluating that singular term as a bare diagonal
potential instead stalls the m = 0 convergence near the origin (the exact u
behaves like rho**(1/2) there); the flux form restores clean second-order
eigenvalue convergence for every m >= 0.  For m = 0 the origin is a regular
point of R, so the first row eliminates R_0 through R'(0) = 0; for m >= 1
the R(0) = 0 boundary drops the coupling outright.  Working in units of the
oscillator length makes the matrix dimensionless, so its eigenvalues are the
k1 values directly.

The eigenvalues come from Sturm counts, sped up by Newton steps on the
determinant and certified by counts to the adjacent-float bracket that
plain bisection ends on (see ``smallest_eigenvalues``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import EnergyLevel
from .units import PhysicalParams, to_dimensionless_z
from .wavefn import KummerLadder, RadialFunction, RadialGrid, lower_component_profile
from .wavefn import radial_psi1  # noqa: F401  (perfbench's tracer test reads it here)

__all__ = [
    "TridiagonalOperator",
    "ResidualReport",
    "integrate_radial",
    "build_radial_operator",
    "smallest_eigenvalues",
    "ode_residual",
    "coupled_residual",
    "dirac_excitations_from_k1",
]

@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """Symmetric tridiagonal discretization of the radial eigenproblem.

    Entries are dimensionless (grid coordinates divided by the oscillator
    length), so eigenvalues approximate the k1 spectrum 2(2*n_r + m + 1).
    """

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def __post_init__(self):
        diag = np.asarray(self.diagonal, dtype=float)
        off = np.asarray(self.off_diagonal, dtype=float)
        if diag.ndim != 1 or off.shape != (diag.size - 1,):
            raise ValueError("off-diagonal must be one entry shorter than the diagonal")
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
            raise ValueError("operator entries must be finite")
        diag.setflags(write=False)
        off.setflags(write=False)
        object.__setattr__(self, "diagonal", diag)
        object.__setattr__(self, "off_diagonal", off)

    @property
    def dimension(self) -> int:
        return self.diagonal.size


@dataclass(frozen=True)
class ResidualReport:
    """Relative residuals of a candidate solution against one equation.

    The denominator is the RMS over samples of the per-sample largest term
    of the equation, so the numbers are grid and parameter independent and
    a one-percent eigenvalue error registers at the percent level.
    ``worst_rho`` is the radius of the largest relative residual, and 0.0
    where every residual is zero, as for an identically zero input, which
    ``degenerate`` marks.
    """

    equation_id: str
    rms_residual: float
    max_residual: float
    degenerate: bool = False
    worst_rho: float = 0.0

    def __post_init__(self):
        if self.rms_residual < 0.0 or self.max_residual < 0.0:
            raise ValueError("residuals must be non-negative")
        if self.rms_residual > self.max_residual * (1.0 + 1e-12):
            raise ValueError("rms residual cannot exceed the max residual")


def integrate_radial(values, grid: RadialGrid) -> float:
    """Composite Simpson integral of sampled values over [0, rho_max].

    The sample count (including the rho = 0 endpoint) must be odd so the
    interval count is even.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.num_points,):
        raise ValueError("values must match the grid sample count")
    if grid.num_points % 2 == 0:
        raise ValueError("composite Simpson needs an odd number of samples")
    h = grid.spacing
    return float(
        (h / 3.0) * (v[0] + v[-1] + 4.0 * v[1:-1:2].sum() + 2.0 * v[2:-1:2].sum())
    )


def build_radial_operator(
    m: int, grid: RadialGrid, params: PhysicalParams
) -> TridiagonalOperator:
    """Discretize the radial operator for angular index m on the given grid.

    Interior nodes run from rho_1 = h to rho_{N-2}; u vanishes at both ends
    (at the origin through the rho**(1/2) factor, at rho_max by Dirichlet
    truncation).  Eigenvalues of the returned matrix approximate k1.
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"m must be a non-negative integer, got {m!r}")
    if grid.num_points < 64:
        raise ValueError(
            f"grid too coarse for the eigensolver: {grid.num_points} < 64 points"
        )
    b = params.oscillator_length
    hx = (grid.rho_max / b) / (grid.num_points - 1)
    j = np.arange(1, grid.num_points - 1, dtype=float)
    x = j * hx
    diagonal = 2.0 / hx**2 + (m * m) / (x * x) + x * x
    if m == 0:
        # R is regular at the origin with R'(0) = 0; eliminating R_0 ~ R_1
        # from the first flux cell reduces the leading diagonal entry.
        diagonal[0] -= 0.5 / hx**2
    jj = j[:-1]
    off_diagonal = -(jj + 0.5) / (hx**2 * np.sqrt(jj * (jj + 1.0)))
    return TridiagonalOperator(diagonal=diagonal, off_diagonal=off_diagonal)


def _negative_pivot_count(diag, off_sq, sigma, pivmin) -> int:
    """Sturm count: eigenvalues of the tridiagonal matrix below sigma.

    ``off_sq[i]`` couples row i to row i - 1; ``off_sq[0]`` is 0, so the
    first pivot is diag[0] - sigma.  A pivot of modulus below pivmin is
    replaced by -pivmin and counted.
    """
    count = 0
    q = 1.0
    for d, e2 in zip(diag, off_sq):
        q = d - sigma - e2 / q
        if q < pivmin:
            if q > -pivmin:
                q = -pivmin
            count += 1
    return count


# Newton stops at this relative step: the next step would sit in the
# pivots' rounding noise (about 1e-11 absolute on the default grid), where
# only Sturm counts can still resolve the eigenvalue.
_NEWTON_RTOL = 1e-8
_NEWTON_MAX_STEPS = 40


def _newton_pass(diag, off_sq, sigma, pivmin) -> tuple[int, float]:
    """Sturm count at sigma and p'/p at sigma, p(sigma) = det(T - sigma).

    The pivots q_i are those of ``_negative_pivot_count``, so the count is
    the same; p = prod q_i gives p'/p = sum q_i'/q_i with
    q_i' = -1 + e_i^2 q_{i-1}' / q_{i-1}^2.  Overflow shows as a non-finite
    ratio, which the caller treats as a failed step.
    """
    count = 0
    q = 1.0
    dq = 0.0
    ratio = 0.0
    for d, e2 in zip(diag, off_sq):
        t = e2 / q
        dq = t * dq / q - 1.0
        q = d - sigma - t
        if q < pivmin:
            if q > -pivmin:
                q = -pivmin
            count += 1
        ratio += dq / q
    return count, ratio


def smallest_eigenvalues(op: TridiagonalOperator, count: int) -> list[float]:
    """The ``count`` algebraically smallest eigenvalues, ascending.

    The k-th eigenvalue is the midpoint of the adjacent-float pair (lo, hi)
    with a Sturm count below k at lo and at least k at hi.  The IEEE count
    (d - sigma) - e^2/q is monotone in sigma (Demmel, Dhillon and Ren 1995),
    so that pair does not depend on how it is reached, and plain bisection
    from the Gershgorin interval gives the same floats.  The pair is reached
    in four phases:

    1. every count narrows the bracket of every level (Barth, Martin and
       Wilkinson 1967; LAPACK ``dstebz``);
    2. the level's bracket is bisected until it holds exactly one eigenvalue
       and is no wider than the larger magnitude of its ends, since Newton
       creeps from far outside the spectrum;
    3. safeguarded Newton steps on det(T - sigma), started at the midpoint of
       that bracket, run until the relative step is below 1e-8 (a step
       that leaves the bracket is replaced by its midpoint, and every pass
       narrows the brackets through its count);
    4. counts gallop outwards from the Newton iterate (64 ulp, times 16 per
       round) until the bracket is closed on both sides, and bisection takes
       it to adjacent floats.

    The Newton start comes from Sturm counts alone, never from the closed
    form.  The result sits far inside an absolute 1e-10 times the Gershgorin
    radius, so the discretization error, not the eigensolver, limits any
    comparison.  A level that never meets phase 2 (an exactly repeated
    eigenvalue, or one at zero) is bisected throughout.
    """
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    if count > op.dimension:
        raise ValueError(
            f"count={count} exceeds the operator dimension {op.dimension}"
        )
    diag = op.diagonal.tolist()
    off = op.off_diagonal
    off_sq = [0.0] + (off * off).tolist()
    radius = np.concatenate([np.abs(off), [0.0]]) + np.concatenate([[0.0], np.abs(off)])
    lower = float(np.min(op.diagonal - radius))
    upper = float(np.max(op.diagonal + radius))
    margin = 1e-12 * max(abs(lower), abs(upper), 1.0)
    lower -= margin
    upper += margin
    pivmin = max(np.finfo(float).tiny, 1e-20 * max(off_sq[1:], default=1.0))

    # Level k = i + 1 lies in (lo[i], hi[i]]; lo_count/hi_count are the
    # Sturm counts at the ends (untested ends take those of the Gershgorin
    # interval).
    lo, lo_count = [lower] * count, [0] * count
    hi, hi_count = [upper] * count, [op.dimension] * count

    def record(sigma, below):
        for j in range(min(below, count)):
            if sigma < hi[j]:
                hi[j], hi_count[j] = sigma, below
        for j in range(below, count):
            if sigma > lo[j]:
                lo[j], lo_count[j] = sigma, below

    def count_at(sigma):
        record(sigma, _negative_pivot_count(diag, off_sq, sigma, pivmin))

    def bisect(i) -> bool:
        mid = 0.5 * (lo[i] + hi[i])
        if mid <= lo[i] or mid >= hi[i]:
            return False
        count_at(mid)
        return True

    def newton_ready(i) -> bool:
        # One eigenvalue in the bracket, and a bracket no wider than its
        # ends' magnitude: from far outside the spectrum Newton crawls.
        isolated = (lo_count[i], hi_count[i]) == (i, i + 1)
        return isolated and hi[i] - lo[i] <= max(-lo[i], hi[i])

    eigenvalues = []
    for i in range(count):
        while not newton_ready(i) and bisect(i):
            pass
        if newton_ready(i):
            sigma = 0.5 * (lo[i] + hi[i])
            for _ in range(_NEWTON_MAX_STEPS):
                below, ratio = _newton_pass(diag, off_sq, sigma, pivmin)
                record(sigma, below)
                finite = ratio != 0.0 and math.isfinite(ratio)
                target = sigma - 1.0 / ratio if finite else math.nan
                if not lo[i] < target < hi[i]:
                    target = 0.5 * (lo[i] + hi[i])
                done = abs(target - sigma) <= _NEWTON_RTOL * abs(target)
                sigma = target
                if done:
                    break
            delta = 64.0 * math.ulp(sigma)
            while lo[i] < sigma - delta or hi[i] > sigma + delta:
                if lo[i] < sigma - delta:
                    count_at(sigma - delta)
                if hi[i] > sigma + delta:
                    count_at(sigma + delta)
                delta *= 16.0
        while bisect(i):
            pass
        eigenvalues.append(0.5 * (lo[i] + hi[i]))
    return eigenvalues


def dirac_excitations_from_k1(
    k1_values, m: int, params: PhysicalParams
) -> list[tuple[int, float]]:
    """Map finite-difference k1 levels onto bound-state excitations E - m0 c^2.

    Each k1 = 2(2 n_r + m + 1) level with n_r >= 1 is the state n = n_r - 1
    with excitation m0 c^2 x / (1 + sqrt(1 + x)), x = (k1 - 2(m+1)) lam,
    which keeps its digits where E rounds to m0 c^2 (SI units).  The
    n_r = 0 level sits exactly at the rest energy, where the terminating
    index would be -1; the quantized family starts above it, so that level
    is skipped here by design rather than reported as a mismatch.
    """
    out = []
    for k1 in k1_values:
        kinetic = float(k1) - 2.0 * (m + 1)
        n_r = int(round(kinetic / 4.0))
        if n_r < 1:
            continue
        x = kinetic * params.lam
        out.append((n_r - 1, params.rest_energy * x / (1.0 + math.sqrt(1.0 + x))))
    return out


def _report(equation_id, rho, equations, degenerate) -> ResidualReport:
    """Report the worse of ``equations``, each the list of its terms at ``rho``.

    An equation's relative residual is the modulus of its terms' sum per
    sample over the RMS of the per-sample dominant term.  The report carries
    the largest RMS, and the largest max with its radius (the first equation
    wins a tie); where every residual is zero, ``worst_rho`` is 0.0.
    """
    stats = []  # (rms, max, radius of the max) per equation
    for terms in equations:
        dominant = np.maximum.reduce([np.abs(t) for t in terms])
        scale = float(np.sqrt(np.mean(dominant * dominant)))
        rel = np.abs(sum(terms)) / scale if scale else np.zeros_like(dominant)
        i = int(np.argmax(rel))
        peak = float(rel[i])
        rms = float(np.sqrt(np.mean(rel * rel)))
        stats.append((rms, peak, float(rho[i]) if peak else 0.0))
    _, peak, worst_rho = max(stats, key=lambda s: s[1])
    rms = max(s[0] for s in stats)
    return ResidualReport(equation_id, rms, peak, degenerate, worst_rho)


def ode_residual(
    rf: RadialFunction, m: int, k1: float, ladder: KummerLadder | None = None
) -> ResidualReport:
    """Residual of a radial profile in the second-order equation.

    Evaluates z^2 F'' + z F' + (k1 z - m^2 - z^2) F / 4 at the interior
    samples, with z in ``rf``'s own units and F', F'' taken from the exact
    closed-form derivatives of the profile (no finite differencing), and
    normalizes by the RMS of the per-sample dominant term.  ``ladder``, the
    profile's ``KummerProfile.ladder`` at those z, spares summing it again.
    """
    rho = rf.grid.samples[1:-1]
    z = to_dimensionless_z(rho, rf.params)
    f, fz, fzz = rf.profile.derivatives(z, 2, ladder)
    terms = [
        z * z * fzz,
        z * fz,
        0.25 * k1 * z * f,
        -0.25 * (m * m) * f,
        -0.25 * z * z * f,
    ]
    return _report("radial-ode", rho, [terms], degenerate=not np.any(rf.values))


def coupled_residual(
    level: EnergyLevel,
    psi1: RadialFunction,
    lower: RadialFunction | None = None,
    ladder: KummerLadder | None = None,
) -> ResidualReport:
    """Residual of (psi1, psi2) in the coupled first-order system.

    psi1 is the caller's upper component, whose grid, units and angular
    index the check uses; psi2 defaults to the profile of the lower
    component derived from it for ``level.E``, which reads psi1's ``ladder``
    from its second term on and is never sampled on the grid.  The upper
    equation takes E - m0 c^2 from ``level.excitation``, which keeps its
    digits where subtracting the rest energy from E would cancel (SI units).
    Both first-order equations are evaluated at the interior radii through
    exact radial derivatives of the closed forms.  The angular factors
    e^{i m phi} and -i e^{i(m+1) phi} that multiply the two equations have
    modulus one, so every angle gives the same relative residual and the
    radial reduction is the whole check.
    The report carries the worse of the two equations' relative RMS.
    Passing ``lower`` overrides the second component (a profile with
    coeff 0 is the standard decoupling check).
    """
    E = level.E
    params = psi1.params
    rest = params.rest_energy
    if not math.isfinite(E) or E + rest <= 0.0:
        raise ValueError(f"E + m0 c^2 must be positive, got E={E!r}")

    m = psi1.angular_index
    rho = psi1.grid.samples[1:-1]
    z = to_dimensionless_z(rho, params)
    hbar_c = params.hbar * params.c
    tension = params.c * params.rest_mass * params.omega  # c m0 w

    if ladder is None:
        ladder = psi1.profile.ladder(z)
    r1, r1_z = psi1.profile.derivatives(z, 1, ladder)
    r1_prime = 2.0 * params.gamma * rho * r1_z
    if lower is None:
        lower_profile = lower_component_profile(psi1, E)
        lower_ladder = KummerLadder(ladder.a + 1.0, ladder.b + 1.0, z, ladder.terms[1:])
    else:
        lower_profile, lower_ladder = lower.profile, None
    g, g_z = lower_profile.derivatives(z, 1, lower_ladder)
    g_prime = 2.0 * params.gamma * rho * g_z

    # Radial reductions of the two first-order equations.
    terms_up = [
        level.excitation * r1,
        hbar_c * g_prime,
        hbar_c * (m + 1) * g / rho,
        -tension * rho * g,
    ]
    terms_down = [
        hbar_c * r1_prime,
        -hbar_c * m * r1 / rho,
        tension * rho * r1,
        -(E + rest) * g,
    ]
    degenerate = not (np.any(psi1.values) or np.any(g))
    return _report("coupled-first-order", rho, [terms_up, terms_down], degenerate)
