"""Independent numerical machinery that checks the closed forms.

Nothing in this module reuses the analytic spectrum or eigenfunction shapes:
the eigensolver discretizes the Dirac coupling operator directly, the
quadrature is plain composite Simpson, the Laguerre reference table is
exact integer arithmetic, and the residual evaluators push candidate
solutions back through the differential equations.  Agreement
between this module and the closed-form modules is the package's primary
correctness evidence.

The coupled equations factorise.  With x = rho/b, the lower component is
A applied to the upper one, A = d/dx - m/x + x, and in the x dx inner
product A^dagger = -d/dx - (m+1)/x + x.  A^dagger A is the radial operator
minus 2(m+1), with the levels 4 n_r and a zero mode at the rest energy;
A A^dagger has the levels 4(n+1), n >= 0, with none at zero, and its
level times lam is the x of E = m0 c^2 sqrt(1 + x).  ``build_dirac_operator``
discretizes A as a bidiagonal B between cell centres and faces, so B B^T is
a symmetric tridiagonal matrix whose eigenvalues approximate those levels
for every m alike.

The eigenvalues come from Sturm counts, sped up by Newton steps on the
determinant and certified by counts to the adjacent-float bracket that
plain bisection ends on (see ``smallest_eigenvalues``).  A count reads the
shift only through the rounded diagonal d_j - sigma, so a shift that
rounds it as a bracket end did takes that end's count without a pass over
the rows, and a predicted level skips the isolating bisection.  Because
the convergence is second order, ``extrapolated_levels`` cancels the
leading error from two coarse grids whose spacings differ by exactly 2,
and it predicts their first three levels from grids of 65 and 129 points:
a ``verify`` at n_max 20 makes 114-130 counts and 69-75 Newton passes, a
third of them on those short grids, and visits 106,569-111,027 rows.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .spectrum import EnergyLevel
from .units import PhysicalParams
from .wavefn import RadialFunction, RadialGrid, derive_lower_component
from .wavefn import radial_psi1  # noqa: F401  (perfbench's tracer test reads it here)

__all__ = [
    "TridiagonalOperator",
    "ResidualReport",
    "integrate_radial",
    "build_dirac_operator",
    "smallest_eigenvalues",
    "Extrapolation",
    "extrapolated_levels",
    "ode_residual",
    "coupled_residual",
]

# The smallest grid, in points, that build_dirac_operator discretizes.
_MIN_POINTS = 64
# extrapolated_levels seeds a coarse grid of more intervals than this from
# the head levels of grids of this many intervals and half as many.
_HEAD_INTERVALS = 128


@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix, such as the Dirac operator B B^T.

    Entries are dimensionless (grid coordinates divided by the oscillator
    length), so B B^T's eigenvalues approximate the levels 4(n + 1).
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


def build_dirac_operator(
    m: int, grid: RadialGrid, params: PhysicalParams
) -> TridiagonalOperator:
    """B B^T for the coupling operator A = d/dx - m/x + x, x = rho/b.

    On K = N - 1 intervals of width h, r sits on the cell centres
    c_j = (j - 1/2) h and g = A r on the interior faces f_j = j h, with
    g_j = (r_{j+1} - r_j)/h + (f_j - m/f_j)(r_j + r_{j+1})/2.  Scaling the
    rows by sqrt(f_j) and the columns by 1/sqrt(c_j) makes B act between
    the discrete x dx norms, so the eigenvalues of B B^T approximate those
    of A A^dagger, 4(n + 1) for n >= 0.  Only A's coefficients enter.
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"m must be a non-negative integer, got {m!r}")
    if grid.num_points < _MIN_POINTS:
        raise ValueError(
            "grid too coarse for the eigensolver: "
            f"{grid.num_points} < {_MIN_POINTS} points"
        )
    x_max = grid.rho_max / params.oscillator_length
    intervals = grid.num_points - 1
    h = x_max / intervals
    # B's entries stay below (m + 1)/h + x_max in modulus, and the Sturm
    # counts square those of B B^T: refuse a grid where that leaves float64.
    bound = (m + 1) / h + x_max if h > 0.0 else math.inf
    if not math.isfinite(bound * bound * bound * bound):
        raise ValueError(
            f"rho_max={grid.rho_max!r} ({x_max!r} oscillator lengths) "
            "puts the operator's entries beyond float64"
        )
    centres = (np.arange(1, intervals + 1) - 0.5) * h
    faces = np.arange(1, intervals) * h
    half = 0.5 * (faces - m / faces)
    weight = np.sqrt(faces)
    d = weight / np.sqrt(centres[:-1]) * (half - 1.0 / h)
    e = weight / np.sqrt(centres[1:]) * (half + 1.0 / h)
    return TridiagonalOperator(diagonal=d * d + e * e, off_diagonal=e[:-1] * d[1:])


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
    the same; p = prod q_i gives p'/p = sum q_i'/q_i, where q_i'/q_i =
    (t_i q_{i-1}'/q_{i-1} - 1) / q_i with t_i = e_i^2 / q_{i-1}.  Overflow
    shows as a non-finite ratio, which the caller treats as a failed step.
    """
    count = 0
    q = 1.0
    r = 0.0
    ratio = 0.0
    for d, e2 in zip(diag, off_sq):
        t = e2 / q
        q = d - sigma - t
        if q < pivmin:
            if q > -pivmin:
                q = -pivmin
            count += 1
        r = (t * r - 1.0) / q
        ratio += r
    return count, ratio


def smallest_eigenvalues(op: TridiagonalOperator, count: int, *, starts=()) -> list[float]:
    """The ``count`` algebraically smallest eigenvalues, ascending.

    The k-th eigenvalue is the midpoint of the adjacent-float pair (lo, hi)
    with a Sturm count below k at lo and at least k at hi.  The IEEE count
    (d - sigma) - e^2/q is monotone in sigma (Demmel, Dhillon and Ren 1995),
    so that pair does not depend on how it is reached, and plain bisection
    from the Gershgorin interval gives the same floats.  The pair is reached
    in four phases:

    1. every count narrows the bracket of every level (Barth, Martin and
       Wilkinson 1967; LAPACK ``dstebz``);
    2. level i (from 0) is predicted from the levels returned, at
       3 l[-1] - 3 l[-2] + l[-3] from i = 3 on; below, at starts[i] +
       (l[-1] - starts[i-1]) (starts[0] at i = 0), or without a start at
       2 l[-1] - l[-2] for i = 2.  A prediction strictly inside the bracket,
       with i or i + 1 eigenvalues below it, skips this phase; otherwise the
       bracket is bisected until it holds exactly one eigenvalue and is no
       wider than the larger magnitude of its ends, since Newton creeps from
       far outside the spectrum;
    3. safeguarded Newton steps on det(T - sigma) run from the prediction,
       or else the bracket midpoint, until the relative step is below 1e-8
       (a step that leaves the bracket is replaced by its midpoint, and
       every pass narrows the brackets through its count);
    4. counts gallop outwards from the Newton iterate until the bracket is
       closed on both sides, and bisection takes it to adjacent floats.  The
       first step is half the finest spacing of the floats |d_j - sigma|
       (and at least one ulp of sigma), the rounding cell of the shifted
       diagonal: a shorter step seldom changes any fl(d_j - sigma).  Each
       round doubles the step.

    Every shift a level counts is compared with those at its bracket
    ends: a shift whose rounded diagonal fl(d_j - sigma) matches one end's,
    byte for byte, takes that end's count without a pass over the rows.
    This is exact, not a guess: the pivots (d_j - sigma) - e_j^2 / q_{j-1}
    read sigma only through those floats, so equal floats give equal pivots
    and an equal count.  So the returned floats stay those of plain
    bisection, and since most shifts of phase 4 fall in the cell of an end,
    the passes over the rows fall by more than half.

    ``starts`` (count-certified levels of an operator for the same
    equation, never the closed form) steer only the path: any values give
    the same floats; a wrong prediction costs one pass.  The result sits
    far inside an absolute 1e-10 times the Gershgorin radius, so the
    discretization error, not the eigensolver, limits any comparison.  A
    level that never meets phase 2 (an exactly repeated eigenvalue, or one
    at zero) is bisected throughout.  The solve runs on 2**-e times the
    operator, where 2**-e brings its largest entry into [1/2, 1), so no
    shift, midpoint, pivot or pivot floor leaves float64.  The division is
    exact wherever no entry falls below float64's normal range, so the
    levels of 2**k times an operator are 2**k times its levels.  A level
    that leaves float64 when multiplied back by 2**e is refused.
    """
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    if count > op.dimension:
        raise ValueError(
            f"count={count} exceeds the operator dimension {op.dimension}"
        )
    # solve 2**-e times the operator, whose largest entry is in [1/2, 1)
    largest = max(np.max(np.abs(op.diagonal)), np.max(np.abs(op.off_diagonal), initial=0.0))
    e = math.frexp(largest)[1]
    with np.errstate(over="ignore"):  # a start past float64 steers nowhere
        starts = np.ldexp(np.fromiter(starts, float), -e).tolist()
    diagonal, off = np.ldexp(op.diagonal, -e), np.ldexp(op.off_diagonal, -e)
    diag = diagonal.tolist()
    off_sq = [0.0] + (off * off).tolist()
    radius = np.concatenate([np.abs(off), [0.0]]) + np.concatenate([[0.0], np.abs(off)])
    lower = float(np.min(diagonal - radius))
    upper = float(np.max(diagonal + radius))
    bound = max(abs(lower), abs(upper))
    # the unscaled solve's margin 1e-12 max(bound, 1), times 2**-e (capped where that overflows)
    margin = 1e-12 * max(bound, math.ldexp(1.0, min(-e, 1023)))
    lower -= margin
    upper += margin
    pivmin = max(np.finfo(float).tiny, 1e-20 * max(off_sq[1:], default=1.0))

    # Level k = i + 1 lies in (lo[i], hi[i]]; lo_count/hi_count are the
    # Sturm counts at the ends (untested ends take those of the Gershgorin
    # interval).
    lo, lo_count = [lower] * count, [0] * count
    hi, hi_count = [upper] * count, [op.dimension] * count

    def record(sigma, below, cell):
        # the levels below i are solved: only the brackets from i on move
        for j in range(i, min(below, count)):
            if sigma < hi[j]:
                hi[j], hi_count[j] = sigma, below
        for j in range(max(below, i), count):
            if sigma > lo[j]:
                lo[j], lo_count[j] = sigma, below
        ends[below > i] = cell, below

    def count_at(sigma):
        # The pivots read sigma only through the rounded d_j - sigma, so a
        # shift that rounds the diagonal as a bracket end did takes its count.
        cell = (diagonal - sigma).tobytes()
        below = next((n for end, n in ends if end == cell), None)
        if below is None:
            below = _negative_pivot_count(diag, off_sq, sigma, pivmin)
        record(sigma, below, cell)

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

    def prediction(i) -> float:
        if i >= 3:
            return 3.0 * eigenvalues[-1] - 3.0 * eigenvalues[-2] + eigenvalues[-3]
        if i < len(starts):
            return starts[i] + (eigenvalues[-1] - starts[i - 1] if i else 0.0)
        return 2.0 * eigenvalues[-1] - eigenvalues[-2] if i == 2 else math.nan

    def newton(i, sigma, predicted) -> float:
        # The Newton iterate, or nan for a sigma off the bracket or the level.
        if not lo[i] < sigma < hi[i]:
            return math.nan
        for step in range(_NEWTON_MAX_STEPS):
            below, ratio = _newton_pass(diag, off_sq, sigma, pivmin)
            record(sigma, below, (diagonal - sigma).tobytes())
            if predicted and step == 0 and below not in (i, i + 1):
                return math.nan
            finite = ratio != 0.0 and math.isfinite(ratio)
            target = sigma - 1.0 / ratio if finite else math.nan
            if not lo[i] <= target <= hi[i]:
                target = 0.5 * (lo[i] + hi[i])
            done = abs(target - sigma) <= _NEWTON_RTOL * abs(target)
            sigma = target
            if done:
                break
        return sigma

    eigenvalues = []
    for i in range(count):
        # (bytes of the rounded d - sigma, count) at level i's latest shift
        # below and above its eigenvalue: its bracket ends, once it moved them.
        ends = [(b"", 0), (b"", 0)]
        sigma = newton(i, prediction(i), predicted=True)
        if math.isnan(sigma):
            while not newton_ready(i) and bisect(i):
                pass
            if newton_ready(i):
                sigma = newton(i, 0.5 * (lo[i] + hi[i]), predicted=False)
        if not math.isnan(sigma):
            # Gallop from the rounding cell of the shifted diagonal, the
            # spacing of its smallest magnitude: a shorter step seldom
            # rounds it otherwise, and would repeat a count.
            spacing = np.spacing(np.min(np.abs(diagonal - sigma)))
            delta = max(0.5 * float(spacing), math.ulp(sigma))
            while lo[i] < sigma - delta or hi[i] > sigma + delta:
                if lo[i] < sigma - delta:
                    count_at(sigma - delta)
                if hi[i] > sigma + delta:
                    count_at(sigma + delta)
                delta *= 2.0
        while bisect(i):
            pass
        eigenvalues.append(0.5 * (lo[i] + hi[i]))
    try:
        return [math.ldexp(level, e) for level in eigenvalues]
    except OverflowError:
        top = max(eigenvalues, key=abs)
        raise ValueError(f"the operator's level {top!r} * 2**{e} leaves float64") from None


# Levels extrapolated to zero spacing, the largest relative correction
# |k - k_fine| / k_fine, and the (coarse, fine) point counts they were read on.
Extrapolation = namedtuple("Extrapolation", "levels correction points")


def extrapolated_levels(
    m: int, grid: RadialGrid, params: PhysicalParams, count: int
) -> Extrapolation:
    """The ``count`` smallest levels of the Dirac operator B B^T at zero spacing.

    ``smallest_eigenvalues`` reads the levels k_coarse and k_fine on two grids
    over ``grid``'s [0, rho_max], of K and 2K intervals with
    K = 2 floor((N - 1) / 16) for a grid of N points (513 and 1025 points
    when N = 4097).  Their spacings differ by exactly 2 and the error is
    second order in the spacing, so (4 k_fine - k_coarse) / 3 cancels its
    leading term.  The correction |k - k_fine| / k_fine estimates the fine
    grid's discretization error.  Only finite-difference eigenvalues enter,
    never the closed-form ladder.

    The solves take ``starts``, which spare their isolating bisections and
    Newton passes and move no float.  When K > 128, the first
    h = min(count, 3) levels are first solved on 64 and 128 intervals over
    the same extent (65 and 129 points), the second solve starting from the
    first one's levels a.  Its levels b extrapolate to L = (4b - a)/3, and
    the coarse solve starts from L + (b - L)(128/K)^2.  With its levels c
    and q = (K/128)^2, the fine solve starts from L' + (c - L')/4, where
    L' = (q c - b)/(q - 1).  These levels only steer: none enters the
    result.  For K <= 128 the coarse solve has no starts and the fine solve
    starts from the coarse levels.

    A grid whose coarse partner would fall below the operator's 64 points,
    or hold fewer than ``count`` interior rows, is refused, and so is an
    extent at which a coarse, fine or extrapolated level reads zero or
    less: B B^T is positive definite, so rounding has swamped it there.
    """
    intervals = 2 * ((grid.num_points - 1) // 16)
    needed = max(_MIN_POINTS - 1, count + 1)  # intervals of the coarse grid
    if intervals < needed:
        least = 16 * math.ceil(needed / 2) + 1
        raise ValueError(
            f"{grid.num_points} grid points are too few to extrapolate "
            f"{count} levels of the spectrum: use --grid-points {least} or more"
        )
    points = (intervals + 1, 2 * intervals + 1)

    def solve(n, levels, starts=()):
        op = build_dirac_operator(m, RadialGrid(grid.rho_max, n), params)
        return smallest_eigenvalues(op, levels, starts=starts)

    if intervals <= _HEAD_INTERVALS:
        k_coarse = solve(points[0], count)
        k_fine = solve(points[1], count, k_coarse)
    else:
        head = min(count, 3)  # the solver reads starts for three levels only
        a = solve(_HEAD_INTERVALS // 2 + 1, head)
        b = solve(_HEAD_INTERVALS + 1, head, a)
        limit = [(4.0 * y - x) / 3.0 for x, y in zip(a, b)]
        ratio = (_HEAD_INTERVALS / intervals) ** 2
        k_coarse = solve(points[0], count, [L + (y - L) * ratio for L, y in zip(limit, b)])
        q = (intervals / _HEAD_INTERVALS) ** 2
        limit = [(q * c - y) / (q - 1.0) for c, y in zip(k_coarse, b)]
        k_fine = solve(points[1], count, [L + (c - L) / 4.0 for L, c in zip(limit, k_coarse)])
    levels = [(4.0 * fine - coarse) / 3.0 for coarse, fine in zip(k_coarse, k_fine)]
    lowest = min(k_coarse + k_fine + levels)
    if lowest <= 0.0:
        raise ValueError(
            f"rho_max={grid.rho_max!r} ({grid.rho_max / params.oscillator_length!r} "
            f"oscillator lengths) swamps the operator's levels in rounding: one reads {lowest!r}"
        )
    correction = max(abs(k - fine) / fine for k, fine in zip(levels, k_fine))
    return Extrapolation(levels, correction, points)


def _laguerre_table(n_max: int, alphas, z_set) -> np.ndarray:
    """M(-n, alpha+1, z) = L_n^(alpha)(z) / binom(n+alpha, n) for n <= n_max.

    Exact rationals, each rounded once to float64, along (n, alpha of
    ``alphas``, z of ``z_set``).  For z = p/q, M_k = A_k alpha! / (q^k (k+alpha)!),
    where A_0 = 1 and A_{k+1} = ((2k + alpha + 1) q - p) A_k - (k + alpha) k q^2 A_{k-1}
    is the Laguerre recurrence cleared of its denominators, in integers.
    """
    out = np.empty((n_max + 1, len(alphas), len(z_set)))
    for j, z in enumerate(z_set):
        p, q = float(z).as_integer_ratio()
        for i, alpha in enumerate(alphas):
            prev, cur, denominator = 0, 1, 1
            for k in range(n_max + 1):
                out[k, i, j] = cur / denominator  # int / int rounds once
                step = ((2 * k + alpha + 1) * q - p) * cur - (k + alpha) * k * q * q * prev
                prev, cur, denominator = cur, step, denominator * (k + alpha + 1) * q
    return out


def _report(equation_id, rho, equations, degenerate) -> ResidualReport:
    """Report the worse of ``equations``, each the list of its terms at ``rho``.

    An equation's relative residual is the modulus of its terms' sum per
    sample over the RMS of the per-sample dominant term.  The report carries
    the largest RMS, and the largest max with its radius (the first equation
    wins a tie); where every residual is zero, ``worst_rho`` is 0.0.  A term
    that is not finite reaches the largest dominant term and is refused there.
    Every term is first divided by the power of two that brings that term
    into [1, 2), so the mean square never leaves float64; the division is
    exact, so the residuals are those of the plain terms wherever their
    squares stay normal.  The dominant term and the sum accumulate the
    terms in place, in their order.
    """
    stats = []  # (rms, max, radius of the max) per equation
    for terms in equations:
        dominant = np.abs(terms[0])
        for t in terms[1:]:
            np.maximum(dominant, np.abs(t), out=dominant)
        largest = float(np.max(dominant))
        if not math.isfinite(largest):
            raise ValueError(f"{equation_id}: a term of the equation leaves float64")
        e = math.frexp(largest)[1] - 1
        np.ldexp(dominant, -e, out=dominant)
        scale = float(np.sqrt(np.mean(dominant * dominant)))
        rel = np.ldexp(terms[0], -e)
        for t in terms[1:]:
            rel += np.ldexp(t, -e)
        rel = np.abs(rel, out=rel) / scale if scale else np.zeros_like(dominant)
        i = int(np.argmax(rel))
        peak = float(rel[i])
        rms = float(np.sqrt(np.mean(rel * rel)))
        stats.append((rms, peak, float(rho[i]) if peak else 0.0))
    _, peak, worst_rho = max(stats, key=lambda s: s[1])
    rms = max(s[0] for s in stats)
    return ResidualReport(equation_id, rms, peak, degenerate, worst_rho)


def ode_residual(rf: RadialFunction, m: int, k1: float) -> ResidualReport:
    """Residual of a radial profile in the second-order equation.

    Evaluates z^2 F'' + z F' + (k1 z - m^2 - z^2) F / 4 at the interior
    samples, with z in ``rf``'s own units and F', F'' taken from the exact
    closed-form derivatives of the profile (no finite differencing), and
    normalizes by the RMS of the per-sample dominant term.
    """
    rho, (f, fz, fzz) = rf.interior(2)
    z = rf._rows.z[1:-1]  # rf's own z at the interior samples
    terms = [
        z * z * fzz,
        z * fz,
        0.25 * k1 * z * f,
        -0.25 * (m * m) * f,
        -0.25 * z * z * f,
    ]
    return _report("radial-ode", rho, [terms], degenerate=not np.any(rf.values))


def coupled_residual(
    level: EnergyLevel, psi1: RadialFunction, lower: RadialFunction | None = None
) -> ResidualReport:
    """Residual of (psi1, psi2) in the coupled first-order system.

    psi1 is the caller's upper component, whose angular index the check
    uses; psi2 defaults to the lower component derived from it for
    ``level.E``, and a ``lower`` that is passed must share psi1's grid and
    units (a profile with coeff 0 is the standard decoupling check).  The
    upper equation takes E - m0 c^2 from ``level.excitation``, which keeps
    its digits where subtracting the rest energy from E would cancel (SI
    units).  Both first-order equations are evaluated at the interior radii
    through exact radial derivatives of the closed forms.  The angular
    factors e^{i m phi} and -i e^{i(m+1) phi} that multiply the two
    equations have modulus one, so every angle gives the same relative
    residual and the radial reduction is the whole check.
    The report carries the worse of the two equations' relative RMS.
    """
    E = level.E
    params = psi1.params
    rest = params.rest_energy
    if not (math.isfinite(E) and 0.0 < E + rest < math.inf):
        raise ValueError(f"E + m0 c^2 must be positive and finite, got E={E!r}")
    rho, (r1, r1_z) = psi1.interior(1)
    if lower is None:
        lower = derive_lower_component(psi1, E)

    m = psi1.angular_index
    hbar_c = params.hbar * params.c
    tension = params.c * params.rest_mass * params.omega  # c m0 w
    rho_g, (g, g_z) = lower.interior(1)
    if lower.params != params or not np.array_equal(rho_g, rho):
        raise ValueError("lower must share psi1's grid and units")
    # 2 (gamma rho) is (2 gamma) rho exactly, and finite where 2 gamma is not.
    dz_drho = 2.0 * (params.gamma * rho)
    r1_prime, g_prime = dz_drho * r1_z, dz_drho * g_z

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
