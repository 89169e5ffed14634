"""Independent numerical machinery that checks the closed forms.

Nothing in this module reuses the analytic spectrum or eigenfunction shapes:
the eigensolver discretizes the Dirac coupling operator directly, the
quadrature is a trapezoid rule on nodes set by m, n_max and b alone, the
Laguerre reference table is exact integer arithmetic, and the residual
evaluators push candidate solutions back through the differential
equations.  Agreement between this module and the closed-form modules is
the package's primary correctness evidence.

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
each solve starting from the levels of the solves before it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .spectrum import EnergyLevel, _turning_point
from .wavefn import RadialFunction, derive_lower_component
from .wavefn import radial_psi1  # noqa: F401  (perfbench's tracer test reads it here)

__all__ = [
    "TridiagonalOperator",
    "ResidualReport",
    "TrapezoidNodes",
    "trapezoid_nodes",
    "build_dirac_operator",
    "smallest_eigenvalues",
    "Extrapolation",
    "extrapolated_levels",
    "ode_residual",
    "coupled_residual",
]

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


TrapezoidNodes = namedtuple("TrapezoidNodes", "samples weights")


def trapezoid_nodes(m: int, n_max: int, b: float) -> TrapezoidNodes:
    """Radii rho_k = b log(1 + e^{t_k}) and weights w_k for states n <= n_max at index m.

    b^2 sum_k w_k f(rho_k) is the t-trapezoid for integral 2 pi rho f d rho,
    w_k = h 2 pi x dx/dt at x = rho/b; t_k = t_min + k h up to the first at or past
    s + 7, s = sqrt(4(n_max + 1) + 2m), h = min(0.15, 2.3/s).  The integrand falls
    as a Gaussian past the top state's turning point s b, and below t as
    e^{(2m + 2) t}: there a normalized state n <= n_max holds at most the mass
    R e^{(2m + 2) t}, R = binom(n_max + m + 1, m) / (m + 1)!, since
    |e^{-z/2} M(-(n+1), m+1, z)| <= 1.  So t_min is -20/(m + 1), stepped down by
    whole steps h until that mass is at most e^-30.  The rule then converges
    exponentially (Trefethen and Weideman, SIAM Review 56, 2014).  Only m,
    n_max, b enter; s of 64 or more is refused.
    """
    s = _turning_point(m, n_max)
    h = min(0.15, 2.3 / s)
    log_r = math.log(math.comb(n_max + m + 1, m)) - math.lgamma(m + 2)  # log R
    t_min = -20.0 / (m + 1) - h * max(0, math.ceil((log_r - 10.0) / ((2 * m + 2) * h)))
    t = t_min + h * np.arange(math.ceil((s + 7.0 - t_min) / h) + 1)
    x = np.logaddexp(0.0, t)
    return TrapezoidNodes(b * x, h * 2.0 * math.pi * x / (1.0 + np.exp(-t)))


def build_dirac_operator(m: int, x_max: float, intervals: int) -> TridiagonalOperator:
    """B B^T for the coupling operator A = d/dx - m/x + x on [0, x_max], x = rho/b.

    On ``intervals`` = K intervals of width h = x_max/K, r sits on the cell
    centres c_j = (j - 1/2) h and g = A r on the interior faces f_j = j h, with
    g_j = (r_{j+1} - r_j)/h + (f_j - m/f_j)(r_j + r_{j+1})/2.  Scaling the
    rows by sqrt(f_j) and the columns by 1/sqrt(c_j) makes B act between
    the discrete x dx norms, so the eigenvalues of B B^T approximate those
    of A A^dagger, 4(n + 1) for n >= 0.  Only A's coefficients enter: m,
    the extent x_max in units of b (finite and positive) and K, an integer
    of at least 64.  A grid whose entries would leave float64 is refused.
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"m must be a non-negative integer, got {m!r}")
    if isinstance(intervals, bool) or not isinstance(intervals, (int, np.integer)) or intervals < 64:
        raise ValueError(f"intervals must be an integer of at least 64, got {intervals!r}")
    x_max, intervals = float(x_max), int(intervals)
    if not (math.isfinite(x_max) and x_max > 0.0):
        raise ValueError(f"x_max must be positive and finite, got {x_max!r}")
    h = x_max / intervals
    # B's entries stay below (m + 1)/h + x_max in modulus, so B B^T's stay
    # below 4 times its square: refuse a grid where that leaves float64.
    bound = (m + 1) / h + x_max if h > 0.0 and m < 2**1023 else math.inf
    if not math.isfinite(4.0 * bound * bound):
        raise ValueError(
            f"x_max={x_max!r} on {intervals} intervals puts the operator's entries "
            "beyond float64 at this m"
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
       Wilkinson 1967; LAPACK ``dstebz``); the brackets ascend with the
       level, so the narrowing stops at the first end a count cannot move;
    2. level i (from 0) is predicted from the levels returned, at
       3 l[-1] - 3 l[-2] + l[-3] from i = 3 on; below, at starts[i], or
       without a start at 2 l[-1] - l[-2] for i = 2;
    3. safeguarded Newton steps on det(T - sigma) run from the prediction
       until the relative step is below 1e-8 (a step that leaves the
       bracket is replaced by its midpoint, and every pass narrows the
       brackets through its count).  A prediction off the bracket, or a
       pass with neither i nor i + 1 eigenvalues below it, ends Newton: the
       bracket is bisected until it holds exactly one eigenvalue, and Newton
       restarts from its midpoint;
    4. counts gallop outwards from the Newton iterate, one ulp of it on
       either side and doubling the step each round, until the bracket is
       closed on both sides, and bisection takes it to adjacent floats.

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
    the same floats; a wrong prediction costs a few passes.  The result sits
    far inside an absolute 1e-10 times the Gershgorin radius, so the
    discretization error, not the eigensolver, limits any comparison.  A
    level whose bracket never holds it alone (an exactly repeated
    eigenvalue) is bisected throughout.  The solve runs on 2**-e times the
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
        # The levels below i are solved: only the brackets from i on move.
        # From i on, lo and hi ascend with the level (by induction over this
        # function, their only writer), so no end past the first one a walk
        # keeps (hi walking down, lo walking up) moves either.
        for j in range(min(below, count) - 1, i - 1, -1):
            if sigma >= hi[j]:
                break
            hi[j], hi_count[j] = sigma, below
        for j in range(max(below, i), count):
            if sigma <= lo[j]:
                break
            lo[j], lo_count[j] = sigma, below
        ends[below > i] = cell, below

    shifted = np.empty_like(diagonal)  # the rounded d - sigma of the latest shift

    def count_at(sigma):
        # The pivots read sigma only through the rounded d_j - sigma, so a
        # shift that rounds the diagonal as a bracket end did takes its count.
        cell = np.subtract(diagonal, sigma, out=shifted).tobytes()
        (lo_cell, lo_below), (hi_cell, hi_below) = ends
        if cell == lo_cell:
            below = lo_below
        elif cell == hi_cell:
            below = hi_below
        else:
            below = _negative_pivot_count(diag, off_sq, sigma, pivmin)
        record(sigma, below, cell)

    def bisect(i) -> bool:
        mid = 0.5 * (lo[i] + hi[i])
        if mid <= lo[i] or mid >= hi[i]:
            return False
        count_at(mid)
        return True

    def prediction(i) -> float:
        if i >= 3:
            return 3.0 * eigenvalues[-1] - 3.0 * eigenvalues[-2] + eigenvalues[-3]
        if i < len(starts):
            return starts[i]
        return 2.0 * eigenvalues[-1] - eigenvalues[-2] if i == 2 else math.nan

    def newton(i, sigma) -> float:
        # The Newton iterate, or nan for a sigma off the bracket or a pass off the level.
        if not lo[i] < sigma < hi[i]:
            return math.nan
        for _ in range(_NEWTON_MAX_STEPS):
            below, ratio = _newton_pass(diag, off_sq, sigma, pivmin)
            record(sigma, below, np.subtract(diagonal, sigma, out=shifted).tobytes())
            if below not in (i, i + 1):
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
        sigma = newton(i, prediction(i))
        if math.isnan(sigma):
            while (lo_count[i], hi_count[i]) != (i, i + 1) and bisect(i):
                pass
            sigma = newton(i, 0.5 * (lo[i] + hi[i]))
        if not math.isnan(sigma):
            delta = math.ulp(sigma)
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


def _richardson(coarse, fine, ratio):
    """(ratio y - x) / (ratio - 1) for level pairs whose spacings' squares differ by ratio."""
    return [(ratio * y - x) / (ratio - 1.0) for x, y in zip(coarse, fine)]


def extrapolated_levels(m: int, n_max: int) -> Extrapolation:
    """The levels n <= n_max of the Dirac operator B B^T at zero spacing.

    ``smallest_eigenvalues`` reads the levels k_coarse and k_fine on K and 2K
    intervals of width b/32 and b/64, K = 16 ceil(2(s + 4)) for the top
    state's turning point s b (``_turning_point``), so the extent reaches 4 b
    past it.  The error is second order in the spacing, so
    (4 k_fine - k_coarse) / 3 cancels its leading term, and the correction
    |k - k_fine| / k_fine estimates the fine grid's error.  B B^T acts on
    x = rho/b: the grids are in units of b, and only m and n_max enter.  On one
    spacing a shorter grid's B B^T is a leading principal submatrix of a
    longer grid's, so by Cauchy interlacing an extent too short can only
    raise the levels: it fails the comparison with 4(n + 1), never hides it.

    The solves form one chain: the first min(n_max + 1, 3) levels on 64 and
    128 intervals over the same extent, then K and 2K.  The first solve has
    no starts and the second starts from its levels.  Each later solve, of
    n intervals, starts from the two before it, levels x on n0 intervals
    and y on n1: from their limit L = (r y - x)/(r - 1), r = (n1/n0)^2, plus
    y's error scaled to its own spacing, L + (y - L)(n1/n)^2.  Starts move
    no float: only the last two solves enter the result.  A level at zero or
    below is refused: B B^T is positive definite, so rounding swamped it.
    """
    count = n_max + 1
    intervals = 16 * math.ceil(2.0 * (_turning_point(m, n_max) + 4.0))
    head = min(count, 3)  # the solver reads starts for three levels only
    solves = []  # (intervals, levels) per solve, in order
    for n, levels in [(64, head), (128, head), (intervals, count), (2 * intervals, count)]:
        starts = solves[-1][1] if solves else ()
        if len(solves) >= 2:
            (n0, x), (n1, y) = solves[-2:]
            limit = _richardson(x, y, (n1 / n0) ** 2)
            starts = [L + (b - L) * (n1 / n) ** 2 for L, b in zip(limit, y)]
        op = build_dirac_operator(m, intervals / 32.0, n)
        solves.append((n, smallest_eigenvalues(op, levels, starts=starts)))
    (_, k_coarse), (_, k_fine) = solves[-2:]
    levels = _richardson(k_coarse, k_fine, 4.0)
    lowest = min(k_coarse + k_fine + levels)
    if lowest <= 0.0:
        raise ValueError(f"rounding swamps the operator's levels at m={m}: one reads {lowest!r}")
    correction = max(abs(k - fine) / fine for k, fine in zip(levels, k_fine))
    return Extrapolation(levels, correction, (intervals + 1, 2 * intervals + 1))


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


def _report(equation_id, rho, equations, degenerate):
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
    terms in place, in their order.  Terms of shape (states, rho) give a list
    of one report per row, the floats of that row's terms alone.
    """
    stacked = np.ndim(equations[0][0]) > 1
    stats = []  # (rms, max, radius of the max) per equation, an entry per row each
    for terms in equations:
        terms = [np.atleast_2d(t) for t in terms]
        dominant = np.abs(terms[0])
        for t in terms[1:]:
            np.maximum(dominant, np.abs(t), out=dominant)
        largest = dominant.max(axis=1)
        if not np.all(np.isfinite(largest)):
            raise ValueError(f"{equation_id}: a term of the equation leaves float64")
        e = np.frexp(largest)[1][:, None] - 1
        np.ldexp(dominant, -e, out=dominant)
        # np.add.reduce(x) / n is np.mean's pairwise sum and division
        scale = np.sqrt(np.add.reduce(dominant * dominant, axis=1) / dominant.shape[1])
        rel = np.ldexp(terms[0], -e)
        for t in terms[1:]:
            rel += np.ldexp(t, -e)
        rel = np.abs(rel, out=rel) / np.where(scale, scale, np.inf)[:, None]  # 0 where all are
        i = rel.argmax(axis=1)
        peak = rel[np.arange(len(i)), i]
        rms = np.sqrt(np.add.reduce(rel * rel, axis=1) / rel.shape[1])
        stats.append((rms, peak, np.where(peak, rho[i], 0.0)))
    stats = np.array(stats)  # (equation, statistic, row)
    rms = stats[:, 0].max(axis=0).tolist()
    peak, worst_rho = stats[stats[:, 1].argmax(axis=0), 1:, range(len(rms))].T.tolist()
    degenerate = np.broadcast_to(degenerate, len(rms)).tolist()
    reports = [ResidualReport(equation_id, *r) for r in zip(rms, peak, degenerate, worst_rho)]
    return reports if stacked else reports[0]


def ode_residual(rf: RadialFunction, m: int, k1: float) -> ResidualReport:
    """Residual of a radial profile in the second-order equation.

    Evaluates z^2 F'' + z F' + (k1 z - m^2 - z^2) F / 4 at the interior
    samples, with z in ``rf``'s own units and F', F'' taken from the exact
    closed-form derivatives of the profile (no finite differencing), and
    normalizes by the RMS of the per-sample dominant term.  A stacked ``rf``
    (``wavefn._psi1_family``) takes a column k1 and gives a list, a report per state.
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
    return _report("radial-ode", rho, [terms], degenerate=~np.any(rf.values, axis=-1))


def coupled_residual(level: EnergyLevel, psi1: RadialFunction) -> ResidualReport:
    """Residual of (psi1, psi2) in the coupled first-order system.

    psi1 is the caller's upper component, whose angular index the check
    uses; psi2 is the lower component derived from it for ``level.E``,
    which refuses an E + m0 c^2 that is not positive and finite.  The
    upper equation takes E - m0 c^2 from ``level.excitation``, which keeps
    its digits where subtracting the rest energy from E would cancel (SI
    units).  Both first-order equations are evaluated at the interior radii
    through exact radial derivatives of the closed forms.  The angular
    factors e^{i m phi} and -i e^{i(m+1) phi} that multiply the two
    equations have modulus one, so every angle gives the same relative
    residual and the radial reduction is the whole check.
    The report carries the worse of the two equations' relative RMS.  A
    stacked ``psi1`` takes a level of columns and gives a list, a report per state.
    """
    E = level.E
    params = psi1.params
    lower = derive_lower_component(psi1, E)
    rho, (r1, r1_z) = psi1.interior(1)
    _, (g, g_z) = lower.interior(1)

    m = psi1.angular_index
    hbar_c = params.hbar * params.c
    tension = params.c * params.rest_mass * params.omega  # c m0 w
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
        -(E + params.rest_energy) * g,
    ]
    degenerate = ~(np.any(psi1.values, axis=-1) | np.any(g, axis=-1))
    return _report("coupled-first-order", rho, [terms_up, terms_down], degenerate)
