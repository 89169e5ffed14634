import itertools
import math
import re
import sys
import warnings
from fractions import Fraction
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dirac2d import (
    QuantumNumbers,
    RadialFunction,
    RadialGrid,
    ResidualReport,
    TridiagonalOperator,
    build_dirac_operator,
    coupled_residual,
    default_grid,
    derive_lower_component,
    energy,
    extrapolated_levels,
    integrate_radial,
    natural_params,
    ode_residual,
    radial_psi1,
    smallest_eigenvalues,
)
from dirac2d import oracle


def dirac_level(n):
    """Level 4(n + 1) of A A^dagger, which the discrete operator must find."""
    return 4.0 * (n + 1)


def _zero_copy(rf):
    """rf with coeff 0: an identically zero member of the same family."""
    return RadialFunction(rf.grid, replace(rf.profile, coeff=0.0), rf.params)


def si_params():
    from dirac2d import PhysicalParams

    return PhysicalParams(
        rest_mass=9.1093837015e-31,
        omega=1.0e12,
        hbar=1.054571817e-34,
        c=299792458.0,
    )


def plain_bisection(op, count):
    """Reference: bisect each level from the Gershgorin interval to adjacent floats.

    This is the eigensolver the package shipped before bracket sharing and
    Newton steps; the current solver must return the same floats.  Each
    halving halves the bracket, so 2200 of them take any two finite floats
    to adjacent ones, down to the subnormals around a zero eigenvalue.  Like
    the solver, it bisects 2**-e times the operator, with its largest entry
    in [1/2, 1), from the margin 1e-12 max(bound, 1) of the unscaled one.
    """
    largest = max(np.max(np.abs(op.diagonal)), np.max(np.abs(op.off_diagonal), initial=0.0))
    e = math.frexp(largest)[1]
    diagonal, off = np.ldexp(op.diagonal, -e), np.ldexp(op.off_diagonal, -e)
    diag = diagonal.tolist()
    off_sq = [0.0] + (off * off).tolist()
    radius = np.concatenate([np.abs(off), [0.0]]) + np.concatenate([[0.0], np.abs(off)])
    lower = float(np.min(diagonal - radius))
    upper = float(np.max(diagonal + radius))
    margin = 1e-12 * max(abs(lower), abs(upper), math.ldexp(1.0, min(-e, 1023)))
    lower -= margin
    upper += margin
    pivmin = max(np.finfo(float).tiny, 1e-20 * max(off_sq[1:], default=1.0))

    def below(sigma):
        n = 0
        q = 1.0
        for d, e2 in zip(diag, off_sq):
            q = d - sigma - e2 / q
            if abs(q) < pivmin:
                q = -pivmin
            if q < 0.0:
                n += 1
        return n

    eigenvalues = []
    lo_start = lower
    for k in range(1, count + 1):
        lo, hi = lo_start, upper
        for _ in range(2200):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if below(mid) >= k:
                hi = mid
            else:
                lo = mid
        eigenvalues.append(math.ldexp(0.5 * (lo + hi), e))
        lo_start = lo
    return eigenvalues


def _bisection_cases():
    """(m, points, rho_max in b, units, levels) covering every value of each axis.

    Small grids run the full product; larger grids, where the reference
    bisection costs seconds, a spread that still visits every m and extent.
    """
    ms, extents = (0, 1, 3, 10, 60), (6.0, 12.0, 26.0)
    cases = [
        (m, points, rho, units, 22)
        for points in (65, 257)
        for m in ms
        for rho in extents
        for units in ("natural", "si")
    ]
    cases += [
        (m, 1025, rho, ("natural", "si")[(i + j) % 2], 12)
        for i, m in enumerate(ms)
        for j, rho in enumerate(extents)
    ]
    cases += [(m, 4097, 12.0, "natural", 7) for m in (1, 10, 60)]
    cases += [(3, 4097, 26.0, "si", 7), (0, 4097, 12.0, "natural", 22)]
    return cases


def _binade_float(word, binades):
    """A float of either sign from random bits, of modulus in one of the
    binades [2**e, 2**(e + 1)) for e in ``binades``."""
    sign, binade, mantissa = word & 1, (word >> 1) % len(binades), (word >> 8) % 2**20
    return math.ldexp((1.0 - 2.0 * sign) * (1.0 + mantissa / 2**20), binades[binade])


def _entry(word, pool, binades):
    """An operator entry from 32 random bits: a value of ``pool``, repeated
    exactly, for a quarter of the words, 0.0 for another quarter, and a
    fresh ``_binade_float`` otherwise."""
    kind, word = word % 4, word >> 2
    if kind == 0:
        return pool[word % len(pool)]
    if kind == 1:
        return 0.0
    return _binade_float(word, binades)


@st.composite
def _tridiagonals(draw, binades=range(-6, 6)):
    """A symmetric tridiagonal operator of dimension 1-40 and a level count.

    The entries other than 0 have their modulus in ``binades``.  Both
    diagonals share a pool of up to four values, so equal rows, equal
    blocks and exactly zero determinants occur, and both hold exact zeros:
    a zero off-diagonal splits the matrix, and with zero diagonal entries
    too, some eigenvalues are exactly 0.  The pool and the entries are
    decoded from one draw of random bytes, which Hypothesis makes far faster
    than a draw per entry; a separate list draw for the pool made Hypothesis
    discard about a quarter of its examples.
    """
    n, size = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    raw = draw(st.binary(min_size=4 * (size + 2 * n - 1), max_size=4 * (size + 2 * n - 1)))
    words = np.frombuffer(raw, dtype="<u4").tolist()
    pool = [_binade_float(w, binades) for w in words[:size]]
    entries = [_entry(w, pool, binades) for w in words[size:]]
    op = TridiagonalOperator(np.array(entries[:n]), np.array(entries[n:]))
    return op, draw(st.integers(1, n))


class TestIntegrateRadial:
    def test_constant(self):
        grid = RadialGrid(2.0, 101)
        assert_allclose(integrate_radial(np.ones(101), grid), 2.0, rtol=1e-14)

    def test_linear_is_exact(self):
        grid = RadialGrid(1.0, 101)
        assert_allclose(integrate_radial(grid.samples, grid), 0.5, rtol=1e-12)

    def test_gaussian_moment_against_antiderivative(self):
        # integral of rho exp(-rho^2) over [0, 10] is (1 - exp(-100))/2
        grid = RadialGrid(10.0, 8193)
        f = grid.samples * np.exp(-grid.samples**2)
        assert_allclose(integrate_radial(f, grid), 0.5, rtol=0, atol=1e-10)

    def test_rejects_mismatched_values(self):
        grid = RadialGrid(1.0, 101)
        with pytest.raises(ValueError):
            integrate_radial(np.ones(100), grid)

    def test_even_sample_grids_cannot_exist(self):
        with pytest.raises(ValueError):
            RadialGrid(1.0, 100)

    def test_fourth_order_convergence(self):
        # error ratio per grid doubling approaches 16 on smooth integrands
        exact = 0.5 * (1.0 - math.exp(-100.0))

        def err(num_points):
            grid = RadialGrid(10.0, num_points)
            f = grid.samples * np.exp(-grid.samples**2)
            return abs(integrate_radial(f, grid) - exact)

        ratio = err(513) / err(1025)
        assert 12.0 < ratio < 20.0


class TestDiracOperator:
    def test_rejects_negative_m(self):
        with pytest.raises(ValueError):
            build_dirac_operator(-1, RadialGrid(12.0, 4097), natural_params())

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError, match="coarse"):
            build_dirac_operator(0, RadialGrid(12.0, 63), natural_params())

    @pytest.mark.parametrize("rho_max", [1e-300, 1e-150, 1e160, 1e300])
    def test_rejects_a_grid_whose_entries_overflow(self, rho_max):
        # 1/h or x_max, taken to the fourth power by the Sturm counts,
        # leaves float64
        with pytest.raises(ValueError, match="rho_max"):
            build_dirac_operator(0, RadialGrid(rho_max, 65), natural_params())

    def test_structural_symmetry(self):
        op = build_dirac_operator(1, RadialGrid(12.0, 257), natural_params())
        assert op.dimension == 255
        assert op.off_diagonal.shape == (254,)
        assert np.all(np.isfinite(op.diagonal))
        assert np.all(np.isfinite(op.off_diagonal))

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_is_the_gram_matrix_of_the_weighted_coupling_stencil(self, m):
        # B from its definition, dense: g_j = (r_{j+1} - r_j)/h
        # + (f_j - m/f_j)(r_j + r_{j+1})/2, rows times sqrt(f_j) and
        # columns over sqrt(c_j)
        p = natural_params()
        points = 65
        h = 12.0 / (points - 1)
        centres = (np.arange(points - 1) + 0.5) * h
        faces = np.arange(1, points - 1) * h
        B = np.zeros((faces.size, centres.size))
        for j, f in enumerate(faces):
            B[j, j] = -1.0 / h + 0.5 * (f - m / f)
            B[j, j + 1] = 1.0 / h + 0.5 * (f - m / f)
        B = np.sqrt(faces)[:, None] * B / np.sqrt(centres)[None, :]
        op = build_dirac_operator(m, RadialGrid(12.0, points), p)
        dense = np.diag(op.diagonal) + np.diag(op.off_diagonal, 1) + np.diag(op.off_diagonal, -1)
        assert_allclose(dense, B @ B.T, rtol=1e-13, atol=1e-10)

    def test_ladder_on_default_grid(self):
        # measured: at most 1.7e-5 relative, the h^2 error
        p = natural_params()
        op = build_dirac_operator(0, RadialGrid(12.0, 4097), p)
        found = smallest_eigenvalues(op, 4)
        for n, value in enumerate(found):
            assert abs(value - dirac_level(n)) / dirac_level(n) <= 2e-5

    def test_levels_do_not_depend_on_m(self):
        # the paper's m-independence: the raw 1025-point levels of
        # m = 0..10 agree to 1.36e-8 relative over 22 levels
        p = natural_params()
        levels = np.array(
            [
                smallest_eigenvalues(build_dirac_operator(m, RadialGrid(12.0, 1025), p), 22)
                for m in range(11)
            ]
        )
        spread = (levels.max(axis=0) - levels.min(axis=0)) / levels.min(axis=0)
        assert np.max(spread) <= 1.4e-8

    def test_dimensionless_across_unit_systems(self):
        # eigenvalues are those of A A^dagger in x = rho/b, whatever the raw scales
        si = si_params()
        natural = natural_params()
        vals_si = smallest_eigenvalues(
            build_dirac_operator(1, RadialGrid(12.0 * si.oscillator_length, 1025), si), 2
        )
        vals_nat = smallest_eigenvalues(
            build_dirac_operator(1, RadialGrid(12.0, 1025), natural), 2
        )
        assert_allclose(vals_si, vals_nat, rtol=1e-12)

    def test_reads_no_closed_form(self, monkeypatch):
        # the oracle's side of fd-spectrum reads no energy and no Kummer row
        def refuse(*args, **kwargs):
            raise AssertionError("the operator read a closed form")

        from dirac2d import specfun, spectrum, wavefn

        for module in (specfun, wavefn):
            monkeypatch.setattr(module, "kummer_m", refuse)
            monkeypatch.setattr(module, "_degree_rows", refuse)
        monkeypatch.setattr(spectrum, "energy", refuse)
        levels, _, _ = extrapolated_levels(3, RadialGrid(12.0, 1025), natural_params(), 4)
        assert_allclose(levels, [dirac_level(n) for n in range(4)], rtol=1e-8)  # 9.9e-10


class TestSmallestEigenvalues:
    @staticmethod
    def _operator(diagonal, off_diagonal):
        return TridiagonalOperator(
            diagonal=np.asarray(diagonal, dtype=float),
            off_diagonal=np.asarray(off_diagonal, dtype=float),
        )

    def test_two_by_two_analytic(self):
        op = self._operator([2.0, 2.0], [1.0])
        assert_allclose(smallest_eigenvalues(op, 2), [1.0, 3.0], rtol=0, atol=1e-10)

    def test_diagonal_matrix(self):
        op = self._operator([5.0, -1.0, 3.0, 0.5], [0.0, 0.0, 0.0])
        assert_allclose(
            smallest_eigenvalues(op, 4), [-1.0, 0.5, 3.0, 5.0], rtol=0, atol=1e-10
        )

    def test_count_validation(self):
        op = self._operator([1.0, 2.0], [0.5])
        with pytest.raises(ValueError):
            smallest_eigenvalues(op, 0)
        with pytest.raises(ValueError):
            smallest_eigenvalues(op, 3)

    def test_against_dense_diagonalization(self):
        # brute-force oracle on a small instance
        p = natural_params()
        op = build_dirac_operator(1, RadialGrid(12.0, 65), p)
        dense = (
            np.diag(op.diagonal)
            + np.diag(op.off_diagonal, 1)
            + np.diag(op.off_diagonal, -1)
        )
        brute = np.sort(np.linalg.eigvalsh(dense))[:5]
        sturm = smallest_eigenvalues(op, 5)
        assert_allclose(sturm, brute, rtol=0, atol=1e-9)

    @pytest.mark.parametrize(
        "m, points, rho, units, levels",
        _bisection_cases(),
        ids=str,
    )
    def test_same_floats_as_plain_bisection(self, m, points, rho, units, levels):
        p = natural_params() if units == "natural" else si_params()
        grid = RadialGrid(rho * p.oscillator_length, points)
        op = build_dirac_operator(m, grid, p)
        assert smallest_eigenvalues(op, levels) == plain_bisection(op, levels)

    @settings(deadline=None, derandomize=True)  # examples from the profile
    @given(case=_tridiagonals())
    @example(case=(TridiagonalOperator(np.array([0.0, 1.0]), np.array([0.0])), 1))
    def test_same_floats_as_plain_bisection_on_random_tridiagonals(self, case):
        # unlike the radial operators, whose diagonal spans one or two
        # binades, these rows round d - sigma in rounding cells of different
        # widths, so a shift can change some rows and keep others; in the
        # example the pivot floor is the smallest normal float, and the
        # level at 0 reads -2.2e-308 after about 1075 halvings, on the
        # operator halved: -4.5e-308
        op, count = case
        assert smallest_eigenvalues(op, count) == plain_bisection(op, count)

    @settings(deadline=None, derandomize=True)  # examples from the profile
    @given(case=_tridiagonals(), data=st.data())
    def test_any_starts_give_the_floats_of_plain_bisection_on_random_tridiagonals(
        self, case, data
    ):
        # starts steer only the path: nan, infinities, shifts outside the
        # Gershgorin interval or anywhere inside it, the exact levels and
        # their neighbours, and fewer starts than levels
        op, count = case
        exact = plain_bisection(op, min(count + 1, op.dimension))
        radius = float(np.max(np.abs(op.off_diagonal), initial=0.0))
        outside = 3.0 * (float(np.max(np.abs(op.diagonal))) + radius) + 1.0
        words = data.draw(st.lists(st.integers(0, 2**32 - 1), max_size=count))

        def start(i, word):
            kind, fraction = word % 9, (word >> 4) / 2**28
            neighbours = [exact[i], exact[max(i - 1, 0)], exact[min(i + 1, len(exact) - 1)]]
            edges = [math.nan, math.inf, -math.inf, -outside, outside]
            return (neighbours + edges + [outside * (2.0 * fraction - 1.0)])[kind]

        starts = [start(i, word) for i, word in enumerate(words)]
        assert smallest_eigenvalues(op, count, starts=starts) == exact[:count]

    def test_huge_random_tridiagonals_are_refused_or_give_the_floats_of_plain_bisection(
        self,
    ):
        # entries of modulus in [2**1000, 2**1024): an operator with a level
        # past float64 is refused, and any other gives plain bisection's
        # floats; no warning either way
        outcomes = set()

        @settings(deadline=None, derandomize=True)  # examples from the profile
        @given(case=_tridiagonals(binades=range(1000, 1024)))
        def check(case):
            op, count = case
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    found = smallest_eigenvalues(op, count)
                except ValueError as error:
                    assert "float64" in str(error)
                    outcomes.add("refused")
                    return
                assert found == plain_bisection(op, count)
            outcomes.add("solved")

        check()
        assert outcomes == {"refused", "solved"}

    def test_refuses_an_operator_past_float64(self):
        # its levels are 0 and 2e308; it warned of an overflow once
        op = self._operator([1e308, 1e308], [1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="float64"):
                smallest_eigenvalues(op, 2)

    @pytest.mark.parametrize(
        "diagonal, off_diagonal, expected",
        [
            ([1e308, -1e308], [0.0], [-1e308, 1e308]),  # returned [-inf, inf] once
            ([1.7e308], [], [1.7e308]),  # returned inf once
            ([1e308, 1e308], [0.0], [1e308, 1e308]),  # returned inf once
            ([1.0, 2.0], [1e200], [-1e200, 1e200]),  # warned of an overflow once
        ],
    )
    def test_operators_at_the_edge_of_float64_give_their_levels(
        self, diagonal, off_diagonal, expected
    ):
        # the solve runs on the operator divided by a power of two, so no
        # shift or squared entry overflows, and these were refused before
        op = self._operator(diagonal, off_diagonal)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = smallest_eigenvalues(op, len(diagonal))
        assert found == expected == plain_bisection(op, len(diagonal))

    @pytest.mark.parametrize("k", [-1000, -530, 60, 1000])
    def test_power_of_two_scaled_operators_give_scaled_levels(self, k):
        # the squared pivot floor 1e-20 max(off**2) underflowed below about
        # 1e-154 and took over the counts above about 1e150: from k >= 50 or
        # k <= -530 the levels did not scale, and 1e150 [[1, 1], [1, 1]]
        # read [-2e138, -2e138] against [0, 2e150]
        rng = np.random.default_rng(3)
        ops = [
            build_dirac_operator(3, RadialGrid(12.0, 129), natural_params()),
            self._operator(rng.normal(size=40), rng.normal(size=39)),
            self._operator([1.0, 1.0], [1.0]),
        ]
        for op in ops:
            count = min(op.dimension, 12)
            plain = smallest_eigenvalues(op, count)
            scaled = self._operator(np.ldexp(op.diagonal, k), np.ldexp(op.off_diagonal, k))
            assert smallest_eigenvalues(scaled, count) == [math.ldexp(x, k) for x in plain]
            dense = np.diag(op.diagonal) + np.diag(op.off_diagonal, 1) + np.diag(op.off_diagonal, -1)
            bound = float(np.max(np.abs(np.linalg.eigvalsh(dense))))
            assert_allclose(plain, np.linalg.eigvalsh(dense)[:count], rtol=0, atol=1e-13 * bound)

    @settings(deadline=None, derandomize=True)  # examples from the profile
    @given(case=_tridiagonals(), k=st.integers(-1000, 1000))
    def test_power_of_two_scaled_random_tridiagonals_give_scaled_levels(self, case, k):
        # entries of modulus in [2**-6, 2**6) stay normal times 2**k; a level
        # that is subnormal at either scale is rounded there, and is skipped,
        # and 2**k times the zero operator is itself
        op, count = case
        assume(np.any(op.diagonal) or np.any(op.off_diagonal))
        scaled = self._operator(np.ldexp(op.diagonal, k), np.ldexp(op.off_diagonal, k))
        plain, found = smallest_eigenvalues(op, count), smallest_eigenvalues(scaled, count)
        for x, y in zip(plain, found):
            if min(abs(x), abs(math.ldexp(x, k))) >= sys.float_info.min or x == 0.0:
                assert y == math.ldexp(x, k)

    @pytest.mark.parametrize(
        "diagonal, off_diagonal, expected",
        [
            ([3.0, 1.0, 3.0, 2.0, 1.0], [0.0] * 4, [1.0, 1.0, 2.0, 3.0, 3.0]),
            ([2.0, 2.0, 2.0, 2.0], [1.0, 0.0, 1.0], [1.0, 1.0, 3.0, 3.0]),
        ],
    )
    def test_exactly_repeated_eigenvalue(self, diagonal, off_diagonal, expected):
        op = self._operator(diagonal, off_diagonal)
        found = smallest_eigenvalues(op, len(expected))
        assert found == plain_bisection(op, len(expected))
        assert_allclose(found, expected, rtol=0, atol=1e-12)

    def test_one_by_one(self):
        op = self._operator([2.5], [])
        assert smallest_eigenvalues(op, 1) == plain_bisection(op, 1)
        assert_allclose(smallest_eigenvalues(op, 1), [2.5], rtol=1e-15)

    def test_against_scipy_tridiagonal_solver(self):
        linalg = pytest.importorskip("scipy.linalg")
        p = natural_params()
        for m in (0, 3):
            op = build_dirac_operator(m, RadialGrid(12.0, 4097), p)
            lapack = linalg.eigvalsh_tridiagonal(
                op.diagonal, op.off_diagonal, select="i", select_range=(0, 11)
            )
            assert_allclose(smallest_eigenvalues(op, 12), lapack, rtol=1e-10, atol=0)

    def test_newton_pass_counts_and_log_derivative(self):
        # p'/p = sum 1/(sigma - lambda_i) over the dense spectrum
        p = natural_params()
        op = build_dirac_operator(1, RadialGrid(12.0, 65), p)
        dense = np.linalg.eigvalsh(
            np.diag(op.diagonal)
            + np.diag(op.off_diagonal, 1)
            + np.diag(op.off_diagonal, -1)
        )
        diag = op.diagonal.tolist()
        off_sq = [0.0] + (op.off_diagonal**2).tolist()
        pivmin = 1e-20 * max(off_sq)
        for sigma in (1.0, 5.0, 11.3, 40.0, 700.0):
            below, ratio = oracle._newton_pass(diag, off_sq, sigma, pivmin)
            assert below == oracle._negative_pivot_count(diag, off_sq, sigma, pivmin)
            assert below == int(np.sum(dense < sigma))
            assert_allclose(ratio, np.sum(1.0 / (sigma - dense)), rtol=1e-9)


class TestSolverPasses:
    """Row passes of the eigen-oracle, counted on the default grid.

    Plain bisection needed 476 (m = 0) and 484 (m = 3) passes for 7 levels
    and 1458 / 1489 for 22.  Newton started at the bracket midpoint took
    39-42 Newton passes for 7 levels and 112-121 for 22; started from the
    extrapolated earlier levels it takes 17-19 and 32-34.  With a pass at
    every shift of the final gallop (64 ulp, times 16) and bisection, the
    totals were 141-163 for 7 levels and 370-407 for 22.  A gallop in steps
    of the shifted diagonal's rounding cell, and a bracket end's count for
    every shift that rounds the diagonal as that end did, left 64-68 and
    137-147.  Skipping the isolating bisection of every level that the
    earlier levels predict inside its bracket leaves 60-64 and 119-127.
    Those were the counts of the second-order radial operator; the Dirac
    operator B B^T that replaced it takes 52-55 and 96-99, with 18-21 and
    33-36 Newton passes.  These solves have no starts; ``verify``'s solves
    start from the levels of shorter grids, and ``TestSolverRows`` in
    test_cli.py pins their passes.  The counts do not depend on the machine.
    """

    @staticmethod
    def _counted(monkeypatch):
        passes = []

        def counted(fn):
            def wrapper(*args):
                passes.append(fn.__name__)
                return fn(*args)

            return wrapper

        for name in ("_negative_pivot_count", "_newton_pass"):
            monkeypatch.setattr(oracle, name, counted(getattr(oracle, name)))
        return passes

    @classmethod
    def _passes(cls, monkeypatch, m, points, levels):
        passes = cls._counted(monkeypatch)
        p = natural_params()
        smallest_eigenvalues(build_dirac_operator(m, RadialGrid(12.0, points), p), levels)
        return passes

    @pytest.mark.parametrize("m", [0, 3])
    @pytest.mark.parametrize("levels, before", [(7, 300), (22, 700)])
    def test_pass_budget(self, m, levels, before, monkeypatch):
        # ``before`` is the budget while every final shift took a pass
        passes = self._passes(monkeypatch, m, 4097, levels)
        assert len(passes) <= {7: 56, 22: 100}[levels] < before
        assert 0 < passes.count("_newton_pass") <= {7: 21, 22: 36}[levels]

    def test_a_start_on_its_level_ends_newton_at_once(self, monkeypatch):
        # Newton's step from a level's own float lands on the bracket end
        # that pass counted, and ends there; replaced by the bracket
        # midpoint, it took 16 Newton passes and 46 counts here, not 3 and 4
        op = TridiagonalOperator(np.arange(1.0, 31.0), np.full(29, 0.5))
        exact = smallest_eigenvalues(op, 3)
        passes = self._counted(monkeypatch)
        assert smallest_eigenvalues(op, 3, starts=exact) == exact
        assert (passes.count("_newton_pass"), passes.count("_negative_pivot_count")) == (3, 4)

    # on the radial operator B B^T replaced: 49, 111, 57, 128 on 513 points
    # and 50, 114, 59, 127 on 1025; with a pass at every final shift 108,
    # 275, 106, 272 and 125, 314, 125, 300; with every level isolated by
    # bisection 52, 128, 61, 148 and 53, 131, 63, 147
    PASSES = {
        (0, 513, 7): 47,
        (0, 513, 22): 92,
        (3, 513, 7): 55,
        (3, 513, 22): 116,
        (0, 1025, 7): 53,
        (0, 1025, 22): 98,
        (3, 1025, 7): 48,
        (3, 1025, 22): 90,
    }

    @pytest.mark.parametrize(
        "m, points, levels, before",
        [
            (0, 513, 7, 129),
            (0, 513, 22, 352),
            (3, 513, 7, 123),
            (3, 513, 22, 351),
            (0, 1025, 7, 144),
            (0, 1025, 22, 396),
            (3, 1025, 7, 139),
            (3, 1025, 22, 384),
        ],
    )
    def test_verify_operators_need_no_more_passes(
        self, m, points, levels, before, monkeypatch
    ):
        # the operators ``verify`` builds by default; ``before`` is the
        # radial operator's total with Newton started at the bracket midpoint
        passes = self._passes(monkeypatch, m, points, levels)
        assert len(passes) <= self.PASSES[m, points, levels] < before


class TestExtrapolatedLevels:
    """Richardson extrapolation from the grids of K and 2K intervals."""

    @pytest.mark.parametrize("m, count", [(0, 7), (3, 22)])
    def test_ten_times_closer_than_the_full_grid(self, m, count):
        # measured: 1.7e-5 -> 2.8e-13 at m = 0 and 4.9e-5 -> 2.8e-12 at m = 3
        p = natural_params()
        grid = RadialGrid(12.0, 4097)
        exact = np.array([dirac_level(n) for n in range(count)])
        plain = smallest_eigenvalues(build_dirac_operator(m, grid, p), count)
        levels, correction, _ = extrapolated_levels(m, grid, p, count)
        err_plain = np.max(np.abs(np.array(plain) - exact) / exact)
        err = np.max(np.abs(np.array(levels) - exact) / exact)
        assert err * 10.0 <= err_plain
        # the correction estimates the 1025-point grid's error, 16 times the plain one
        assert err_plain < correction < 100.0 * err_plain

    @pytest.mark.parametrize(
        "points, expected, built",
        [(4097, (513, 1025), (65, 129, 513, 1025)), (1025, (129, 257), (129, 257))],
    )
    def test_grids_share_rho_max_and_halve_the_spacing(
        self, points, expected, built, monkeypatch
    ):
        # a coarse grid of more than 128 intervals is seeded from 65 and 129 points
        seen = []
        original = oracle.build_dirac_operator

        def recorded(m, grid, params):
            seen.append((grid.rho_max, grid.num_points))
            return original(m, grid, params)

        monkeypatch.setattr(oracle, "build_dirac_operator", recorded)
        p = si_params()
        grid = default_grid(p, 12.0, points)
        result = extrapolated_levels(1, grid, p, 4)
        assert result.points == expected
        assert seen == [(grid.rho_max, n) for n in built]

    def test_reads_only_the_two_grids_levels(self, monkeypatch):
        # k = (4 k_fine - k_coarse) / 3 and correction |k - k_fine| / k_fine;
        # the head grids' levels only steer the solves
        fake = {65: [5.0, 11.0], 129: [4.25, 9.0], 513: [4.0, 8.5], 1025: [4.0, 8.125]}
        monkeypatch.setattr(
            oracle,
            "smallest_eigenvalues",
            lambda op, count, starts=(): fake[op.dimension + 2][:count],
        )
        levels, correction, _ = extrapolated_levels(
            0, RadialGrid(12.0, 4097), natural_params(), 2
        )
        assert levels == [4.0, 8.0]
        assert correction == 0.125 / 8.125

    @pytest.mark.parametrize(
        "fake",
        [{513: [-1.0], 1025: [4.0]}, {513: [4.0], 1025: [0.0]}, {513: [16.0], 1025: [1.0]}],
    )
    def test_a_level_at_or_below_zero_is_refused(self, fake, monkeypatch):
        # B B^T is positive definite, so such a level is rounding, and the
        # correction divides by k_fine; the last extrapolates to -4.  The
        # head grids read the true levels, which refuse nothing.
        fake = {65: [4.0], 129: [4.0], **fake}
        monkeypatch.setattr(
            oracle,
            "smallest_eigenvalues",
            lambda op, count, starts=(): fake[op.dimension + 2],
        )
        with pytest.raises(ValueError, match=r"rho_max=12\.0 .* one reads -?\d"):
            extrapolated_levels(0, RadialGrid(12.0, 4097), natural_params(), 1)

    @pytest.mark.parametrize("head", [[-1.0], [0.0], [math.nan]])
    def test_a_head_level_at_or_below_zero_only_steers(self, head, monkeypatch):
        fake = {65: head, 129: head, 513: [4.0], 1025: [4.0]}
        monkeypatch.setattr(
            oracle,
            "smallest_eigenvalues",
            lambda op, count, starts=(): fake[op.dimension + 2],
        )
        result = extrapolated_levels(0, RadialGrid(12.0, 4097), natural_params(), 1)
        assert result.levels == [4.0]

    @pytest.mark.parametrize("rho_max, shown", [(1e4, "10000.0"), (1e5, "100000.0"), (1e60, "1e+60")])
    def test_levels_that_rounding_swamps_are_refused(self, rho_max, shown):
        # 1025 points over 1e5 b read a first level of -65.9, and over 1e60 b -1.1e108
        with pytest.raises(ValueError, match=rf"rho_max={re.escape(shown)} .* swamps"):
            extrapolated_levels(0, RadialGrid(rho_max, 4097), natural_params(), 1)

    @staticmethod
    def _solves(monkeypatch, points, count):
        calls = []  # (operator, starts, levels) per solve
        original = oracle.smallest_eigenvalues

        def recorded(op, levels, starts=()):
            found = original(op, levels, starts=starts)
            calls.append((op, list(starts), found))
            return found

        monkeypatch.setattr(oracle, "smallest_eigenvalues", recorded)
        extrapolated_levels(3, RadialGrid(12.0, points), natural_params(), count)
        return calls, original

    def test_the_fine_solve_starts_from_the_coarse_levels(self, monkeypatch):
        # the 129-point solve starts from the 65-point levels a, the coarse
        # solve from L + (b - L)(128/K)^2 with L = (4b - a)/3, and the fine
        # one from L' + (c - L')/4 with L' = (q c - b)/(q - 1), q = (K/128)^2;
        # the starts leave every float that of a solve without them
        calls, original = self._solves(monkeypatch, 4097, 6)
        (_, s1, a), (_, s2, b), (_, s3, c), (_, s4, _) = calls
        assert [op.dimension for op, _, _ in calls] == [63, 127, 511, 1023]
        assert (s1, s2) == ([], a) and len(a) == len(b) == 3
        limit = [(4.0 * y - x) / 3.0 for x, y in zip(a, b)]
        assert s3 == [L + (y - L) * (128 / 512) ** 2 for L, y in zip(limit, b)]
        limit = [(16.0 * z - y) / 15.0 for z, y in zip(c, b)]
        assert s4 == [L + (z - L) / 4.0 for L, z in zip(limit, c)]
        for op, _, found in calls:
            assert found == original(op, len(found))

    def test_a_coarse_grid_of_128_intervals_is_solved_without_starts(self, monkeypatch):
        calls, original = self._solves(monkeypatch, 1025, 6)
        (coarse, none, k_coarse), (fine, starts, k_fine) = calls
        assert (coarse.dimension, fine.dimension) == (127, 255)
        assert none == [] and starts == k_coarse
        assert k_fine == original(fine, 6)

    # a quarter of the profile's examples: each one solves up to six grids
    @settings(max_examples=settings.default.max_examples // 4, deadline=None, derandomize=True)
    @given(
        points=st.integers(256, 4096).map(lambda k: 2 * k + 1),
        m=st.integers(0, 60),
        rho_max=st.floats(4.0, 24.0),
        data=st.data(),
    )
    def test_same_floats_as_two_solves_without_starts(self, points, m, rho_max, data):
        # the start cascade steers only the path: the levels are those of
        # coarse and fine solves without starts, extrapolated, bit for bit
        p = natural_params()
        grid = RadialGrid(rho_max, points)
        intervals = 2 * ((points - 1) // 16)
        count = data.draw(st.integers(1, min(25, intervals - 1)), label="count")
        coarse, fine = (
            smallest_eigenvalues(build_dirac_operator(m, RadialGrid(rho_max, n), p), count)
            for n in (intervals + 1, 2 * intervals + 1)
        )
        result = extrapolated_levels(m, grid, p, count)
        assert result.levels == [(4.0 * y - x) / 3.0 for x, y in zip(coarse, fine)]

    def test_too_coarse_a_grid_is_refused(self):
        p = natural_params()
        with pytest.raises(ValueError, match="--grid-points 513"):
            extrapolated_levels(0, RadialGrid(12.0, 511), p, 4)
        assert extrapolated_levels(0, RadialGrid(12.0, 513), p, 4).points == (65, 129)

    def test_more_levels_than_coarse_rows_are_refused(self):
        # the coarse grid of 577 points has 72 intervals and 71 interior rows;
        # 593 points give 74 intervals, the least that holds 72 levels
        p = natural_params()
        with pytest.raises(ValueError, match="72 levels .* --grid-points 593 or more"):
            extrapolated_levels(0, RadialGrid(12.0, 577), p, 72)
        assert extrapolated_levels(0, RadialGrid(12.0, 593), p, 72).points == (75, 149)


class TestOdeResidual:
    def test_exact_solution_is_noise(self):
        p = natural_params()
        qn = QuantumNumbers(0, 0)
        level = energy(qn, p)
        rf = radial_psi1(qn, RadialGrid(12.0, 4097), p)
        report = ode_residual(rf, 0, level.k1)
        assert report.rms_residual <= 1e-12
        assert report.equation_id == "radial-ode"
        assert not report.degenerate

    def test_wrong_eigenvalue_is_loud(self):
        p = natural_params()
        rf = radial_psi1(QuantumNumbers(0, 0), RadialGrid(12.0, 4097), p)
        report = ode_residual(rf, 0, 7.0)
        assert report.rms_residual > 1e-2

    def test_one_percent_energy_shift_detected(self):
        # a 1% energy error shifts k1 through the kinetic term and must
        # register above the percent level
        p = natural_params()
        for n, m in [(0, 0), (3, 2)]:
            qn = QuantumNumbers(n, m)
            level = energy(qn, p)
            shifted = 2.0 * (m + 1) + ((1.01 * level.E) ** 2 - 1.0)
            rf = radial_psi1(qn, RadialGrid(12.0, 4097), p)
            assert ode_residual(rf, m, shifted).rms_residual > 1e-2

    def test_zero_function_flagged_degenerate(self):
        p = natural_params()
        rf = radial_psi1(QuantumNumbers(0, 0), RadialGrid(12.0, 257), p)
        zero = _zero_copy(rf)
        report = ode_residual(zero, 0, 6.0)
        assert report.degenerate
        assert report.rms_residual == 0.0

    def test_wrong_eigenvalue_on_coarse_grid_is_not_degenerate(self):
        # the values come from the profile, so a function cannot look zero
        # while its profile is not: n = 1 pushed through k1 = 99 fails loudly
        p = natural_params()
        rf = radial_psi1(QuantumNumbers(1, 0), RadialGrid(12.0, 257), p)
        report = ode_residual(rf, 0, 99.0)
        assert not report.degenerate
        assert report.rms_residual > 0.5

    def test_requires_profile(self):
        # the residual is taken from the profile, so a function without one
        # is refused before it can reach ode_residual
        grid = RadialGrid(12.0, 257)
        with pytest.raises(TypeError):
            rf = RadialFunction(grid=grid, params=natural_params())
            ode_residual(rf, 0, 6.0)

    @pytest.mark.parametrize("n, m", [(0, 0), (2, 1), (5, 3)])
    def test_worst_rho_is_where_a_perturbed_k1_peaks(self, n, m):
        # the residual of a perturbed k1 is (dk1 / 4) z F per sample, up to
        # the exact solution's roundoff: it peaks where |z F| does
        p = natural_params()
        grid = RadialGrid(12.0, 1025)
        rf = radial_psi1(QuantumNumbers(n, m), grid, p)
        k1 = energy(QuantumNumbers(n, m), p).k1
        report = ode_residual(rf, m, 1.01 * k1)
        rho = grid.samples[1:-1]
        z = rho * rho  # natural units: b = 1
        f, fz, fzz = rf.profile.derivatives(z, 2)
        lhs = z * z * fzz + z * fz + 0.25 * (1.01 * k1 * z - m * m - z * z) * f
        for peak in (np.abs(lhs), np.abs(z * f)):
            at = peak[rho == report.worst_rho]
            assert at.size == 1 and at[0] >= (1.0 - 1e-9) * peak.max()
        assert ode_residual(rf, m, k1).worst_rho in rho
        assert ode_residual(_zero_copy(rf), m, k1).worst_rho == 0.0

    def test_rms_bounded_by_max(self):
        p = natural_params()
        rf = radial_psi1(QuantumNumbers(2, 1), RadialGrid(12.0, 513), p)
        report = ode_residual(rf, 1, energy(QuantumNumbers(2, 1), p).k1)
        assert report.rms_residual <= report.max_residual


class TestCoupledResidual:
    def test_derived_pair_is_self_consistent(self):
        p = natural_params()
        qn = QuantumNumbers(0, 0)
        report = coupled_residual(energy(qn, p), radial_psi1(qn, default_grid(p), p))
        assert report.rms_residual <= 1e-6
        assert report.equation_id == "coupled-first-order"

    def test_derived_pair_is_self_consistent_in_si_units(self):
        # E - m0 c^2 is about 1e-9 of E here, so the upper equation must take
        # it from the level's excitation, not from E minus the rest energy
        p = si_params()
        for n, m in [(0, 0), (2, 1)]:
            level = energy(QuantumNumbers(n, m), p)
            psi1 = radial_psi1(level.qn, default_grid(p, num_points=1025), p)
            report = coupled_residual(level, psi1)
            assert report.rms_residual <= 1e-6, (n, m)

    def test_zero_lower_component_breaks_coupling(self):
        p = natural_params()
        qn = QuantumNumbers(0, 0)
        grid = RadialGrid(12.0, 1025)
        level = energy(qn, p)
        psi1 = radial_psi1(qn, grid, p)
        zero = _zero_copy(derive_lower_component(psi1, level.E))
        report = coupled_residual(level, psi1, lower=zero)
        # with psi2 = 0 the upper equation is its own dominant term: rms 1
        assert_allclose(report.rms_residual, 1.0, rtol=1e-12)
        assert not report.degenerate

    def test_energy_perturbation_detected(self):
        p = natural_params()
        for n, m in [(0, 0), (2, 1)]:
            qn = QuantumNumbers(n, m)
            level = energy(qn, p)
            E = 1.01 * level.E
            report = coupled_residual(
                replace(level, E=E, excitation=E - p.rest_energy),
                radial_psi1(qn, default_grid(p), p),
            )
            assert report.rms_residual > 1e-3, (n, m)

    def test_rejects_nonpositive_total_energy(self):
        p = natural_params()
        with pytest.raises(ValueError):
            level = energy(QuantumNumbers(0, 0), p)
            psi1 = radial_psi1(level.qn, RadialGrid(12.0, 257), p)
            coupled_residual(replace(level, E=-1.5, excitation=-2.5), psi1)

    @pytest.mark.parametrize("units", ["natural", "si"])
    def test_psi1_read_from_its_ladder_gives_the_same_reports(self, units):
        # verify runs ode_residual first, so psi1 has summed M(a+k, b+k) for
        # k <= 2 when coupled_residual hands them to the lower component;
        # a psi1 that holds M(a, b) alone gives the same reports
        p = natural_params() if units == "natural" else si_params()
        grid = default_grid(p, num_points=1025)
        for n, m in [(0, 0), (3, 2)]:
            level = energy(QuantumNumbers(n, m), p)
            own = radial_psi1(level.qn, grid, p)
            coupled = coupled_residual(level, own)
            ode = ode_residual(own, m, level.k1)
            read = radial_psi1(level.qn, grid, p)
            read.interior(2)
            assert ode_residual(read, m, level.k1) == ode
            assert coupled_residual(level, read) == coupled

    def test_lower_on_another_grid_or_in_other_units_is_refused(self):
        p = natural_params()
        level = energy(QuantumNumbers(2, 1), p)
        psi1 = radial_psi1(level.qn, RadialGrid(12.0, 257), p)
        lower = derive_lower_component(psi1, level.E)
        other_grid = derive_lower_component(
            radial_psi1(level.qn, RadialGrid(10.0, 257), p), level.E
        )
        other_units = RadialFunction(psi1.grid, lower.profile, replace(p, hbar=2.0))
        for bad in (other_grid, other_units):
            with pytest.raises(ValueError, match="grid and units"):
                coupled_residual(level, psi1, lower=bad)

    # (rms, max, degenerate, worst_rho) that sampling the derived lower
    # component on the grid gave; reading it from psi1's ladder keeps them.
    # A zero psi1 reads zero residuals at worst_rho 0.0 in both evaluators.
    @pytest.mark.parametrize(
        "n, m, case, expected",
        [
            (0, 0, "zero psi1", (0.0, 0.0, True, 0.0)),
            (3, 2, "zero psi1", (0.0, 0.0, True, 0.0)),
            (
                0,
                0,
                "coeff-0 lower",
                (0.9999999999999999, 4.2648978555006005, False, 0.01171875),
            ),
            (
                3,
                2,
                "coeff-0 lower",
                (0.9999999999999999, 3.3339035722470727, False, 0.65625),
            ),
            (0, 0, "zero psi1 in the ode", (0.0, 0.0, True, 0.0)),
            (3, 2, "zero psi1 in the ode", (0.0, 0.0, True, 0.0)),
        ],
    )
    def test_zero_inputs_keep_their_flag_and_numbers(self, n, m, case, expected):
        p = natural_params()
        grid = RadialGrid(12.0, 1025)
        level = energy(QuantumNumbers(n, m), p)
        psi1 = radial_psi1(level.qn, grid, p)
        if case == "zero psi1":
            report = coupled_residual(level, _zero_copy(psi1))
        elif case == "zero psi1 in the ode":
            report = ode_residual(_zero_copy(psi1), m, level.k1)
        else:
            zero = _zero_copy(derive_lower_component(psi1, level.E))
            report = coupled_residual(level, psi1, lower=zero)
        assert report.degenerate == expected[2]
        assert report.worst_rho == expected[3]
        got = (report.rms_residual, report.max_residual)
        assert_allclose(got, expected[:2], rtol=1e-14, atol=0.0)

    def test_derived_profile_equals_the_sampled_override(self):
        # the default psi2 is the derived component, so passing it as an
        # override runs the same path and gives the same floats
        p = natural_params()
        grid = RadialGrid(12.0, 1025)
        for n, m in [(0, 0), (3, 2)]:
            level = energy(QuantumNumbers(n, m), p)
            psi1 = radial_psi1(level.qn, grid, p)
            lower = derive_lower_component(psi1, level.E)
            assert coupled_residual(level, psi1) == coupled_residual(
                level, psi1, lower=lower
            )

    def test_worst_rho_is_a_grid_sample_at_the_peak(self):
        p = natural_params()
        grid = RadialGrid(12.0, 1025)
        level = energy(QuantumNumbers(2, 1), p)
        psi1 = radial_psi1(level.qn, grid, p)
        for report in (
            coupled_residual(replace(level, E=1.01 * level.E), psi1),
            coupled_residual(level, psi1, lower=_zero_copy(psi1)),
        ):
            assert report.worst_rho in grid.samples[1:-1]

    def test_nonzero_override_needs_profile(self):
        p = natural_params()
        qn = QuantumNumbers(0, 0)
        grid = RadialGrid(12.0, 1025)
        with pytest.raises(TypeError):
            junk = RadialFunction(grid=grid, params=p)
            coupled_residual(energy(qn, p), radial_psi1(qn, grid, p), lower=junk)


class TestReportScaling:
    """``_report`` where the squares of the dominant terms leave float64."""

    @staticmethod
    def _terms(factor):
        rho = np.linspace(0.1, 1.0, 50)
        wave = np.sin(7.0 * rho)
        return rho, [factor * wave, factor * (1e-9 * rho - wave), factor * 0.5 * rho]

    @pytest.mark.parametrize("factor", [1e300, 1e-300])
    def test_relative_residual_does_not_depend_on_the_scale(self, factor):
        # the mean square overflowed to inf (every residual read 0.0) or
        # underflowed to 0 (likewise)
        rho, terms = self._terms(1.0)
        plain = oracle._report("x", rho, [terms], False)
        scaled = oracle._report("x", rho, [self._terms(factor)[1]], False)
        assert plain.rms_residual > 0.0
        assert_allclose(
            [scaled.rms_residual, scaled.max_residual],
            [plain.rms_residual, plain.max_residual],
            rtol=1e-12,
        )
        assert scaled.worst_rho == plain.worst_rho

    @settings(deadline=None, derandomize=True)  # examples from the profile
    @given(k=st.integers(-1000, 1000))
    def test_power_of_two_leaves_the_report_bit_for_bit(self, k):
        # the terms are divided by a power of two, which is exact; dividing
        # by the peak moved the residuals wherever the mean square left float64
        rho, terms = self._terms(1.0)
        plain = oracle._report("x", rho, [terms], False)
        scaled = oracle._report("x", rho, [self._terms(math.ldexp(1.0, k))[1]], False)
        assert scaled == plain

    def test_a_term_that_is_not_finite_is_refused(self):
        rho, terms = self._terms(1.0)
        terms[1][3] = math.inf
        with pytest.raises(ValueError, match="leaves float64"):
            oracle._report("x", rho, [terms], False)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("equation", [0, 1])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_any_term_that_is_not_finite_is_refused_without_a_warning(
        self, bad, equation, position
    ):
        # finiteness is tested once, on the largest dominant term, which
        # nan and inf in any term reach
        rho, terms = self._terms(1.0)
        equations = [terms, self._terms(2.0)[1]]
        equations[equation][position][7] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^x: a term of the equation leaves float64$"):
                oracle._report("x", rho, equations, False)


class TestLaguerreTable:
    def test_matches_the_explicit_sum_in_fractions(self):
        self._check(20, range(11), [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0])

    def test_takes_the_alpha_values_it_needs(self):
        # verify --m 60 reads alpha 60..62, not the 60 columns below them
        self._check(6, [60, 61, 62], [2.25, 9.0, 20.25, 36.0, 56.25, 81.0, 110.25, 144.0])

    @staticmethod
    def _check(n_max, alphas, z_set):
        # M(-n, alpha+1, z) = L_n^(alpha)(z) / binom(n+alpha, n), where
        # L_n^(alpha)(z) = sum_i (-1)^i binom(n+alpha, n-i) z^i / i!, exactly
        table = oracle._laguerre_table(n_max, alphas, z_set)
        assert table.shape == (n_max + 1, len(alphas), len(z_set))
        for j, z in enumerate(z_set):
            x = Fraction(z)
            for n, (i, alpha) in itertools.product(range(n_max + 1), enumerate(alphas)):
                exact = sum(
                    Fraction((-1) ** i * math.comb(n + alpha, n - i), math.factorial(i)) * x**i
                    for i in range(n + 1)
                )
                assert table[n, i, j] == float(exact / math.comb(n + alpha, n)), (n, alpha, z)


class TestResidualReport:
    def test_rejects_negative_residuals(self):
        with pytest.raises(ValueError):
            ResidualReport(
                equation_id="radial-ode",
                rms_residual=-1.0,
                max_residual=1.0,
            )

    def test_rejects_rms_above_max(self):
        with pytest.raises(ValueError):
            ResidualReport(
                equation_id="radial-ode",
                rms_residual=2.0,
                max_residual=1.0,
            )
