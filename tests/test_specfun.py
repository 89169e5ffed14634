import math
import warnings
from fractions import Fraction
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dirac2d import (
    KummerProfile,
    QuantumNumbers,
    RadialGrid,
    derive_lower_component,
    energy,
    kummer_m,
    natural_params,
    radial_psi1,
)
from dirac2d import oracle, specfun

Z_SET = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0]


class TestKummerM:
    def test_value_at_origin_is_one(self):
        for a in (-3.0, -1.0, 0.0):
            for b in (1.0, 3.0, 4.0):
                assert kummer_m(a, b, 0.0) == 1.0

    def test_two_term_polynomial(self):
        for z in (0.0, 0.3, 1.0, 7.5):
            assert_allclose(kummer_m(-1.0, 1.0, z), 1.0 - z, rtol=1e-15, atol=1e-15)

    def test_three_term_polynomial(self):
        # 1 - 2 + 1/2 from the a = -2, b = 1 series at z = 1
        assert_allclose(kummer_m(-2.0, 1.0, 1.0), -0.5, rtol=1e-15)

    def test_rejects_nonterminating_first_argument(self):
        # only a in {0, -1, -2, ...} terminates the series
        for a in (1.0, 2.0, 0.5, -0.7, -2.5, 1e-6):
            with pytest.raises(ValueError):
                kummer_m(a, 2.0, 1.0)

    def test_rejects_bad_b(self):
        for b in (0.0, -1.0, -5.0):
            with pytest.raises(ValueError):
                kummer_m(-1.0, b, 1.0)

    def test_rejects_bad_z(self):
        with pytest.raises(ValueError):
            kummer_m(-1.0, 1.0, -0.5)
        with pytest.raises(ValueError):
            kummer_m(-1.0, 1.0, math.inf)

    def test_overflowing_sum_is_refused(self):
        # the series overflows float64 and used to return nan
        with pytest.raises(ValueError, match="overflows"):
            kummer_m(-3.0, 1.0, 1e110)
        with pytest.raises(ValueError, match="overflows"):
            kummer_m(-3.0, np.array([1.0, 2.0]), np.array([1.0, 1e110]))

    def test_array_input(self):
        z = np.array(Z_SET)
        out = kummer_m(-3.0, 2.0, z)
        assert out.shape == z.shape
        for zi, oi in zip(z, out):
            assert kummer_m(-3.0, 2.0, float(zi)) == oi

    @pytest.mark.parametrize("z_set", ["table", "random"])
    def test_array_b_equals_scalar_calls_bit_for_bit(self, z_set):
        # 21 x 11 (a, b) pairs batched over b, as the psi1 family batches
        # b = m+1, m+2 and m+3 into one recurrence pass
        if z_set == "table":
            z = np.array(Z_SET)
        else:
            z = np.random.default_rng(20261018).uniform(0.0, 60.0, 64)
        b = np.arange(1.0, 12.0)[:, None]
        for n in range(21):
            batched = kummer_m(-float(n), b, z)
            assert batched.shape == (11, z.size)
            scalar = np.array([kummer_m(-float(n), bi, z) for bi in b[:, 0]])
            assert np.array_equal(batched.view(np.int64), scalar.view(np.int64)), n

    def test_array_b_broadcasts_and_keeps_scalar_results_float(self):
        assert kummer_m(-2.0, np.float64(2.0), 1.0) == kummer_m(-2.0, 2.0, 1.0)
        assert isinstance(kummer_m(-2.0, np.array(2.0), 1.0), float)
        out = kummer_m(-2.0, np.array([1.0, 2.0]), 1.0)
        assert out.shape == (2,)
        assert out[0] == kummer_m(-2.0, 1.0, 1.0) and out[1] == kummer_m(-2.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            kummer_m(-2.0, np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.0]))

    @pytest.mark.parametrize("bad", [0.0, -1.0, -7.0, -3.0 + 1e-13])
    def test_rejects_array_b_with_a_nonpositive_integer(self, bad):
        b = np.array([1.0, 3.0, bad, 4.0])
        with pytest.raises(ValueError, match="b must be an integer in 1 .. 2"):
            kummer_m(-2.0, b, np.array([0.5, 1.0])[:, None])

    def test_rejects_nonfinite_b(self):
        for b in (math.nan, math.inf, -math.inf, np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="b must be an integer in 1 .. 2"):
                kummer_m(-2.0, b, 1.0)

    @pytest.mark.parametrize("z_set", ["table", "random"])
    def test_orders_in_one_pass_equal_the_calls_per_n_bit_for_bit(self, z_set):
        # one degree stream over the psi1 family's column b = (m+1, m+2, m+3),
        # m = 10, serves every order n <= 30: row n is kummer_m(-n, b, z)
        if z_set == "table":
            z = np.array(Z_SET)
        else:
            z = np.random.default_rng(20261018).uniform(0.0, 60.0, 64)
        b = 10.0 + np.array([[1.0], [2.0], [3.0]])
        for n, row in enumerate(islice(specfun._degree_rows(b, z), 31)):
            assert row.shape == (3, z.size)
            each = np.array([kummer_m(-float(n), bi, z) for bi in b[:, 0]])
            assert np.array_equal(row.view(np.int64), each.view(np.int64)), n

    def test_orders_of_scalar_arguments_and_order_zero(self):
        # scalar b and z give 0-d rows, the first exactly 1 and the second
        # M(-1, 2, 1.5) = 1 - 1.5/2, exact in binary
        rows = specfun._degree_rows(2.0, 1.5)
        assert [next(rows) for _ in range(2)] == [1.0, 0.25]
        for n, row in enumerate(islice(rows, 10), start=2):
            assert np.ndim(row) == 0 and row == kummer_m(-float(n), 2.0, 1.5), n

    def test_orders_keep_the_checks_on_b_and_z(self):
        # the stream refuses b and z as kummer_m does, at its first row
        for b, z, match in [
            (0.0, 1.0, "b must be an integer"),
            (math.nan, 1.0, "b must be an integer"),
            (np.array([1.0, -2.0]), 1.0, "b must be an integer"),
            (np.array([1.0, 2.5]), 1.0, "b must be an integer"),
            (2.0, np.array([1.0, -0.5, 2.0]), "negative z"),
            (2.0, math.inf, "z must be finite"),
        ]:
            with pytest.raises(ValueError, match=match):
                next(specfun._degree_rows(b, z))

    def test_rows_past_an_overflow_are_yielded_for_the_caller_to_refuse(self):
        # M(-3, 1, 1e110) leaves float64: that element is yielded as it is,
        # and every later row with it, while the element at z = 1 stays
        # kummer_m's row; kummer_m itself refuses the overflow
        rows = list(islice(specfun._degree_rows(1.0, np.array([1.0, 1e110])), 8))
        assert [bool(np.isfinite(row[1])) for row in rows] == [True] * 3 + [False] * 5
        assert [row[0] for row in rows] == [kummer_m(-float(n), 1.0, 1.0) for n in range(8)]
        with pytest.raises(ValueError, match="overflows"):
            kummer_m(-3.0, 1.0, 1e110)

    def test_rejects_array_a(self):
        with pytest.raises(ValueError, match="a must be a scalar"):
            kummer_m(np.array([-1.0, -2.0]), 2.0, 1.0)
        with pytest.raises(ValueError, match="a must be a scalar"):
            kummer_m(np.array([-1.0]), 2.0, 1.0)

    @pytest.mark.parametrize("degree, alpha", [(67, 0), (101, 0), (61, 14)])
    def test_large_degrees_meet_the_exact_polynomial(self, degree, alpha):
        # the ascending series was off by 6e-3, 7e13 and 9e-2 of the peak of
        # e^(-z/2) z^(alpha/2) |L|, cancelling across terms ~exp(z/2) larger
        z = np.linspace(0.5, 400.0, 64)
        exact = oracle._laguerre_table(degree, [alpha], z)[degree, 0]
        got = kummer_m(-degree, alpha + 1.0, z)
        weight = np.exp(-0.5 * z) * z ** (0.5 * alpha)
        assert np.max(np.abs(got - exact) * weight) <= 1e-15 * np.max(np.abs(exact) * weight)

    @pytest.mark.parametrize(
        "b, z",
        [(np.arange(1.0, 12.0)[:, None], np.array(Z_SET)), (np.array([1.0, 3.0, 7.0]), 3.75)],
    )
    def test_recurrence_rows_equal_kummer_m_bit_for_bit(self, b, z):
        rows = specfun._degree_rows(b, z)
        for n in range(31):
            row = next(rows)
            assert row.shape == np.broadcast_shapes(np.shape(b), np.shape(z))
            assert np.array_equal(row.view(np.int64), kummer_m(-n, b, z).view(np.int64)), n

    def test_polynomial_termination_by_divided_differences(self):
        # a = -k gives a degree-k polynomial: its (k+1)-th finite difference
        # over equally spaced points vanishes apart from rounding.
        step = 0.25
        for k in (0, 1, 2, 4, 7, 10):
            zs = np.arange(k + 2) * step
            vals = kummer_m(-float(k), 2.0, zs)
            diff = np.diff(vals, n=k + 1)
            scale = max(1.0, float(np.max(np.abs(vals))))
            assert np.all(np.abs(diff) <= 1e-10 * scale)


# b: integers 1..80 (an example takes the three largest b); z: 0, below
# 1e-300, up to 700, and far past it, where the rows leave float64 within
# four degrees
_B = st.integers(1, 80).map(float)
_Z = st.one_of(
    st.just(0.0), st.floats(0.0, 1e-300), st.floats(0.0, 700.0), st.floats(1e100, 1e300)
)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestInPlaceStream:
    """An array stream steps in place, a 0-d one in floats: the same floats."""

    @given(
        b=st.one_of(_B, st.lists(_B, min_size=1, max_size=4).map(lambda b: np.array(b)[:, None])),
        z=st.lists(_Z, min_size=1, max_size=6).map(np.array),
        degree=st.integers(0, 60),
    )
    @example(b=np.array([[1.0], [3.0], [80.0]]), z=np.array([0.0, 5e-324, 1e-301, 700.0, 1e110]),
             degree=60)
    @example(b=2.0**25 - np.array([[3.0], [2.0], [1.0]]),
             z=np.array([0.0, 5e-324, 1e-301, 700.0, 1e110]), degree=60)
    def test_in_place_rows_equal_the_0d_rows_bit_for_bit(self, b, z, degree):
        rows = list(islice(specfun._degree_rows(b, z), degree + 1))
        for (i, bi), (j, zj) in product(enumerate(np.ravel(b)), enumerate(z)):
            alone = islice(specfun._degree_rows(float(bi), float(zj)), degree + 1)
            for n, (row, one) in enumerate(zip(rows, alone)):
                got = np.reshape(row, (-1, z.size))[i, j]
                assert np.isfinite(got) == np.isfinite(one), (bi, zj, n)
                if np.isfinite(one):
                    assert _bits(got) == _bits(one), (bi, zj, n)

    @pytest.mark.parametrize("b", [3.0, np.array([[1.0], [2.0], [3.0]])], ids=["row", "column"])
    def test_yielded_rows_keep_their_bytes(self, b):
        # each row is a new array: ten more degrees leave the rows kept
        # from the first ten as they were
        rows = specfun._degree_rows(b, np.linspace(0.0, 60.0, 33))
        kept = list(islice(rows, 10))
        before = [row.tobytes() for row in kept]
        list(islice(rows, 10))
        assert [row.tobytes() for row in kept] == before
        assert len({id(row) for row in kept}) == 10


# Orders and z outside kummer_m's domain: non-integers, floats within 1e-13
# of an integer, a > 0, a <= -2**25, b <= 0, b >= 2**25, nan and +-inf,
# and negative z; beside them the orders and z that are inside it.
_NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_NOT_INTEGER = st.one_of(
    st.floats(-1e3, 1e3).filter(lambda x: not x.is_integer()),
    st.builds(lambda k, e: k + e, st.integers(-80, 80), st.floats(-1e-13, 1e-13)).filter(
        lambda x: not x.is_integer()
    ),
)
_GOOD_A, _GOOD_B, _GOOD_Z = st.integers(-60, 0).map(float), _B, st.floats(0.0, 700.0)
_BAD_A = st.one_of(
    _NOT_INTEGER,
    _NONFINITE,
    st.integers(1, 2**30).map(float),
    st.floats(max_value=-(2.0**25), allow_infinity=False),
    st.lists(_GOOD_A, min_size=1, max_size=3).map(np.array),  # a is a scalar
)
_BAD_B = st.one_of(
    _NOT_INTEGER,
    _NONFINITE,
    st.floats(max_value=0.0, allow_infinity=False),
    st.floats(min_value=2.0**25, allow_infinity=False),
)
_BAD_Z = st.one_of(_NONFINITE, st.floats(max_value=0.0, exclude_max=True, allow_infinity=False))


def _among(one, good, shape):
    """``one`` alone, or at a drawn place in an array of good values of ``shape``."""
    placed = st.tuples(one, st.lists(good, max_size=3), st.integers(0, 3)).map(
        lambda t: np.reshape(np.insert(np.array(t[1], dtype=float), min(t[2], len(t[1])), t[0]),
                             shape)
    )
    return st.one_of(one, placed)


@st.composite
def _outside_domain(draw):
    """(a, b, z) with at least one of them outside the domain; b a column, z a row."""
    bad = draw(st.sets(st.sampled_from("abz"), min_size=1))
    a = draw(_BAD_A if "a" in bad else _GOOD_A)
    b = draw(_among(_BAD_B if "b" in bad else _GOOD_B, _GOOD_B, (-1, 1)))
    z = draw(_among(_BAD_Z if "z" in bad else _GOOD_Z, _GOOD_Z, (-1,)))
    return a, b, z


class TestKummerDomain:
    @given(args=_outside_domain())
    @example(args=(-(2.0**25), 1.0, 1.0))
    @example(args=(-2.0, 2.0**25, 1.0))
    @example(args=(-2.0, np.array([[1.0], [3.0 + 4e-16]]), 1.0))
    @example(args=(math.inf, math.nan, -math.inf))
    def test_kummer_domain_is_refused_with_one_value_error(self, args):
        # every order the package forms is an integer of the domain; any
        # other input raises one ValueError, chained to nothing, and no
        # RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError) as refused:
                kummer_m(*args)
        assert refused.value.__context__ is None and refused.value.__cause__ is None


class TestKummerDerivative:
    # dM/dz = (a/b) M(a+1, b+1, z) enters through KummerProfile, whose
    # evaluator returns exp(-z/2) z^(mu/2) M(a, b, z) with its z-derivatives

    def test_constant_function(self):
        # a = 0: M = 1, so the zero-weight term M(1, b+1, z) must not appear
        for z in (0.5, 5.0, 40.0):
            value, d1, d2 = KummerProfile(coeff=1.0, mu=0, a=0.0).derivatives(z)
            assert d1 == -0.5 * value
            assert d2 == 0.25 * value
            f = 2.0 * math.exp(-z / 2.0) * z**1.5
            g = 1.5 / z - 0.5
            value, d1, d2 = KummerProfile(coeff=2.0, mu=3, a=0.0).derivatives(z)
            assert_allclose(value, f, rtol=1e-14)
            assert_allclose(d1, f * g, rtol=1e-13)
            assert_allclose(d2, f * (g * g - 1.5 / z**2), rtol=1e-13)

    def test_linear_case(self):
        # a = -1, b = 1: f = exp(-z/2) (1 - z), f' = exp(-z/2) (z - 3)/2,
        # f'' = exp(-z/2) (5 - z)/4
        prof = KummerProfile(coeff=1.0, mu=0, a=-1.0)
        for z in (0.5, 3.0, 40.0):
            e = math.exp(-z / 2.0)
            value, d1, d2 = prof.derivatives(z, 2)
            assert_allclose(value, e * (1.0 - z), rtol=1e-14)
            assert_allclose(d1, e * (z - 3.0) / 2.0, rtol=1e-14)
            assert_allclose(d2, e * (5.0 - z) / 4.0, rtol=1e-14)

    def test_central_difference_sweep(self):
        # exact first and second z-derivatives of psi1 and of the derived
        # lower profile against central differences of the next lower order
        p = natural_params()
        grid = RadialGrid(12.0, 9)
        z = np.array([0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0])
        h = 1e-5
        for n in range(0, 21, 2):
            for m in range(0, 11, 2):
                qn = QuantumNumbers(n, m)
                upper = radial_psi1(qn, grid, p)
                lower = derive_lower_component(upper, energy(qn, p).E)
                for prof in (upper.profile, lower.profile):
                    f, d1, d2 = prof.derivatives(z, 2)
                    tol = 1e-6 * np.maximum.reduce([np.abs(f), np.abs(d1), np.abs(d2)])
                    fd1 = (prof.value_z(z + h) - prof.value_z(z - h)) / (2.0 * h)
                    fd2 = (prof.dvalue_dz(z + h) - prof.dvalue_dz(z - h)) / (2.0 * h)
                    assert np.all(np.abs(fd1 - prof.dvalue_dz(z)) <= tol), (n, m)
                    assert np.all(np.abs(fd2 - prof.d2value_dz2(z)) <= tol), (n, m)


class TestLaguerre:
    """M(-n, alpha+1, z) = L_n^(alpha)(z) / binom(n+alpha, n), L read exactly."""

    def test_order_zero(self):
        for alpha in (0, 3, 9):
            assert kummer_m(0.0, alpha + 1.0, 17.2) == 1.0

    def test_order_one(self):
        # L_1^(0)(z) = 1 - z, exact in binary at these z
        for z in (0.0, 1.0, 4.5):
            assert kummer_m(-1.0, 1.0, z) == 1.0 - z

    def test_cross_check_against_kummer(self):
        # binom(3, 2) M(-2, 2, 1) and the explicit L_2^(1)(1) = (1 - 6 + 6) / 2
        assert_allclose(3.0 * kummer_m(-2.0, 2.0, 1.0), 0.5, rtol=1e-15)

    def test_binomial_times_the_kummer_row(self):
        # against L_n^(alpha)(z) = sum_i (-1)^i binom(n+alpha, n-i) z^i / i!
        # in exact rationals, on L's scale
        for n, alpha, z in [(20, 0, 50.0), (13, 4, 7.25), (20, 10, 25.0)]:
            exact = sum(
                Fraction((-1) ** i * math.comb(n + alpha, n - i), math.factorial(i))
                * Fraction(z) ** i
                for i in range(n + 1)
            )
            lag = math.comb(n + alpha, n) * kummer_m(-float(n), alpha + 1.0, z)
            assert abs(lag - float(exact)) <= 1e-15 * max(1.0, abs(float(exact))), n

    def test_identity_sweep(self):
        # M(-n, alpha+1, z) == L_n^(alpha)(z) / binom(n+alpha, n), the right
        # side exact (the kummer-laguerre check's table), over n <= 20 and
        # alpha <= 10, on L's scale: binom |M - exact| <= 1e-15 max(1, |L|)
        z = np.array(Z_SET)
        exact = oracle._laguerre_table(20, range(11), z)
        for n in range(21):
            for alpha in range(11):
                binom = math.comb(n + alpha, n)
                kum = kummer_m(-float(n), alpha + 1.0, z)
                bound = 1e-15 * np.maximum(1.0, binom * np.abs(exact[n, alpha]))
                assert np.all(binom * np.abs(kum - exact[n, alpha]) <= bound), (n, alpha)

    def test_root_count_bound(self):
        # M(-k, m+1, z) has exactly k sign changes on (0, 4k + 2m + 4);
        # samples landing exactly on a root are dropped before counting.
        for k in (1, 2, 3, 5, 8, 12):
            for m in (0, 1, 3, 6):
                end = 4.0 * k + 2.0 * m + 4.0
                z = np.linspace(0.0, end, 4001)[1:]
                vals = kummer_m(-float(k), m + 1.0, z)
                kept = vals[np.abs(vals) > 1e-13 * np.max(np.abs(vals))]
                changes = int(np.sum(kept[:-1] * kept[1:] < 0.0))
                assert changes == k, (k, m)
