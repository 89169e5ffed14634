import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dirac2d import (
    KummerProfile,
    QuantumNumbers,
    RadialGrid,
    derive_lower_component,
    energy,
    kummer_m,
    laguerre,
    natural_params,
    radial_psi1,
)
from dirac2d import oracle, specfun

Z_SET = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0]


class TestKummerM:
    def test_value_at_origin_is_one(self):
        for a in (-3.0, -1.0, 0.0):
            for b in (1.0, 2.5, 4.0):
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
        b = np.array([1.0, 2.5, bad, 4.0])
        with pytest.raises(ValueError, match="zero or a negative integer"):
            kummer_m(-2.0, b, np.array([0.5, 1.0])[:, None])

    def test_rejects_nonfinite_b(self):
        for b in (math.nan, math.inf, np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="b must be finite"):
                kummer_m(-2.0, b, 1.0)

    @pytest.mark.parametrize("z_set", ["table", "random"])
    def test_orders_in_one_pass_equal_the_calls_per_n_bit_for_bit(self, z_set):
        # one laguerre pass over n = 0 .. 20 reads the rows
        # M(-n, alpha + 1, z) of kummer_m, each times its binomial
        if z_set == "table":
            z = np.array(Z_SET)
        else:
            z = np.random.default_rng(20261018).uniform(0.0, 60.0, 64)
        alpha = np.arange(11)[:, None]
        table = laguerre(np.arange(21)[:, None, None], alpha, z)
        assert table.shape == (21, 11, z.size)
        binom = [[[math.comb(n + a, n)] for a in range(11)] for n in range(21)]
        stacked = binom * np.array([kummer_m(-float(n), alpha + 1.0, z) for n in range(21)])
        assert np.array_equal(table.view(np.int64), stacked.view(np.int64))

    def test_orders_of_scalar_arguments_and_order_zero(self):
        assert laguerre(np.array([0]), 1, 3.0).tolist() == [1.0]
        row = laguerre(np.arange(4), 1, 1.5)
        assert row.tolist() == [(n + 1) * kummer_m(-float(n), 2.0, 1.5) for n in range(4)]

    def test_orders_keep_the_checks_on_b_and_z(self):
        # alpha + 1 is the b of the rows
        orders = np.arange(4)
        with pytest.raises(ValueError, match="alpha must be non-negative"):
            laguerre(orders, np.array([1, -2]), 1.0)
        with pytest.raises(ValueError, match="alpha must be non-negative"):
            laguerre(orders, math.nan, 1.0)
        with pytest.raises(ValueError, match="negative z"):
            laguerre(orders, 0, np.array([1.0, -0.5, 2.0, 3.0]))
        with pytest.raises(ValueError, match="z must be finite"):
            laguerre(orders, 0, math.inf)
        with pytest.raises(ValueError, match="overflows"):
            laguerre(orders, 0, 1e110)

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
        [(np.arange(1.0, 12.0)[:, None], np.array(Z_SET)), (np.array([1.0, 2.5, 7.0]), 3.75)],
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
    def test_order_zero(self):
        for alpha in (0, 3, 9):
            assert laguerre(0, alpha, 17.2) == 1.0

    def test_order_one(self):
        for z in (0.0, 1.0, 4.5):
            assert laguerre(1, 0, z) == 1.0 - z

    def test_cross_check_against_kummer(self):
        # the identity's two sides and the exact value 1/2
        left = laguerre(2, 1, 1.0)
        right = 3.0 * kummer_m(-2.0, 2.0, 1.0)
        assert_allclose(left, right, rtol=1e-14)
        assert_allclose(left, 0.5, rtol=1e-14)

    def test_binomial_times_the_kummer_row(self):
        # the binomial rounded once times the Kummer row, bit for bit
        for n, alpha, z in [(20, 0, 50.0), (13, 4, 7.25), (20, 10, 25.0)]:
            row = kummer_m(-float(n), alpha + 1.0, z)
            assert laguerre(n, alpha, z) == float(math.comb(n + alpha, n)) * row
            assert laguerre(n, alpha, np.array([z])).dtype == np.float64

    def test_overflowing_binomial_is_refused(self):
        # binom(1200, 600) ~ 4e359: L is refused where it once read inf
        with pytest.raises(ValueError, match="overflows"):
            laguerre(600, 600, 1.0)

    @pytest.mark.parametrize("z_set", ["table", "random"])
    def test_array_alpha_equals_scalar_calls_bit_for_bit(self, z_set):
        # 21 x 11 (n, alpha) pairs, batched over alpha
        if z_set == "table":
            z = np.array(Z_SET)
        else:
            z = np.random.default_rng(20261018).uniform(0.0, 60.0, 64)
        alpha = np.arange(11)[:, None]
        for n in range(21):
            batched = laguerre(n, alpha, z)
            assert batched.shape == (11, z.size)
            scalar = np.array([laguerre(n, int(a), z) for a in alpha[:, 0]])
            assert np.array_equal(batched.view(np.int64), scalar.view(np.int64)), n

    def test_array_alpha_broadcasts_and_keeps_scalar_results_float(self):
        assert isinstance(laguerre(3, np.int64(2), 1.5), float)
        assert laguerre(3, np.array([1, 2]), 1.5).shape == (2,)
        assert laguerre(0, np.array([1, 2]), 1.5).shape == (2,)
        assert laguerre(0, np.array([[1], [2]]), np.ones(3)).shape == (2, 3)

    @pytest.mark.parametrize("z_set", ["table", "random"])
    def test_array_n_equals_per_n_calls_bit_for_bit(self, z_set):
        # 21 x 11 x 8 values from one call
        if z_set == "table":
            z = np.array(Z_SET)
        else:
            z = np.random.default_rng(20261019).uniform(0.0, 60.0, 64)
        alpha = np.arange(11)[:, None]
        batched = laguerre(np.arange(21)[:, None, None], alpha, z)
        assert batched.shape == (21, 11, z.size)
        stacked = np.array([laguerre(n, alpha, z) for n in range(21)])
        assert np.array_equal(batched.view(np.int64), stacked.view(np.int64))
        ragged = laguerre(np.array([3, 0, 20, 7]), 2, z[:4])
        single = [laguerre(n, 2, x) for n, x in zip([3, 0, 20, 7], z[:4])]
        assert np.array_equal(ragged, single)

    def test_array_n_broadcasts(self):
        assert laguerre(np.array([0, 1]), 0, 2.0).tolist() == [1.0, -1.0]
        assert laguerre(np.array([[0], [2]]), np.array([0, 1]), 0.0).shape == (2, 2)
        assert isinstance(laguerre(np.int64(2), 1, 1.0), float)

    @pytest.mark.parametrize("n", [True, 2.0, [1, -1], [1.0], np.bool_(False)])
    def test_rejects_bool_float_and_negative_n(self, n):
        with pytest.raises(ValueError, match="n must be a non-negative integer"):
            laguerre(n if np.ndim(n) == 0 else np.array(n), 0, 1.0)

    def test_batch_overflow_counts_only_returned_elements(self):
        # past n = 1 the recurrence overflows at z = 1e12, but only the
        # n = 30 element reads that far, and it sits at z = 1
        out = laguerre(np.array([1, 30]), 0, np.array([1e12, 1.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == 1.0 - 1e12
        assert out[1] == laguerre(30, 0, 1.0)
        with pytest.raises(ValueError, match="overflows"):
            laguerre(np.array([1, 30]), 0, np.array([1.0, 1e12]))

    @pytest.mark.parametrize("alpha", [[0, -1], [1.0, 2.0], [0.5], 2.0, True])
    def test_rejects_negative_or_non_integer_alpha_elements(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            laguerre(2, alpha if np.ndim(alpha) == 0 else np.array(alpha), 1.0)

    def test_rejects_negative_order_or_weight(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0, 1.0)
        with pytest.raises(ValueError):
            laguerre(2, -1, 1.0)
        with pytest.raises(ValueError):
            laguerre(2, 0, -1.0)

    def test_rejects_nonfinite_z_and_an_overflowing_sum(self):
        # nan passed through and inf read as a value, as kummer_m refuses
        for z in (math.nan, math.inf, np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="z must be finite"):
                laguerre(3, 1, z)
        with pytest.raises(ValueError, match="overflows"):
            laguerre(20, 0, 1e300)

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
