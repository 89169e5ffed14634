import math

import pytest
from numpy.testing import assert_allclose

from dirac2d import (
    PhysicalParams,
    QuantumNumbers,
    energy,
    level_spacings,
    natural_params,
    nr_expansion,
    quantization_residual,
)

PARAM_SETS = [
    natural_params(),
    PhysicalParams(rest_mass=2.0, omega=0.5),
    PhysicalParams(rest_mass=1.0, omega=1.0, hbar=1.0, c=3.0),
]


class TestQuantumNumbers:
    def test_valid(self):
        qn = QuantumNumbers(n=3, m=2)
        assert (qn.n, qn.m) == (3, 2)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            QuantumNumbers(n=-1, m=0)

    def test_rejects_negative_m_explicitly(self):
        with pytest.raises(ValueError, match="non-negative"):
            QuantumNumbers(n=0, m=-1)

    # a float or a bool is no quantum number, even where it equals one
    @pytest.mark.parametrize("n, m", [(0.5, 0), (0, 0.5), (0, 1.0), (0, True)])
    def test_rejects_non_integers(self, n, m):
        with pytest.raises(ValueError, match="must be a non-negative integer"):
            QuantumNumbers(n=n, m=m)


class TestEnergy:
    def test_ground_state_natural_units(self):
        level = energy(QuantumNumbers(0, 0), natural_params())
        assert_allclose(level.E, math.sqrt(5.0), rtol=1e-14)

    def test_first_excited_is_exactly_three(self):
        level = energy(QuantumNumbers(1, 0), natural_params())
        assert abs(level.E - 3.0) <= 1e-15 * 3.0

    def test_bookkeeping_ground_state(self):
        level = energy(QuantumNumbers(0, 0), natural_params())
        assert level.k1 == 6.0
        assert level.kummer_a == -1.0

    def test_independent_of_m(self):
        p = natural_params()
        reference = energy(QuantumNumbers(0, 0), p).E
        assert energy(QuantumNumbers(0, 7), p).E == reference

    def test_excitation_without_cancellation(self):
        # natural units: agrees with E - m0 c^2; electron at omega = 1 rad/s
        # (lam ~ 1.3e-21): E - m0 c^2 rounds to zero, the excitation does not
        for n in range(6):
            level = energy(QuantumNumbers(n, 0), natural_params())
            assert_allclose(level.excitation, level.E - 1.0, rtol=1e-15)
        si = PhysicalParams(
            rest_mass=9.1093837015e-31, omega=1.0, hbar=1.054571817e-34, c=299792458.0
        )
        level = energy(QuantumNumbers(2, 0), si)
        assert level.E - si.rest_energy == 0.0
        expected = 6.0 * si.energy_quantum * (1.0 - 3.0 * si.lam)
        assert_allclose(level.excitation, expected, rtol=1e-12)

    def test_m_independence_bitwise(self):
        for p in PARAM_SETS:
            for n in range(6):
                values = {energy(QuantumNumbers(n, m), p).E for m in range(11)}
                assert len(values) == 1

    def test_consistency_triangle(self):
        # k1 against its defining combination, kummer_a against -(n+1)
        for p in PARAM_SETS:
            for n in range(6):
                for m in (0, 1, 4):
                    level = energy(QuantumNumbers(n, m), p)
                    k1_from_E = 2.0 * (m + 1) + (
                        level.E**2 - p.rest_energy**2
                    ) / (p.rest_energy * p.energy_quantum)
                    assert_allclose(level.k1, k1_from_E, rtol=1e-12)
                    assert abs(level.kummer_a + (n + 1)) <= 1e-12

    def test_energy_above_rest(self):
        for p in PARAM_SETS:
            for n in range(10):
                assert energy(QuantumNumbers(n, 0), p).E > p.rest_energy

    @pytest.mark.parametrize(
        "scales, n",
        [
            # 4(n+1) lam overflows even though lam itself is finite
            (dict(omega=1e308), 0),
            (dict(omega=2e307), 2),
            (dict(omega=3e306), 200),
            # E = 2e254 is finite, but m0 c^2 x = 4.4e308 is not
            (dict(omega=1e307, c=1e100), 10),
        ],
    )
    def test_overflowing_level_raises(self, scales, n):
        p = PhysicalParams(rest_mass=1.0, **scales)
        with pytest.raises(ValueError, match=f"n={n} overflows at lam="):
            energy(QuantumNumbers(n, 0), p)

    @pytest.mark.parametrize(
        "n, m, message",
        [
            (10**400, 0, "n lies past float64's largest value"),
            (0, 10**400, "m lies past float64's largest value"),
            # 2(m + 1) is inf although m itself converts
            (0, 10**308, r"k1 = 2\(m \+ 1\) \+ 4\(n \+ 1\) of level n=0 leaves float64"),
        ],
        ids=["n-10**400", "m-10**400", "m-10**308"],
    )
    def test_an_index_past_float64_raises(self, n, m, message):
        # the int-to-float conversion raised OverflowError, and m = 10**308
        # returned k1 = inf and kummer_a = -inf
        with pytest.raises(ValueError, match=message):
            energy(QuantumNumbers(n, m), natural_params())

    def test_largest_finite_levels_still_evaluate(self):
        p = PhysicalParams(rest_mass=1.0, omega=1e300)
        level = energy(QuantumNumbers(1000, 0), p)
        assert math.isfinite(level.E) and math.isfinite(level.excitation)


class TestQuantizationResidual:
    def test_zero_at_threshold(self):
        p = natural_params()
        assert quantization_residual(p.rest_energy, 0, p) == 0.0

    def test_minus_one_at_ground_state(self):
        p = natural_params()
        e0 = energy(QuantumNumbers(0, 0), p).E
        assert_allclose(quantization_residual(e0, 0, p), -1.0, rtol=1e-12)

    def test_minus_four_at_n_three(self):
        p = natural_params()
        e3 = energy(QuantumNumbers(3, 0), p).E
        assert_allclose(quantization_residual(e3, 0, p), -4.0, rtol=1e-12)

    def test_rejects_below_threshold(self):
        p = natural_params()
        with pytest.raises(ValueError):
            quantization_residual(0.5, 0, p)

    def test_rejects_negative_m(self):
        with pytest.raises(ValueError):
            quantization_residual(2.0, -1, natural_params())

    @pytest.mark.parametrize("E_trial", [1e155, 1e308])
    def test_refuses_a_residual_past_float64(self, E_trial):
        # E**2 overflows: 1e308 returned -inf
        with pytest.raises(ValueError, match="leaves float64"):
            quantization_residual(E_trial, 0, natural_params())

    def test_strictly_decreasing(self):
        for p in PARAM_SETS:
            samples = [
                quantization_residual(p.rest_energy * (1.0 + 0.1 * k), 2, p)
                for k in range(40)
            ]
            assert all(a > b for a, b in zip(samples, samples[1:]))

    def test_independent_of_m_at_fixed_energy(self):
        # the angular offset cancels between k1 and the residual definition
        p = natural_params()
        for m in range(5):
            assert_allclose(
                quantization_residual(2.5, m, p),
                quantization_residual(2.5, 0, p),
                rtol=1e-14,
            )

    def test_bisection_recovers_spectrum(self):
        # root finding on the residual is an independent route to E(n)
        for p in PARAM_SETS:
            for n in range(11):
                target = -(n + 1.0)
                lo = p.rest_energy
                hi = p.rest_energy * math.sqrt(1.0 + 4.0 * (n + 2) * p.lam)
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if mid in (lo, hi):
                        break
                    if quantization_residual(mid, 0, p) > target:
                        lo = mid
                    else:
                        hi = mid
                recovered = 0.5 * (lo + hi)
                exact = energy(QuantumNumbers(n, 0), p).E
                assert abs(recovered - exact) <= 1e-10 * exact


class TestNrExpansion:
    def test_reported_example(self):
        p = PhysicalParams(rest_mass=1.0, omega=1e-4)
        terms = nr_expansion(0, p)
        assert_allclose(terms.rest_energy, 1.0, rtol=1e-15)
        assert_allclose(terms.harmonic_term, 2e-4, rtol=1e-15)
        assert_allclose(terms.correction, -2e-8, rtol=1e-15)
        assert_allclose(terms.total, 1.00019998, rtol=1e-12)
        exact = energy(QuantumNumbers(0, 0), p).E
        assert_allclose(exact, math.sqrt(1.0004), rtol=1e-15)
        assert_allclose(exact, 1.000199980004, rtol=1e-12)

    def test_small_frequency_limit(self):
        p = PhysicalParams(rest_mass=1.0, omega=1e-30)
        terms = nr_expansion(0, p)
        assert terms.harmonic_term < 1e-29
        assert abs(terms.correction) < 1e-59
        assert terms.rest_energy == 1.0

    def test_signs(self):
        for p in PARAM_SETS:
            for n in range(5):
                terms = nr_expansion(n, p)
                assert terms.harmonic_term > 0.0
                assert terms.correction < 0.0

    def test_dominance_ordering(self):
        # |rest| > |harmonic| > |correction| whenever lam < 1/(2(n+1))
        for lam in (1e-1, 1e-2, 1e-3):
            p = PhysicalParams(rest_mass=1.0, omega=lam)
            for n in range(6):
                if lam >= 1.0 / (2.0 * (n + 1)):
                    continue
                terms = nr_expansion(n, p)
                assert terms.rest_energy > terms.harmonic_term > abs(terms.correction)

    def test_remainder_is_cubic(self):
        for n in (0, 2, 5):
            errors = []
            for lam in (1e-2, 1e-3, 1e-4):
                p = PhysicalParams(rest_mass=1.0, omega=lam)
                exact = energy(QuantumNumbers(n, 0), p).E
                errors.append(abs(exact - nr_expansion(n, p).total))
            assert 500.0 < errors[0] / errors[1] < 2000.0
            assert 500.0 < errors[1] / errors[2] < 2000.0

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            nr_expansion(-1, natural_params())


class TestLevelSpacings:
    def test_first_two_gaps_natural_units(self):
        gaps = level_spacings(2, natural_params())
        assert_allclose(gaps[0], 3.0 - math.sqrt(5.0), rtol=1e-14)
        assert_allclose(gaps[1], math.sqrt(13.0) - 3.0, rtol=1e-14)

    def test_positive_and_strictly_decreasing(self):
        for p in PARAM_SETS:
            gaps = level_spacings(100, p)
            assert all(g > 0.0 for g in gaps)
            assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_tiny_lambda_gaps(self):
        # lam ~ 1.3e-21: every E rounds to m0 c^2, yet each gap is 2 hbar w
        si = PhysicalParams(
            rest_mass=9.1093837015e-31, omega=1.0, hbar=1.054571817e-34, c=299792458.0
        )
        for gap in level_spacings(20, si):
            assert_allclose(gap, 2.0 * si.energy_quantum, rtol=1e-12)

    def test_rejects_small_n_max(self):
        with pytest.raises(ValueError):
            level_spacings(0, natural_params())

    def test_large_n_asymptote(self):
        # spacing * sqrt(n) approaches sqrt(m0 c^2 hbar w)
        for p in PARAM_SETS:
            limit = math.sqrt(p.rest_energy * p.energy_quantum)
            ratios = {}
            for n in (10**3, 10**6):
                gap = (
                    energy(QuantumNumbers(n + 1, 0), p).E
                    - energy(QuantumNumbers(n, 0), p).E
                )
                ratios[n] = gap * math.sqrt(n) / limit
            assert abs(ratios[10**6] - 1.0) < 1e-5
            assert abs(ratios[10**6] - 1.0) < abs(ratios[10**3] - 1.0) / 100.0
