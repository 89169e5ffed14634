import itertools
import math
import re
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dirac2d import (
    KummerProfile,
    PhysicalParams,
    QuantumNumbers,
    RadialFunction,
    RadialGrid,
    TruncationError,
    closed_form_norm_constant,
    count_radial_nodes,
    default_grid,
    derive_lower_component,
    energy,
    integrate_radial,
    natural_params,
    normalize,
    ode_residual,
    psi1_profile,
    radial_psi1,
    radial_psi2,
    sign_changes,
    spinor_sample,
    to_dimensionless_z,
)
from dirac2d import oracle, specfun, wavefn
from dirac2d.cli import RunConfig


IN_BOTH_UNIT_SYSTEMS = pytest.mark.parametrize(
    "p",
    [
        natural_params(),
        PhysicalParams(
            rest_mass=9.1093837015e-31,
            omega=1.0e12,
            hbar=1.054571817e-34,
            c=299792458.0,
        ),
    ],
    ids=["natural", "si"],
)


def closed_form_A(n, m, b):
    """Normalization constant from Laguerre orthogonality, derived by hand:
    2 pi int |R|^2 rho drho = pi b^2 (n+1)! (m!)^2 / (n+m+1)!."""
    return math.sqrt(
        math.factorial(n + m + 1)
        / (math.pi * b * b * math.factorial(n + 1) * math.factorial(m) ** 2)
    )


class TestRadialGrid:
    def test_uniform_construction(self):
        grid = RadialGrid(8.0, 17)
        assert grid.samples[0] == 0.0
        assert grid.samples[-1] == 8.0
        assert grid.num_points == 17
        assert_allclose(np.diff(grid.samples), grid.spacing, rtol=1e-14)

    def test_rejects_even_count(self):
        with pytest.raises(ValueError):
            RadialGrid(8.0, 16)

    def test_rejects_tiny_count(self):
        with pytest.raises(ValueError):
            RadialGrid(8.0, 1)

    def test_rejects_bad_rho_max(self):
        with pytest.raises(ValueError):
            RadialGrid(-1.0, 17)
        with pytest.raises(ValueError):
            RadialGrid(math.inf, 17)

    def test_samples_match_linspace(self):
        grid = RadialGrid(rho_max=8.0, num_points=17)
        assert np.array_equal(grid.samples, np.linspace(0.0, 8.0, 17))
        assert not grid.samples.flags.writeable
        with pytest.raises(TypeError):
            RadialGrid(rho_max=8.0, num_points=17, samples=np.linspace(0.0, 8.0, 17))

    def test_samples_are_read_only(self):
        grid = RadialGrid(8.0, 17)
        with pytest.raises(ValueError):
            grid.samples[0] = 1.0


class TestKummerProfile:
    def test_ground_state_derivatives_finite_far_out(self):
        # n = 0: the second derivative of M(-1, b, z) is zero, and evaluating
        # it must not reach for a non-terminating series
        p = natural_params()
        for m in (0, 2):
            grid = RadialGrid(12.0, 9)
            prof = radial_psi1(QuantumNumbers(0, m), grid, p).profile
            assert np.isfinite(prof.d2value_dz2(900.0))
            values = prof.derivatives(np.array([899.5, 900.0]), 2)
            assert all(np.all(np.isfinite(v)) for v in values)

    def test_mu_zero_derivatives_at_the_origin(self):
        # f = e^{-z/2} (1 - z) has f'(0) = -3/2 and f''(0) = 5/4; g = mu/(2z) - 1/2
        # read 0/0 there and gave nan with a RuntimeWarning
        prof = KummerProfile(coeff=1.0, mu=0, a=-1.0)
        assert prof.dvalue_dz(0.0) == -1.5
        assert prof.d2value_dz2(0.0) == 1.25
        z = np.array([0.0, 1e-300, 0.5, 3.0, 40.0])
        _, fz, fzz = prof.derivatives(z, 2)
        decay = np.exp(-0.5 * z)
        assert_allclose(fz, decay * (0.5 * z - 1.5), rtol=1e-14)
        assert_allclose(fzz, decay * (1.25 - 0.25 * z), rtol=1e-14)

    def test_rejects_unsupported_order(self):
        prof = KummerProfile(coeff=1.0, mu=0, a=-1.0)
        with pytest.raises(ValueError):
            prof.derivatives(1.0, 3)

    def test_ladder_gives_the_same_floats(self):
        # psi1's grid terms M(a+k, b+k) serve psi1 and, from the second on,
        # the derived lower component (a+1, b+1); the floats equal each
        # profile's own evaluation at the same z
        p = natural_params()
        grid = RadialGrid(math.sqrt(40.0), 97)
        z = to_dimensionless_z(grid.samples, p)
        for n, m in [(0, 0), (1, 0), (4, 3)]:
            psi1 = radial_psi1(QuantumNumbers(n, m), grid, p)
            psi1.interior(2)
            lower = derive_lower_component(psi1, 2.0)
            for rf, order in [(psi1, 0), (psi1, 1), (psi1, 2), (lower, 1)]:
                own = rf.profile.derivatives(z[1:-1], order)
                read = rf.interior(order)[1]
                for x, y in zip(own, read):
                    assert np.array_equal(x.view(np.int64), y.view(np.int64))
            own = lower.profile.value_z(z)
            assert np.array_equal(own.view(np.int64), lower.values.view(np.int64))


@pytest.fixture
def kummer_calls(monkeypatch):
    """The (a, b) of every ``kummer_m`` call that ``wavefn`` makes."""
    kummer_m, calls = wavefn.kummer_m, []
    monkeypatch.setattr(wavefn, "kummer_m", lambda *a: calls.append(a[:2]) or kummer_m(*a))
    return calls


class TestRowTable:
    """The rows M(a, b, z) on one z, keyed by (a, b), that a profile reads."""

    Z = np.linspace(0.0, 30.0, 31)

    def test_missing_row_is_summed_once_and_kept(self, kummer_calls):
        rows = wavefn._Rows(self.Z)
        row = rows[-4.0, 3.0]
        assert kummer_calls == [(-4.0, 3.0)]
        assert row.tobytes() == specfun.kummer_m(-4.0, 3.0, self.Z).tobytes()
        assert rows[-4.0, 3.0] is row and list(rows) == [(-4.0, 3.0)]
        assert kummer_calls == [(-4.0, 3.0)]

    @pytest.mark.parametrize(
        "a, coeff, order, keys",
        [
            (-3.0, 1.0, 2, [(-3.0, 2.0), (-2.0, 3.0), (-1.0, 4.0)]),
            (-3.0, 1.0, 0, [(-3.0, 2.0)]),
            (-2.0, -0.5, 1, [(-2.0, 2.0), (-1.0, 3.0)]),
            (-1.0, 1.0, 2, [(-1.0, 2.0), (0.0, 3.0)]),
            (0.0, 1.0, 2, [(0.0, 2.0)]),
            (-3.0, 0.0, 2, []),
        ],
        ids=["a-3", "order0", "negative-coeff", "a-1", "a0", "coeff0"],
    )
    def test_derivatives_sum_only_the_rows_of_nonzero_weight(
        self, kummer_calls, a, coeff, order, keys
    ):
        # M(a+k, b+k) is read for k <= order unless its weight
        # coeff a (a+1)...(a+k-1) is exactly 0; a row of weight 0 is not summed
        rows = wavefn._Rows(self.Z[1:])
        out = KummerProfile(coeff=coeff, mu=1, a=a).derivatives(rows, order)
        assert list(rows) == keys and kummer_calls == keys
        assert len(out) == order + 1 and all(np.all(np.isfinite(f)) for f in out)

    def test_values_refuse_a_table_with_an_inf_row(self):
        p, grid = natural_params(), RadialGrid(8.0, 9)
        profile = psi1_profile(QuantumNumbers(0, 0))
        row = np.ones(grid.num_points)
        row[3] = np.inf
        rows = wavefn._Rows(to_dimensionless_z(grid.samples, p), rows={(profile.a, profile.b): row})
        with pytest.raises(ValueError, match="values must be finite at every sample"):
            RadialFunction(grid, profile, p, _rows=rows).values

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_derivatives_read_a_table_as_they_read_its_z(self, order):
        profile = psi1_profile(QuantumNumbers(4, 2))
        rows = wavefn._Rows(self.Z[1:])
        got = profile.derivatives(rows, order)
        want = profile.derivatives(self.Z[1:], order)
        assert [f.tobytes() for f in got] == [f.tobytes() for f in want]
        again = profile.derivatives(rows, order)
        assert [f.tobytes() for f in again] == [f.tobytes() for f in want]

    @IN_BOTH_UNIT_SYSTEMS
    def test_function_table_is_on_the_read_only_grid_z(self, p):
        rf = radial_psi1(QuantumNumbers(2, 1), RadialGrid(3.0, 33), p)
        assert not rf._rows.z.flags.writeable
        want = to_dimensionless_z(rf.grid.samples, p)
        assert rf._rows.z.tobytes() == want.tobytes()
        assert list(rf._rows) == []  # values are sampled when first read
        rf.values
        assert list(rf._rows) == [(-3.0, 2.0)]  # values reads M(a, b) alone

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_lower_component_sums_only_the_rows_psi1_has_not(self, kummer_calls, order):
        # psi1 (n=3, m=1) reads M(-4, 2), M(-3, 3), M(-2, 4) for k <= order;
        # its lower component reads M(-3, 3) and M(-2, 4) from the same table
        p = natural_params()
        psi1 = radial_psi1(QuantumNumbers(3, 1), RadialGrid(4.0, 65), p)
        psi1.interior(order)
        del kummer_calls[:]
        lower = derive_lower_component(psi1, energy(QuantumNumbers(3, 1), p).E)
        lower.interior(1)
        assert lower._rows is psi1._rows
        assert kummer_calls == [(-3.0, 3.0), (-2.0, 4.0)][order:]


class TestRadialFunction:
    def test_profile_is_required(self):
        grid = RadialGrid(2.0, 9)
        with pytest.raises(TypeError):
            RadialFunction(grid=grid, params=natural_params())

    def test_values_are_not_an_input(self):
        p = natural_params()
        grid = RadialGrid(2.0, 9)
        profile = radial_psi1(QuantumNumbers(0, 0), grid, p).profile
        with pytest.raises(TypeError):
            RadialFunction(grid=grid, profile=profile, params=p, values=np.ones(9))
        # nor are Kummer terms: a fourth positional argument is refused
        with pytest.raises(TypeError):
            RadialFunction(grid, profile, p, (np.ones(9),))
        rf = RadialFunction(grid, profile, p)
        with pytest.raises(FrozenInstanceError):
            rf.values = np.ones(9)

    @IN_BOTH_UNIT_SYSTEMS
    def test_values_are_the_profile_on_the_grid(self, p):
        # psi1, the psi2 ansatz and the derived lower component all sample
        # their own profile, bit for bit, in their own units
        grid = default_grid(QuantumNumbers(2, 1), p, num_points=257)
        z = to_dimensionless_z(grid.samples, p)
        qn = QuantumNumbers(2, 1)
        upper = radial_psi1(qn, grid, p)
        lower = derive_lower_component(upper, energy(qn, p).E)
        for rf in (upper, radial_psi2(qn, grid, p), lower):
            assert rf.params is p and rf.grid is grid
            assert np.array_equal(rf.values, rf.profile.value_z(z))
            assert not rf.values.flags.writeable
            with pytest.raises(ValueError):
                rf.values[0] = 1.0

    @pytest.mark.parametrize("n, m", [(0, 0), (1, 0), (4, 3), (20, 3)])
    def test_values_read_from_a_ladder_are_bit_identical(self, n, m):
        # the values read the first Kummer term the function sums on its
        # grid: they are the floats of value_z, and summing the higher terms
        # for interior(2) leaves them as they were
        p = natural_params()
        qn = QuantumNumbers(n, m)
        grid = default_grid(qn, p)
        z = to_dimensionless_z(grid.samples, p)
        rf = radial_psi1(qn, grid, p)
        assert rf.profile == psi1_profile(qn)
        before = rf.values.copy()
        rf.interior(2)
        assert np.array_equal(rf.values.view(np.int64), before.view(np.int64))
        read = rf.profile.value_z(z)
        assert np.array_equal(read.view(np.int64), rf.values.view(np.int64))

    @IN_BOTH_UNIT_SYSTEMS
    def test_ladder_on_the_grid_sliced_to_the_interior_is_bit_identical(
        self, p, monkeypatch
    ):
        # interior(2) sums each term M(a+k, b+k) once on the whole grid and
        # slices the interior; Kummer terms are elementwise, so the slice
        # gives the floats of terms summed at the interior.  The n = 0 term
        # k = 2 has weight zero and is never summed.
        grid = RadialGrid(12.0 * p.oscillator_length, 4097)
        z = to_dimensionless_z(grid.samples, p)
        inner_z = to_dimensionless_z(grid.samples[1:-1], p)
        assert np.array_equal(z[1:-1], inner_z)
        kummer_m, calls = wavefn.kummer_m, []
        monkeypatch.setattr(wavefn, "kummer_m", lambda *a: calls.append(a) or kummer_m(*a))
        for n, m in [(0, 0), (0, 3), (5, 0), (20, 3)]:
            calls.clear()
            rf = radial_psi1(QuantumNumbers(n, m), grid, p)
            rf.interior(2)
            a, b = rf.profile.a, rf.profile.b
            shifts = [(a + k, b + k) for k in range(2 if n == 0 else 3)]
            assert [call[:2] for call in calls] == shifts
            for shift_a, shift_b, where in calls:
                assert np.array_equal(where, z)
                whole = kummer_m(shift_a, shift_b, z)[1:-1]
                part = kummer_m(shift_a, shift_b, inner_z)
                assert np.array_equal(whole.view(np.int64), part.view(np.int64))

    def test_order_above_two_is_refused_before_any_term_is_summed(self, monkeypatch):
        # an order derivatives refuses sums no grid term M(a+k, b+k) first,
        # so interior(2) then sums its three terms, as on a fresh function,
        # and the floats are a fresh function's
        p = natural_params()
        qn = QuantumNumbers(5, 1)
        rf = radial_psi1(qn, default_grid(qn, p), p)
        kummer_m, calls = wavefn.kummer_m, []
        monkeypatch.setattr(wavefn, "kummer_m", lambda *a: calls.append(a) or kummer_m(*a))
        with pytest.raises(ValueError, match="order must be 0, 1 or 2, got 3"):
            rf.interior(3)
        assert calls == []
        _, got = rf.interior(2)
        assert [call[:2] for call in calls] == [(-6.0, 2.0), (-5.0, 3.0), (-4.0, 4.0)]
        _, want = radial_psi1(qn, default_grid(qn, p), p).interior(2)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    @IN_BOTH_UNIT_SYSTEMS
    def test_interior_is_the_profile_at_the_interior_radii(self, p):
        # interior(order) slices the grid terms summed so far and sums the
        # ones it lacks; whichever order comes first, it gives the floats of
        # profile.derivatives at the interior z, for psi1, the psi2 ansatz
        # and the lower component derived after psi1's first request
        grid = RadialGrid(12.0 * p.oscillator_length, 1025)
        z = to_dimensionless_z(grid.samples, p)
        for n, m in [(0, 0), (3, 2)]:
            qn = QuantumNumbers(n, m)
            E = energy(qn, p).E
            for orders in itertools.permutations((0, 1, 2)):
                psi1 = radial_psi1(qn, grid, p)
                psi1.interior(orders[0])
                functions = [psi1, radial_psi2(qn, grid, p)]
                functions.append(derive_lower_component(psi1, E))
                for rf in functions:
                    for order in orders:
                        rho, got = rf.interior(order)
                        assert np.array_equal(rho, grid.samples[1:-1])
                        want = rf.profile.derivatives(z[1:-1], order)
                        assert len(got) == len(want) == order + 1
                        for g, w in zip(got, want):
                            assert np.array_equal(g.view(np.int64), w.view(np.int64))
        for order in (-1, 3):
            with pytest.raises(ValueError, match="order"):
                psi1.interior(order)

    @pytest.mark.parametrize("n, m", [(0, 0), (3, 2)])
    def test_lower_orders_read_the_samples_formed_and_are_read_only(self, n, m):
        # the function keeps the grid samples of the highest order it formed;
        # f and f' read from interior(2) slice them, and are the floats a
        # fresh interior(1) forms
        p = natural_params()
        qn = QuantumNumbers(n, m)
        grid = default_grid(qn, p, num_points=1025)
        rf = radial_psi1(qn, grid, p)
        _, second = rf.interior(2)
        rho, first = rf.interior(1)
        _, fresh = radial_psi1(qn, grid, p).interior(1)
        assert len(first) == 2
        for got, want, kept in zip(first, fresh, second):
            assert np.shares_memory(got, kept)
            assert got.tobytes() == want.tobytes()
        for samples in (rho, *second, *fresh):
            assert not samples.flags.writeable
            with pytest.raises(ValueError):
                samples[0] = 1.0

    def test_facts_read_from_profile(self):
        # b = mu + 1 and the angular index is mu, for psi1 (index m), the
        # psi2 ansatz (index m) and the derived lower component (index m+1)
        p = natural_params()
        grid = RadialGrid(8.0, 33)
        for n, m in [(0, 0), (2, 1), (3, 4)]:
            qn = QuantumNumbers(n, m)
            upper = radial_psi1(qn, grid, p)
            lower = derive_lower_component(upper, energy(qn, p).E)
            ansatz = radial_psi2(qn, grid, p)
            for rf, index in [(upper, m), (ansatz, m), (lower, m + 1)]:
                assert rf.angular_index == rf.profile.mu == index
                assert rf.profile.b == rf.profile.mu + 1.0
            assert (lower.profile.a, lower.profile.b) == (
                upper.profile.a + 1.0,
                upper.profile.b + 1.0,
            )
        with pytest.raises(AttributeError):
            upper.angular_index = 7


class TestRadialPsi1:
    def test_ground_state_shape(self):
        p = natural_params()
        grid = RadialGrid(6.0, 257)
        rf = radial_psi1(QuantumNumbers(0, 0), grid, p)
        z = grid.samples**2
        assert_allclose(rf.values, np.exp(-z / 2.0) * (1.0 - z), rtol=0, atol=1e-15)

    def test_value_at_origin(self):
        p = natural_params()
        rf = radial_psi1(QuantumNumbers(0, 0), RadialGrid(6.0, 257), p)
        assert rf.values[0] == 1.0

    def test_root_at_oscillator_length(self):
        # z = 1 at rho = b, where 1 - z vanishes
        p = natural_params()
        grid = RadialGrid(2.0, 9)  # rho = b is the sample at index 4
        rf = radial_psi1(QuantumNumbers(0, 0), grid, p)
        assert abs(rf.values[4]) <= 1e-15

    def test_angular_index_metadata(self):
        p = natural_params()
        qn = QuantumNumbers(2, 3)
        rf = radial_psi1(qn, default_grid(qn, p), p)
        assert rf.angular_index == 3
        assert rf.profile.mu == 3


class TestPsi1Family:
    """``verify``'s states, stacked as rows, whose Kummer rows come from one recurrence pass."""

    @staticmethod
    def _blocks(m, n_max, grid, p):
        """(states, function, E column) per function of the family, in order."""
        out, n = [], 0
        for rf in wavefn._psi1_family(m, n_max, grid, p):
            ns = list(range(n, n + len(rf.profile.a)))
            out.append((ns, rf, np.array([[energy(QuantumNumbers(k, m), p).E] for k in ns])))
            n += len(ns)
        assert n == n_max + 1
        return out

    @staticmethod
    def _verify_reads(rf, E):
        """The floats verify reads: psi1's values and [f, f', f''], the lower [g, g']."""
        return [rf.values, *rf.interior(2)[1], *derive_lower_component(rf, E).interior(1)[1]]

    @IN_BOTH_UNIT_SYSTEMS
    @pytest.mark.parametrize("m", [0, 3, 10])
    @pytest.mark.parametrize(
        "points, sizes", [(257, [21]), (1025, [7] * 3), (4097, [1] * 21)], ids=["257", "1025", "4097"]
    )
    def test_each_row_equals_radial_psi1_bit_for_bit(self, m, p, points, sizes, kummer_calls):
        # each state, read as verify reads it, gives its standalone floats, in
        # blocks of 2**13 // points states; the family sums no row with
        # kummer_m, so none of weight zero
        grid = default_grid(QuantumNumbers(20, m), p, num_points=points)
        blocks = self._blocks(m, 20, grid, p)
        assert [len(ns) for ns, _, _ in blocks] == sizes
        got = [(ns, rf, self._verify_reads(rf, E)) for ns, rf, E in blocks]
        assert kummer_calls == []
        for ns, rf, floats in got:
            assert rf.profile.mu == m
            for row, n in enumerate(ns):
                qn = QuantumNumbers(n, m)
                alone = radial_psi1(qn, grid, p)
                assert (rf.profile.coeff[row, 0], rf.profile.a[row, 0]) == (1.0, -(n + 1.0))
                want = self._verify_reads(alone, energy(qn, p).E)
                assert [x[row].tobytes() for x in floats] == [y.tobytes() for y in want], n

    @pytest.mark.parametrize("m", [0, 3])
    def test_each_table_holds_exactly_its_states_rows(self, m, monkeypatch):
        # a block holds M(-(n+1)+k, m+1+k), k <= 2, for its states n, as
        # (states, z) rows keyed by the tuple of the a + k; k = 2 is left
        # out of a block of n = 0 alone, where its weight is 0, and reads
        # zeros at n = 0 in any other; verify's reads add none
        monkeypatch.setattr(wavefn, "_FAMILY_BLOCK", 257 * 4)
        p = natural_params()
        blocks = self._blocks(m, 20, default_grid(QuantumNumbers(20, m), p, num_points=257), p)
        assert [len(ns) for ns, _, _ in blocks] == [4] * 5 + [1]
        for ns, rf, E in blocks:
            shifts = range(3 if ns[-1] else 2)
            own = [(tuple(-(n + 1.0) + k for n in ns), m + 1.0 + k) for k in shifts]
            assert list(rf._rows) == own, ns
            assert all(rows.shape == (len(ns), 257) for rows in rf._rows.values())
            if ns[0] == 0 and ns[-1]:
                assert not np.any(rf._rows[own[2]][0])
            self._verify_reads(rf, E)
            assert list(rf._rows) == own, ns

    @pytest.mark.parametrize("on", ["grid", "nodes"])
    @pytest.mark.parametrize("m", [0, 3])
    def test_held_rows_are_kummer_m_rows_bit_for_bit(self, m, on):
        # verify's kummer-laguerre check reads these rows; verify streams the
        # family on the trapezoid nodes, not on a RadialGrid
        p = natural_params()
        grid = default_grid(QuantumNumbers(20, m), p, num_points=257)
        if on == "nodes":
            grid = oracle.trapezoid_nodes(m, 20, p.oscillator_length)
        z = to_dimensionless_z(grid.samples, p)
        for ns, rf, _ in self._blocks(m, 20, grid, p):
            assert not rf._rows.z.flags.writeable
            assert rf._rows.z.tobytes() == z.tobytes()
            for (a, b), rows in rf._rows.items():
                for row, x in zip(rows, a):
                    want = wavefn.kummer_m(x, b, z) if x <= 0.0 else np.zeros_like(z)
                    assert row.tobytes() == want.tobytes(), (ns, x, b)

    @pytest.mark.parametrize("m", [0, 3])
    def test_blocks_read_late_sum_no_row_and_keep_their_floats(self, m, monkeypatch, kummer_calls):
        # blocks read after the pass has moved on, as a list holds them, give
        # the floats of blocks read as they are drawn; the stream steps in
        # place, and what a block holds stays as it was once the family is done
        monkeypatch.setattr(wavefn, "_FAMILY_BLOCK", 257 * 3)
        p = natural_params()
        grid = default_grid(QuantumNumbers(20, m), p, num_points=257)
        streamed = []
        for ns, rf, E in self._blocks(m, 20, grid, p):
            streamed.append([x.tobytes() for x in self._verify_reads(rf, E)])
        held = self._blocks(m, 20, grid, p)
        tables = [{key: row.tobytes() for key, row in rf._rows.items()} for _, rf, _ in held]
        assert [[x.tobytes() for x in self._verify_reads(rf, E)] for _, rf, E in held] == streamed
        assert [{key: row.tobytes() for key, row in rf._rows.items()} for _, rf, _ in held] == tables
        assert kummer_calls == []

    @pytest.mark.parametrize("block, sizes", [(2**13, [21]), (257 * 5, [5] * 4 + [1]), (1, [1] * 21)])
    def test_one_stream_of_n_max_plus_one_steps_whatever_the_blocks(self, block, sizes, monkeypatch):
        streams, steps = [], []
        rows, step = wavefn._degree_rows, specfun._degree_step
        monkeypatch.setattr(wavefn, "_FAMILY_BLOCK", block)
        monkeypatch.setattr(wavefn, "_degree_rows", lambda *a: streams.append(a) or rows(*a))
        monkeypatch.setattr(specfun, "_degree_step", lambda *a: steps.append(a) or step(*a))
        p = natural_params()
        blocks = self._blocks(3, 20, default_grid(QuantumNumbers(20, 3), p, num_points=257), p)
        assert [len(ns) for ns, _, _ in blocks] == sizes
        assert len(streams) == 1 and len(steps) == 21

    def test_n_max_zero_yields_the_ground_state_alone(self):
        p = natural_params()
        grid = default_grid(QuantumNumbers(0, 2), p, num_points=257)
        (rf,) = wavefn._psi1_family(2, 0, grid, p)
        alone = radial_psi1(QuantumNumbers(0, 2), grid, p)
        assert (rf.profile.coeff.tolist(), rf.profile.mu, rf.profile.a.tolist()) == (
            [[1.0]], 2, [[-1.0]]
        )
        assert list(rf._rows) == [((-1.0,), 3.0), ((0.0,), 4.0)]
        assert rf.values.shape == (1, 257)
        assert rf.values[0].tobytes() == alone.values.tobytes()

    READS = ["values", "interior 0", "interior 1", "interior 2", "lower values", "lower 0", "lower 1"]

    @staticmethod
    def _read(psi1, reads, E):
        """The floats that ``reads`` read, in order, and the live keys they read.

        Every read forms the factors of z it needs at its first read on the
        table, so the reads cover every order in which they are formed:
        the lower component's values before psi1's among them.
        """
        floats, keys, lower = [], [], None
        for read in reads:
            rf = psi1
            if read.startswith("lower"):
                rf = lower = lower or derive_lower_component(psi1, E)
            order = int(read[-1]) if read[-1].isdigit() else None
            floats += [rf.values] if order is None else rf.interior(order)[1]
            keys += rf.profile._keys(order or 0)
        return floats, list(dict.fromkeys(keys))

    @IN_BOTH_UNIT_SYSTEMS
    @settings(deadline=None)
    @given(n=st.integers(0, 20), m=st.integers(0, 10), reads=st.lists(st.sampled_from(READS)))
    def test_shared_rows_read_in_any_order(self, p, n, m, reads):
        # a family state and its standalone twin give the same floats for
        # any order of reads, of rows and of the factors of z, and each read
        # gives the floats it gives first on a fresh function; the
        # standalone table sums each live key read once, the family's none
        grid = default_grid(QuantumNumbers(n, m), p, num_points=257)
        (ns, state, E), = self._blocks(m, n, grid, p)
        kummer_m, calls = wavefn.kummer_m, []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wavefn, "kummer_m", lambda *a: calls.append(a[:2]) or kummer_m(*a))
            family = [x[n].tobytes() for x in self._read(state, reads, E)[0]]
            assert calls == []
            qn = QuantumNumbers(n, m)
            alone, keys = self._read(radial_psi1(qn, grid, p), reads, E[n, 0])
        assert family == [x.tobytes() for x in alone]
        assert calls == keys
        fresh = [self._read(radial_psi1(qn, grid, p), [read], E[n, 0])[0] for read in reads]
        assert family == [x.tobytes() for floats in fresh for x in floats]

    @IN_BOTH_UNIT_SYSTEMS
    @settings(deadline=None)
    @given(n=st.integers(0, 20), m=st.integers(0, 10), half=st.integers(32, 2048))
    def test_interior_samples_are_the_grid_samples_sliced(self, p, n, m, half):
        # a family block and its lower component each sample their profile
        # once on the whole grid, and the interior samples slice that: each
        # row is the floats its state's profile forms afresh at the interior
        # z, and the values those it forms on the grid
        grid = default_grid(QuantumNumbers(n, m), p, num_points=2 * half + 1)
        z = to_dimensionless_z(grid.samples, p)
        *_, (ns, state, E) = self._blocks(m, n, grid, p)
        lower = derive_lower_component(state, E)
        assert ns[-1] == n
        for row, k in enumerate(ns):
            alone = radial_psi1(QuantumNumbers(k, m), grid, p)
            alone_lower = derive_lower_component(alone, E[row, 0])
            for rf, own, order in [(state, alone, 2), (lower, alone_lower, 1)]:
                rho, got = rf.interior(order)
                assert rho.tobytes() == grid.samples[1:-1].tobytes()
                want = own.profile.derivatives(z[1:-1], order)
                assert [f[row].tobytes() for f in got] == [f.tobytes() for f in want]
                assert rf.values[row].tobytes() == own.profile.value_z(z).tobytes()


class TestRadialPsi2:
    def test_nodeless_ground_state(self):
        p = natural_params()
        grid = RadialGrid(6.0, 257)
        rf = radial_psi2(QuantumNumbers(0, 0), grid, p)
        assert_allclose(rf.values, np.exp(-grid.samples**2 / 2.0), rtol=0, atol=1e-15)
        assert np.all(rf.values > 0.0)

    def test_root_at_unit_z(self):
        p = natural_params()
        grid = RadialGrid(2.0, 9)
        rf = radial_psi2(QuantumNumbers(1, 0), grid, p)
        assert abs(rf.values[4]) <= 1e-15  # M(-1, 1, 1) = 0

    def test_against_laguerre_profile(self):
        # exp(-z/2) sqrt(z) L_2^{(1)}(z) / binom(3, 2) with the explicit
        # L_2^{(1)}(z) = (z^2 - 6z + 6) / 2, and the exact rational table
        p = natural_params()
        grid = RadialGrid(7.0, 513)
        rf = radial_psi2(QuantumNumbers(2, 1), grid, p)
        z = grid.samples**2
        envelope = np.exp(-z / 2.0) * np.sqrt(z)
        expected = envelope * (z * z - 6.0 * z + 6.0) / 6.0
        assert_allclose(rf.values, expected, rtol=0, atol=1e-14)
        exact = oracle._laguerre_table(2, [1], z[::8])[2, 0]
        assert_allclose(rf.values[::8], envelope[::8] * exact, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("m", [0, 3])
    def test_ansatz_is_psi1_one_state_down(self, m):
        # verify counts the ansatz nodes of state n on psi1's values at n-1
        p = natural_params()
        grid = RadialGrid(12.0 * p.oscillator_length, 4097)
        for n in range(1, 21):
            ansatz = radial_psi2(QuantumNumbers(n, m), grid, p)
            below = radial_psi1(QuantumNumbers(n - 1, m), grid, p)
            assert ansatz.profile == below.profile
            assert np.array_equal(ansatz.values.view(np.int64), below.values.view(np.int64))


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


class TestNormalize:
    def test_matches_closed_form_constant(self):
        p = natural_params()
        grid = RadialGrid(8.0, 4097)
        A = normalize(radial_psi1(QuantumNumbers(0, 0), grid, p))
        assert_allclose(A, closed_form_A(0, 0, 1.0), rtol=1e-9)

    def test_closed_form_sweep(self):
        p = PhysicalParams(rest_mass=2.0, omega=0.5)
        b = p.oscillator_length
        grid = RadialGrid(12.0 * p.oscillator_length, 4097)
        for n in range(4):
            for m in range(3):
                A = normalize(radial_psi1(QuantumNumbers(n, m), grid, p))
                assert_allclose(A, closed_form_A(n, m, b), rtol=1e-8)

    def test_norm_integral_is_one(self):
        p = natural_params()
        grid = default_grid(QuantumNumbers(1, 1), p)
        rf = radial_psi1(QuantumNumbers(1, 1), grid, p)
        weight = 2.0 * math.pi * (normalize(rf) * rf.values) ** 2 * grid.samples
        assert_allclose(integrate_radial(weight, grid), 1.0, rtol=1e-12)

    def test_doubling_values_halves_constant(self):
        p = natural_params()
        grid = default_grid(QuantumNumbers(0, 0), p)
        rf = radial_psi1(QuantumNumbers(0, 0), grid, p)
        doubled = RadialFunction(grid, replace(rf.profile, coeff=2.0), p)
        assert_allclose(normalize(doubled), 0.5 * normalize(rf), rtol=1e-14)

    def test_idempotent(self):
        # normalize is pure: the same A every time, the function unchanged
        p = natural_params()
        grid = default_grid(QuantumNumbers(2, 0), p)
        rf = radial_psi1(QuantumNumbers(2, 0), grid, p)
        before = rf.values.copy()
        first = normalize(rf)
        assert isinstance(first, float)
        assert normalize(rf) == first
        assert np.array_equal(rf.values, before)

    def test_rejects_zero_function(self):
        grid = RadialGrid(2.0, 9)
        rf = radial_psi1(QuantumNumbers(0, 0), grid, natural_params())
        rf = RadialFunction(grid, replace(rf.profile, coeff=0.0), rf.params)
        with pytest.raises(ValueError, match="identically zero"):
            normalize(rf)

    @pytest.mark.parametrize(
        "grid, message",
        [
            (
                RadialGrid(1e-160, 4097),
                "z**(mu/2) underflows to 0 at every sample: the grid ends too near the origin",
            ),
            (
                RadialGrid(1e5, 65),
                "exp(-z/2) underflows to 0 past the first sample: the grid is too coarse",
            ),
        ],
    )
    def test_a_profile_that_underflows_at_every_sample_names_its_factor(self, grid, message):
        # both read "identically zero", although the profile is not: z**(3/2)
        # underflows on the short grid, exp(-z/2) past the origin of the long one
        rf = radial_psi1(QuantumNumbers(0, 3), grid, natural_params())
        with pytest.raises(ValueError) as err:
            normalize(rf)
        assert str(err.value) == message

    def test_truncation_error_on_short_grid(self):
        p = natural_params()
        grid = RadialGrid(2.5, 257)
        with pytest.raises(TruncationError):
            normalize(radial_psi1(QuantumNumbers(0, 0), grid, p))

    @pytest.mark.parametrize("coeff", [1e300, 1e-300])
    def test_norm_integral_outside_float64_is_rescaled(self, coeff):
        # the plain integral overflows to inf (A read 0) or underflows to 0
        p = natural_params()
        grid = default_grid(QuantumNumbers(3, 2), p)
        rf = radial_psi1(QuantumNumbers(3, 2), grid, p)
        scaled = RadialFunction(grid, replace(rf.profile, coeff=coeff), p)
        assert_allclose(normalize(scaled) * coeff, normalize(rf), rtol=1e-13)

    def test_truncation_is_seen_in_rescaled_units(self):
        p = natural_params()
        rf = radial_psi1(QuantumNumbers(0, 0), RadialGrid(2.5, 257), p)
        scaled = RadialFunction(rf.grid, replace(rf.profile, coeff=1e300), p)
        with pytest.raises(TruncationError, match="enlarge the grid"):
            normalize(scaled)

    def test_constant_outside_float64_is_refused(self):
        p = natural_params()
        qn = QuantumNumbers(0, 0)
        rf = radial_psi1(qn, default_grid(qn, p), p)
        tiny = RadialFunction(rf.grid, replace(rf.profile, coeff=5e-324), p)
        with pytest.raises(ValueError, match="leaves float64"):
            normalize(tiny)

    @pytest.mark.parametrize("units", ["natural", "si"])
    def test_scaled_integral_is_the_plain_one_bit_for_bit(self, units):
        # the parts and rho are divided by powers of two, which is exact
        p = RunConfig(command="verify", units=units).params()
        grid = RadialGrid(12.0 * p.oscillator_length, 4097)

        def square(rho, v):
            return 2.0 * math.pi * np.abs(v) ** 2 * rho

        for m in range(6):
            for rf in (radial_psi1(QuantumNumbers(n, m), grid, p) for n in range(21)):
                plain = integrate_radial(square(grid.samples, rf.values), grid)
                _, total, _, unit = wavefn._norm_integral(
                    square, integrate_radial, grid, rf.values
                )
                assert total * unit * unit == plain
                assert normalize(rf) == 1.0 / math.sqrt(plain)

    @settings(deadline=None, derandomize=True)  # examples from the profile
    @given(n=st.integers(0, 20), m=st.integers(0, 10), k=st.integers(-1000, 1000))
    def test_power_of_two_scales_the_constant_exactly(self, n, m, k):
        # dividing by the peak instead rounds: the constant moved by a few
        # ulps wherever the plain integral left float64
        p = natural_params()
        qn = QuantumNumbers(n, m)
        rf = radial_psi1(qn, default_grid(qn, p), p)
        with np.errstate(over="ignore"):
            expected = np.ldexp(rf.values, k)
        assume(np.array_equal(np.ldexp(expected, -k), rf.values))
        scaled = RadialFunction(rf.grid, replace(rf.profile, coeff=math.ldexp(1.0, k)), p)
        assume(np.array_equal(scaled.values.view(np.int64), expected.view(np.int64)))
        constants = []
        for f in (rf, scaled):
            try:
                constants.append(normalize(f))
            except ValueError:  # TruncationError too: both calls must refuse
                constants.append(None)
        plain, got = constants
        if plain is None:
            assert got is None
        else:
            assert got == math.ldexp(plain, -k)


class TestClosedFormNormConstant:
    """A = 1 / sqrt(pi b^2 (n+1)! (m!)^2 / (n+m+1)!), the ratio rounded once."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n=st.integers(0, 400),
        m=st.integers(0, 60),
        units=st.sampled_from(["natural", "si"]),
    )
    def test_exact_ratio_rounded_once(self, n, m, units):
        p = RunConfig(command="verify", units=units).params()
        b = p.oscillator_length
        exact = Fraction(
            math.factorial(n + 1) * math.factorial(m) ** 2, math.factorial(n + m + 1)
        )
        expected = 1.0 / math.sqrt(math.pi * b * b * float(exact))
        assert closed_form_norm_constant(QuantumNumbers(n, m), p) == expected

    @IN_BOTH_UNIT_SYSTEMS
    @pytest.mark.parametrize("n", [169, 170, 10**5, 10**306])
    def test_large_n_at_m_zero(self, p, n):
        # the factorials cancel to 1; (n+1)! alone left float64 from n = 170,
        # and at 10**306 lgamma overflows and the exact ratio decides
        b = p.oscillator_length
        got = closed_form_norm_constant(QuantumNumbers(n, 0), p)
        assert got == 1.0 / math.sqrt(math.pi * b * b)

    @pytest.mark.parametrize("n, m", [(0, 400), (10**7, 100), (0, 172)])
    def test_ratio_outside_float64_is_refused(self, n, m):
        # (0, 400) overflows, (10**7, 100) underflows; 172!/173, about
        # e^711.7, passes the log-gamma guard and overflows in the division
        with pytest.raises(ValueError, match=f"n={n}, m={m}"):
            closed_form_norm_constant(QuantumNumbers(n, m), natural_params())

    @pytest.mark.parametrize("n, m", [(0, 10**6), (10**6, 10**6), (10**7, 2000)])
    def test_far_outside_float64_is_refused_before_any_factorial(self, n, m, monkeypatch):
        # (0, 10**6) took 11.9 s to form m! and then refuse it
        def factorial(k):
            raise AssertionError(f"{k}! was formed")

        monkeypatch.setattr(math, "factorial", factorial)
        with pytest.raises(ValueError, match=f"n={n}, m={m} leaves float64"):
            closed_form_norm_constant(QuantumNumbers(n, m), natural_params())


class TestDeriveLowerComponent:
    def test_ground_state_symbolic_shape(self):
        # for (n=0, m=0): (hbar c/(E + mc^2)) * (-2) sqrt(gamma) exp(-z/2) sqrt(z)
        p = natural_params()
        grid = RadialGrid(8.0, 513)
        qn = QuantumNumbers(0, 0)
        level = energy(qn, p)
        lower = derive_lower_component(radial_psi1(qn, grid, p), level.E)
        z = grid.samples**2
        expected = -2.0 / (level.E + 1.0) * np.exp(-z / 2.0) * np.sqrt(z)
        assert_allclose(lower.values, expected, rtol=0, atol=1e-15)
        assert lower.angular_index == 1

    def test_matches_finite_difference_operator(self):
        # independent route: apply R' - (m/rho) R + gamma rho R with numerical
        # derivatives of the sampled upper component
        p = natural_params()
        grid = RadialGrid(10.0, 8193)
        qn = QuantumNumbers(1, 1)
        level = energy(qn, p)
        upper = radial_psi1(qn, grid, p)
        lower = derive_lower_component(upper, level.E)

        rho = grid.samples[1:-1]
        r_prime = np.gradient(upper.values, grid.spacing, edge_order=2)[1:-1]
        bracket = r_prime - upper.values[1:-1] / rho + rho * upper.values[1:-1]
        fd = bracket / (level.E + 1.0)
        # agreement is limited by the second-order numerical derivative
        assert_allclose(lower.values[1:-1], fd, rtol=0, atol=2e-6)

    def test_zero_input_gives_zero_output(self):
        p = natural_params()
        grid = RadialGrid(8.0, 257)
        rf = radial_psi1(QuantumNumbers(0, 0), grid, p)
        zero = RadialFunction(grid, replace(rf.profile, coeff=0.0), p)
        lower = derive_lower_component(zero, 2.0)
        assert np.all(lower.values == 0.0)

    def test_a_zero_profile_gives_zero_whatever_its_ladder(self):
        # the n = 0 psi2 ansatz has a = 0, so the weight a/b is exactly 0;
        # whatever terms the ansatz has summed when it is derived, the lower
        # component sums no non-terminating series and is zero
        p = natural_params()
        grid = RadialGrid(12.0, 33)
        lowers = []
        for order in (None, 0, 1, 2):
            ansatz = radial_psi2(QuantumNumbers(0, 1), grid, p)
            if order is not None:
                ansatz.interior(order)
            lowers.append(derive_lower_component(ansatz, 2.0))
        for lower in lowers:
            assert not np.any(lower.values)
            assert not np.any(lower.interior(2)[1])

    def test_linearity_in_scale(self):
        p = natural_params()
        grid = RadialGrid(8.0, 257)
        qn = QuantumNumbers(1, 0)
        level = energy(qn, p)
        rf = radial_psi1(qn, grid, p)
        scaled = RadialFunction(grid, replace(rf.profile, coeff=3.0), p)
        base = derive_lower_component(rf, level.E)
        tripled = derive_lower_component(scaled, level.E)
        assert_allclose(tripled.values, 3.0 * base.values, rtol=1e-14)

    def test_rejects_nonpositive_total_energy(self):
        p = natural_params()
        rf = radial_psi1(QuantumNumbers(0, 0), RadialGrid(8.0, 257), p)
        for E in (-2.0, math.nan):
            with pytest.raises(ValueError, match="E \\+ m0 c\\^2"):
                derive_lower_component(rf, E)

    def test_profile_is_the_derived_components_profile(self):
        # mu -> m+1, a -> a+1 and coeff 2 sqrt(gamma) (a/b) hbar c / (E + m0 c^2),
        # whether or not psi1 has summed the terms the lower component reads
        p = natural_params()
        grid = RadialGrid(8.0, 257)
        for n, m in [(0, 0), (2, 1), (5, 3)]:
            qn = QuantumNumbers(n, m)
            rf = radial_psi1(qn, grid, p)
            read = radial_psi1(qn, grid, p)
            read.interior(2)
            E = energy(qn, p).E
            lower = derive_lower_component(rf, E)
            coeff = 2.0 * (-(n + 1.0) / (m + 1.0)) / (E + 1.0)
            assert lower.profile == KummerProfile(coeff=coeff, mu=m + 1, a=-float(n))
            assert derive_lower_component(read, E).profile == lower.profile

    def test_psi1_with_its_ladder_hands_it_on_without_kummer_calls(self, monkeypatch):
        # a psi1 that holds M(a+1, b+1) on its grid hands it on and the
        # lower component's values sum nothing; one that holds M(a, b) alone
        # leaves the lower component its first term to sum.  The floats agree.
        p = natural_params()
        grid = RadialGrid(8.0, 257)
        calls = []
        kummer_m = wavefn.kummer_m
        monkeypatch.setattr(wavefn, "kummer_m", lambda *a: calls.append(a) or kummer_m(*a))
        for n, m in [(0, 0), (4, 2)]:
            qn = QuantumNumbers(n, m)
            E = energy(qn, p).E
            for order in (0, 1, 2):
                psi1 = radial_psi1(qn, grid, p)
                psi1.interior(order)
                calls.clear()
                lower = derive_lower_component(psi1, E)
                assert calls == []  # values are sampled when first read
                lower.values
                assert len(calls) == (order == 0), (n, m, order)
                own = derive_lower_component(radial_psi1(qn, grid, p), E)
                assert np.array_equal(lower.values.view(np.int64), own.values.view(np.int64))

    def test_requires_profile_metadata(self):
        # mu, b and a of the lower component come from psi1's profile, so a
        # function without one is refused at construction
        p = natural_params()
        grid = RadialGrid(8.0, 257)
        with pytest.raises(TypeError):
            bare = RadialFunction(grid=grid, params=p)
            derive_lower_component(bare, 2.0)

    def test_satisfies_lower_radial_equation(self):
        # the derived profile solves the second-order equation with angular
        # index m+1 and eigenvalue k1 - 2
        p = natural_params()
        grid = RadialGrid(12.0 * p.oscillator_length, 4097)
        for n in range(3):
            for m in range(3):
                qn = QuantumNumbers(n, m)
                level = energy(qn, p)
                lower = derive_lower_component(radial_psi1(qn, grid, p), level.E)
                report = ode_residual(lower, m + 1, level.k1 - 2.0)
                assert report.rms_residual <= 1e-8, (n, m)

    def test_angular_index_hypotheses(self):
        # derived shape matches the lower-component ansatz read with angular
        # index m+1, and does not match it read with index m
        p = natural_params()
        grid = RadialGrid(12.0 * p.oscillator_length, 4097)
        for n, m in [(0, 0), (2, 1), (3, 2)]:
            qn = QuantumNumbers(n, m)
            level = energy(qn, p)
            derived = derive_lower_component(radial_psi1(qn, grid, p), level.E)
            shifted = radial_psi2(QuantumNumbers(n, m + 1), grid, p)
            literal = radial_psi2(qn, grid, p)

            def ratio_spread(num, den):
                keep = np.abs(den) > 1e-6 * np.max(np.abs(den))
                ratios = num[keep] / den[keep]
                return float(np.ptp(ratios) / np.max(np.abs(ratios)))

            assert ratio_spread(derived.values, shifted.values) <= 1e-10
            assert ratio_spread(derived.values, literal.values) > 1e-2


class TestSpinorSample:
    def test_real_positive_at_origin(self):
        p = natural_params()
        qn = QuantumNumbers(0, 0)
        sample = spinor_sample(qn, 0.0, 0.0, energy(qn, p).E, p)
        assert sample.psi1.imag == 0.0
        assert sample.psi1.real > 0.0
        assert sample.psi2 == 0.0

    def test_magnitudes_independent_of_phi(self):
        p = natural_params()
        qn = QuantumNumbers(1, 2)
        e = energy(qn, p).E
        reference = spinor_sample(qn, 1.3, 0.0, e, p)
        for phi in (0.7, 2.0, 5.5):
            sample = spinor_sample(qn, 1.3, phi, e, p)
            assert_allclose(abs(sample.psi1), abs(reference.psi1), rtol=1e-13)
            assert_allclose(abs(sample.psi2), abs(reference.psi2), rtol=1e-13)

    @pytest.mark.parametrize(
        "phi, folded",
        [(9.0, 9.0 - 2.0 * math.pi), (-1e-300, 0.0), (-1e-20, 0.0), (-5e-324, 0.0),
         (-0.0, 0.0), (2.0 * math.pi, 0.0)],
    )
    def test_phi_folded_into_principal_range(self, phi, folded):
        # a tiny negative phi % 2pi rounds up to 2pi, which is read as 0.0
        p = natural_params()
        qn = QuantumNumbers(0, 0)
        sample = spinor_sample(qn, 1.0, phi, energy(qn, p).E, p)
        assert 0.0 <= sample.phi < 2.0 * math.pi
        assert sample.phi == folded and math.copysign(1.0, sample.phi) == 1.0

    def test_nonfinite_phi_or_negative_rho_is_refused(self):
        # phi = nan gave psi1 = nan+nanj and phi = inf a "math domain error"
        p = natural_params()
        qn = QuantumNumbers(1, 0)
        for rho, phi in [(1.0, math.nan), (1.0, math.inf), (1.0, -math.inf), (-1.0, 0.0)]:
            with pytest.raises(ValueError, match="rho must be >= 0 and phi finite"):
                spinor_sample(qn, rho, phi, energy(qn, p).E, p)

    def test_radius_where_the_series_overflows_is_refused(self):
        # M(-21, 1, z) overflows float64 at z = 1e40 and read as nan
        p = natural_params()
        qn = QuantumNumbers(20, 0)
        with pytest.raises(ValueError, match="overflows"):
            spinor_sample(qn, 1e20, 0.0, energy(qn, p).E, p)

    @pytest.mark.parametrize("m, rho, z", [(3, 1e120, "1e+240"), (50, 1e8, "1e+16")])
    def test_radius_where_the_prefactor_leaves_float64_is_refused(self, m, rho, z):
        # exp(-z/2) underflowed to 0 and z**(m/2) overflowed: psi1 read nan+nanj
        p = natural_params()
        qn = QuantumNumbers(0, m)
        with pytest.raises(ValueError, match=re.escape(f"leaves float64 at z = {z}")):
            spinor_sample(qn, rho, 0.3, energy(qn, p).E, p)

    @pytest.mark.parametrize("n", [24, 30])
    def test_states_past_12_b_answer(self, n):
        # a fixed 12 b grid refused both with a TruncationError; the state's
        # default grid reaches 7 b past its turning point
        p = natural_params()
        qn = QuantumNumbers(n, 0)
        sample = spinor_sample(qn, 1.0, 0.0, energy(qn, p).E, p)
        closed = closed_form_norm_constant(qn, p) * psi1_profile(qn).value_z(1.0)
        assert_allclose(sample.psi1.real, closed, rtol=1e-8)
        assert sample.psi1.imag == 0.0

    def test_lower_component_suppressed_in_nr_limit(self):
        # |psi2/psi1| shrinks like sqrt(lam) as c grows at fixed interior rho
        qn = QuantumNumbers(0, 0)
        ratios = {}
        for lam in (1e-4, 1e-6):
            p = PhysicalParams(rest_mass=1.0, omega=1.0, hbar=1.0, c=lam**-0.5)
            assert_allclose(p.lam, lam, rtol=1e-12)
            e = energy(qn, p).E
            sample = spinor_sample(qn, 0.5 * p.oscillator_length, 0.3, e, p)
            ratios[lam] = abs(sample.psi2) / abs(sample.psi1)
        assert ratios[1e-6] < 0.01
        assert_allclose(ratios[1e-6] / ratios[1e-4], 0.1, rtol=0.05)


class TestNodeCounts:
    def test_single_node_ground_state(self):
        assert count_radial_nodes(QuantumNumbers(0, 0), natural_params()) == 1

    def test_three_nodes(self):
        assert count_radial_nodes(QuantumNumbers(2, 0), natural_params()) == 3

    def test_high_m_single_node(self):
        assert count_radial_nodes(QuantumNumbers(0, 5), natural_params()) == 1

    def test_prefactor_outside_float64_is_refused(self):
        # at m = 200 the 2s + 4 root-bound grid reached z = 1953, where z**100
        # overflowed and was refused at z = 1209; the default grid ends at
        # z = 784.  At m = 250 z**125 leaves float64 inside it, and the answer
        # 1 needs a log-space prefactor
        assert count_radial_nodes(QuantumNumbers(0, 200), natural_params()) == 1
        with pytest.raises(ValueError, match=r"z\*\*\(mu/2\) leaves float64 at z = 292\.48"):
            count_radial_nodes(QuantumNumbers(0, 250), natural_params())

    @pytest.mark.parametrize("n", [200, 250])
    def test_past_the_unscaled_laguerre_span(self, n):
        # the 2s + 4 span reached z = 3686 at n = 200, where M(-201, 1, z)
        # overflowed float64; the default grid ends at z = 1296 (n = 200)
        # and z = 1521 (n = 250)
        assert count_radial_nodes(QuantumNumbers(n, 0), natural_params()) == n + 1

    def test_full_sweep_both_components(self):
        p = natural_params()
        grid = RadialGrid(12.0 * p.oscillator_length, 4097)
        for n in range(9):
            for m in range(6):
                qn = QuantumNumbers(n, m)
                assert count_radial_nodes(qn, p) == n + 1, (n, m)
                ansatz = radial_psi2(qn, grid, p)
                assert sign_changes(ansatz.values[1:-1]) == n, (n, m)


class TestProfileShape:
    def test_gaussian_decay_beats_polynomial(self):
        # |R1| e^{+z/4} still dies off toward the grid edge at z = 60
        p = natural_params()
        grid = RadialGrid(math.sqrt(60.0), 513)
        z = grid.samples**2
        for n in range(6):
            for m in range(6):
                rf = radial_psi1(QuantumNumbers(n, m), grid, p)
                boosted = np.abs(rf.values) * np.exp(z / 4.0)
                peak = int(np.argmax(boosted))
                assert peak < 0.95 * grid.num_points, (n, m)
                outer = boosted[z >= 48.0]
                assert np.all(np.diff(outer) < 0.0), (n, m)
                assert boosted[-1] < 0.6 * boosted[peak], (n, m)

    def test_radial_orthogonality(self):
        p = natural_params()
        grid = RadialGrid(12.0 * p.oscillator_length, 4097)
        for m in range(3):
            profiles = {}
            for n in range(4):
                rf = radial_psi1(QuantumNumbers(n, m), grid, p)
                profiles[n] = normalize(rf) * rf.values
            for n in range(4):
                for n2 in range(n + 1, 4):
                    overlap = integrate_radial(
                        2.0 * math.pi * profiles[n] * profiles[n2] * grid.samples,
                        grid,
                    )
                    assert abs(overlap) <= 1e-6, (n, n2, m)


class TestSignChanges:
    def test_zero_sequence(self):
        assert sign_changes(np.zeros(10)) == 0

    def test_ignores_noise_at_roots(self):
        values = np.array([1.0, 1e-16, -1.0, -0.5, 1e-15, 1.0])
        assert sign_changes(values) == 2

    def test_samples_whose_product_overflows(self):
        # signs were compared through kept[:-1] * kept[1:], which overflows
        # past |v| of about 1e154 (RuntimeWarning, an error in this suite)
        assert sign_changes([1e200, -1e200, 1e200]) == 2
        assert sign_changes([[1e300, -1e300], [-1e300, -1e300]]).tolist() == [1, 0]

    @pytest.mark.parametrize(
        "values", [[1.0, math.nan, -1.0], [math.inf, 1.0, -1.0], [1.0, -math.inf]]
    )
    def test_refuses_samples_that_are_not_finite(self, values):
        # the first two counted 0: nan failed every comparison, and inf made
        # the floor inf, so every finite sample read as noise
        with pytest.raises(ValueError, match="finite"):
            sign_changes(values)

    def test_z_of_grid_matches_units_helper(self):
        p = PhysicalParams(rest_mass=3.0, omega=0.7)
        grid = RadialGrid(2.0, 33)
        z = to_dimensionless_z(grid.samples, p)
        assert_allclose(z, p.gamma * grid.samples**2, rtol=1e-15)
