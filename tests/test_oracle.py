import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dirac2d import (
    QuantumNumbers,
    RadialFunction,
    RadialGrid,
    ResidualReport,
    TridiagonalOperator,
    build_radial_operator,
    coupled_residual,
    default_grid,
    derive_lower_component,
    dirac_excitations_from_k1,
    energy,
    integrate_radial,
    natural_params,
    ode_residual,
    radial_psi1,
    smallest_eigenvalues,
)
from dirac2d import oracle


def aux_k1(n_r, m):
    """Auxiliary oscillator ladder the finite-difference operator must find."""
    return 2.0 * (2 * n_r + m + 1)


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
    Newton steps; the current solver must return the same floats.
    """
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
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if below(mid) >= k:
                hi = mid
            else:
                lo = mid
        eigenvalues.append(0.5 * (lo + hi))
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


class TestRadialOperator:
    def test_rejects_negative_m(self):
        with pytest.raises(ValueError):
            build_radial_operator(-1, RadialGrid(12.0, 4097), natural_params())

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError, match="coarse"):
            build_radial_operator(0, RadialGrid(12.0, 63), natural_params())

    def test_structural_symmetry(self):
        op = build_radial_operator(1, RadialGrid(12.0, 257), natural_params())
        assert op.dimension == 255
        assert op.off_diagonal.shape == (254,)
        assert np.all(np.isfinite(op.diagonal))
        assert np.all(np.isfinite(op.off_diagonal))

    def test_m0_ladder_on_default_grid(self):
        p = natural_params()
        op = build_radial_operator(0, RadialGrid(12.0, 4097), p)
        found = smallest_eigenvalues(op, 3)
        for n_r, value in enumerate(found):
            expected = aux_k1(n_r, 0) * p.hbar / (p.rest_mass * p.omega)
            assert abs(value - expected) / expected <= 1e-3

    def test_dimensionless_across_unit_systems(self):
        # eigenvalues are k1 values, identical whatever the raw scales
        si = si_params()
        natural = natural_params()
        vals_si = smallest_eigenvalues(
            build_radial_operator(1, RadialGrid(12.0 * si.oscillator_length, 1025), si), 2
        )
        vals_nat = smallest_eigenvalues(
            build_radial_operator(1, RadialGrid(12.0, 1025), natural), 2
        )
        assert_allclose(vals_si, vals_nat, rtol=1e-12)


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
        op = build_radial_operator(1, RadialGrid(12.0, 65), p)
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
        op = build_radial_operator(m, grid, p)
        assert smallest_eigenvalues(op, levels) == plain_bisection(op, levels)

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
            op = build_radial_operator(m, RadialGrid(12.0, 4097), p)
            lapack = linalg.eigvalsh_tridiagonal(
                op.diagonal, op.off_diagonal, select="i", select_range=(0, 11)
            )
            assert_allclose(smallest_eigenvalues(op, 12), lapack, rtol=1e-10, atol=0)

    def test_newton_pass_counts_and_log_derivative(self):
        # p'/p = sum 1/(sigma - lambda_i) over the dense spectrum
        p = natural_params()
        op = build_radial_operator(1, RadialGrid(12.0, 65), p)
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
    and 1458 / 1489 for 22.  The counts do not depend on the machine.
    """

    @pytest.mark.parametrize("m", [0, 3])
    @pytest.mark.parametrize("levels, budget", [(7, 300), (22, 700)])
    def test_pass_budget(self, m, levels, budget, monkeypatch):
        passes = []

        def counted(fn):
            def wrapper(*args):
                passes.append(fn.__name__)
                return fn(*args)

            return wrapper

        for name in ("_negative_pivot_count", "_newton_pass"):
            monkeypatch.setattr(oracle, name, counted(getattr(oracle, name)))
        p = natural_params()
        op = build_radial_operator(m, RadialGrid(12.0, 4097), p)
        smallest_eigenvalues(op, levels)
        assert "_newton_pass" in passes
        assert len(passes) <= budget


class TestDiracEnergyMapping:
    def test_skips_threshold_level(self):
        p = natural_params()
        mapped = dirac_excitations_from_k1([aux_k1(0, 0)], 0, p)
        assert mapped == []

    def test_maps_excited_levels(self):
        p = natural_params()
        mapped = dirac_excitations_from_k1([aux_k1(nr, 2) for nr in range(4)], 2, p)
        assert [n for n, _ in mapped] == [0, 1, 2]
        for n, x_fd in mapped:
            assert_allclose(x_fd, energy(QuantumNumbers(n, 0), p).excitation, rtol=1e-14)

    def test_keeps_the_excitation_digits_in_si_units(self):
        # at omega = 1 rad/s E rounds to m0 c^2 (lam ~ 1e-21), so only the
        # excitation can tell a wrong level from a right one
        p = replace(si_params(), omega=1.0)
        mapped = dirac_excitations_from_k1([aux_k1(nr, 1) for nr in range(1, 4)], 1, p)
        for n, x_fd in mapped:
            level = energy(QuantumNumbers(n, 1), p)
            assert level.E == p.rest_energy
            assert_allclose(x_fd, level.excitation, rtol=1e-14)
            assert_allclose(x_fd, 2.0 * (n + 1) * p.energy_quantum, rtol=1e-12)


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

    def test_shared_ladder_gives_the_same_reports(self):
        # the ladder verify shares between both residuals changes no float
        p = natural_params()
        grid = RadialGrid(12.0, 1025)
        z = grid.samples[1:-1] ** 2  # natural units: b = 1
        for n, m in [(0, 0), (3, 2)]:
            level = energy(QuantumNumbers(n, m), p)
            psi1 = radial_psi1(level.qn, grid, p)
            ladder = psi1.profile.ladder(z)
            assert ode_residual(psi1, m, level.k1, ladder) == ode_residual(
                psi1, m, level.k1
            )
            assert coupled_residual(level, psi1, ladder=ladder) == coupled_residual(
                level, psi1
            )

    def test_ladder_of_another_state_is_refused(self):
        p = natural_params()
        grid = RadialGrid(12.0, 257)
        z = grid.samples[1:-1] ** 2
        level = energy(QuantumNumbers(2, 1), p)
        psi1 = radial_psi1(level.qn, grid, p)
        other = radial_psi1(QuantumNumbers(3, 1), grid, p).profile.ladder(z)
        with pytest.raises(ValueError, match="ladder"):
            coupled_residual(level, psi1, ladder=other)
        with pytest.raises(ValueError, match="ladder"):
            ode_residual(psi1, 1, level.k1, other)
        with pytest.raises(ValueError, match="ladder"):
            coupled_residual(level, psi1, ladder=psi1.profile.ladder(z[::-1]))

    # (rms, max, degenerate, worst_rho) that sampling the derived lower
    # component on the grid gave; reading its profile alone must keep them.
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
        # the default psi2 reads psi1's ladder; passing the sampled derived
        # component sums its own terms; both give the same floats
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
