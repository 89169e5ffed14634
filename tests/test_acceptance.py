"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py``
or rely on the assertions under plain ``pytest``.
"""

import json
import math
from dataclasses import replace

import numpy as np

from dirac2d import (
    PhysicalParams,
    QuantumNumbers,
    build_dirac_operator,
    closed_form_norm_constant,
    coupled_residual,
    count_radial_nodes,
    default_grid,
    energy,
    kummer_m,
    level_spacings,
    natural_params,
    normalize,
    nr_expansion,
    ode_residual,
    oracle,
    quantization_residual,
    radial_psi1,
    radial_psi2,
    sign_changes,
    smallest_eigenvalues,
)
from dirac2d.cli import RunConfig, cmd_wavefn


def report(number, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {label}{suffix}")
    assert passed, f"criterion {number}: {label}{suffix}"


def test_criterion_1_spectrum_exactness():
    p = natural_params()
    worst = 0.0
    for n in range(11):
        expected = math.sqrt(1.0 + 4.0 * (n + 1))
        got = energy(QuantumNumbers(n, 0), p).E
        worst = max(worst, abs(got - expected) / expected)
    e1_dev = abs(energy(QuantumNumbers(1, 0), p).E - 3.0) / 3.0
    report(
        1,
        "closed-form energies match sqrt(1 + 4(n+1)) for n <= 10",
        worst <= 1e-12 and e1_dev <= 1e-15,
        f"worst rel dev {worst:.2e}, E(1) rel dev {e1_dev:.2e}",
    )


def test_criterion_2_m_independence_bitwise():
    p = natural_params()
    ok = True
    for n in range(6):
        values = {energy(QuantumNumbers(n, m), p).E for m in range(11)}
        ok = ok and len(values) == 1
    report(2, "energies bitwise identical across m = 0..10", ok)


def test_criterion_3_finite_difference_oracle_agreement():
    p = natural_params()
    exact = np.array([4.0 * (n + 1) for n in range(4)])
    ok = True
    details = []
    for m in (0, 1, 2):
        k_coarse = np.array(smallest_eigenvalues(build_dirac_operator(m, 12.0, 4096), 4))
        k_fine = np.array(smallest_eigenvalues(build_dirac_operator(m, 12.0, 8192), 4))
        err_coarse = np.abs(k_coarse - exact) / exact
        err_fine = np.abs(k_fine - exact) / exact
        ratios = err_coarse / err_fine
        ok = ok and bool(np.all(err_coarse <= 1e-3))
        ok = ok and bool(np.all(err_fine <= 2.5e-4))
        ok = ok and bool(np.all((ratios >= 3.6) & (ratios <= 4.4)))
        details.append(f"m={m} err {err_coarse.max():.1e} ratio {ratios.mean():.2f}")
        for n, level in enumerate(k_coarse):
            x = level * p.lam
            x_fd = p.rest_energy * x / (1.0 + math.sqrt(1.0 + x))
            excitation = energy(QuantumNumbers(n, m), p).excitation
            ok = ok and abs(x_fd - excitation) / excitation <= 1e-3
    report(3, "finite-difference spectrum and mapping", ok, "; ".join(details))


def test_criterion_4_quantization_monotonicity_and_bisection():
    p = natural_params()
    grid_vals = [
        quantization_residual(1.0 + 0.05 * k, 0, p) for k in range(200)
    ]
    monotone = all(a > b for a, b in zip(grid_vals, grid_vals[1:]))
    worst = 0.0
    for n in range(11):
        target = -(n + 1.0)
        lo, hi = p.rest_energy, math.sqrt(1.0 + 4.0 * (n + 2))
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if quantization_residual(mid, 0, p) > target:
                lo = mid
            else:
                hi = mid
        exact = energy(QuantumNumbers(n, 0), p).E
        worst = max(worst, abs(0.5 * (lo + hi) - exact) / exact)
    report(
        4,
        "quantization residual monotone; bisection recovers E(n <= 10)",
        monotone and worst <= 1e-10,
        f"worst bisection rel dev {worst:.2e}",
    )


def test_criterion_5_eigenfunction_self_consistency():
    p = natural_params()
    worst_ode = 0.0
    worst_coupled = 0.0
    weakest_perturbed = math.inf
    for n in range(4):
        for m in range(3):
            qn = QuantumNumbers(n, m)
            level = energy(qn, p)
            rf = radial_psi1(qn, default_grid(qn, p), p)
            worst_ode = max(worst_ode, ode_residual(rf, m, level.k1).rms_residual)
            worst_coupled = max(
                worst_coupled,
                coupled_residual(level, rf).rms_residual,
            )
            E = 1.01 * level.E
            shifted = replace(level, E=E, excitation=E - p.rest_energy)
            weakest_perturbed = min(
                weakest_perturbed,
                coupled_residual(shifted, rf).rms_residual,
            )
    report(
        5,
        "ODE and coupled-system residuals (n <= 3, m <= 2)",
        worst_ode <= 1e-12 and worst_coupled <= 1e-12 and weakest_perturbed > 1e-3,
        f"ode {worst_ode:.1e}, coupled {worst_coupled:.1e}, "
        f"1% perturbation {weakest_perturbed:.1e}",
    )


def test_criterion_6_node_counts():
    p = natural_params()
    ok = True
    for n in range(9):
        for m in range(6):
            qn = QuantumNumbers(n, m)
            ok = ok and count_radial_nodes(qn, p) == n + 1
            ok = ok and sign_changes(radial_psi2(qn, default_grid(qn, p), p).values[1:-1]) == n
    report(6, "psi1 has n+1 sign changes, psi2 ansatz has n (n <= 8, m <= 5)", ok)


def test_criterion_7_kummer_laguerre_identity():
    # L_n^(a) from exact rational arithmetic: the table holds L / binom,
    # rounded once, so binom times it is L to a rounding
    z = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0])
    exact = oracle._laguerre_table(20, range(11), z)
    worst = 0.0
    for n in range(21):
        for alpha in range(11):
            binom = math.comb(n + alpha, n)
            lag = binom * exact[n, alpha]
            kum = binom * kummer_m(-float(n), alpha + 1.0, z)
            dev = np.max(np.abs(kum - lag) / np.maximum(1.0, np.abs(lag)))
            worst = max(worst, float(dev))
    report(
        7,
        "binom(n+a,n) M(-n,a+1,z) equals L_n^(a)(z) (n <= 20, a <= 10)",
        worst <= 1e-10,
        f"worst scaled dev {worst:.2e}",
    )


def test_criterion_8_nonrelativistic_limit():
    lambdas = (1e-2, 1e-3, 1e-4)
    ok = True
    for n in range(6):
        errors = []
        for lam in lambdas:
            p = PhysicalParams(rest_mass=1.0, omega=lam)
            errors.append(abs(energy(QuantumNumbers(n, 0), p).E - nr_expansion(n, p).total))
        for e_big, e_small in zip(errors, errors[1:]):
            ok = ok and 500.0 <= e_big / e_small <= 2000.0
    p4 = PhysicalParams(rest_mass=1.0, omega=1e-4)
    exact = energy(QuantumNumbers(0, 0), p4).E
    ok = ok and abs(exact - 1.000199980004) <= 1e-12
    report(
        8,
        "three-term expansion has cubic remainder across lambda decades",
        ok,
        f"E_exact(lam=1e-4, n=0) = {exact:.12f}",
    )


def test_criterion_9_normalization(tmp_path):
    p = natural_params()
    worst = 0.0
    for n in range(4):
        for m in range(3):
            qn = QuantumNumbers(n, m)
            quad = normalize(radial_psi1(qn, default_grid(qn, p), p))
            worst = max(worst, abs(quad / closed_form_norm_constant(qn, p) - 1.0))
    config = RunConfig(command="wavefn", n=2, m=1, output=str(tmp_path / "w.json"), fmt="json")
    rows = json.loads(cmd_wavefn(config).read_text())["rows"]
    rho = np.array([r["rho"] for r in rows])
    dens = np.array([r["probability_density"] for r in rows])
    emitted = float(np.sum((dens[1:] + dens[:-1]) * np.diff(rho)) / 2.0)
    report(
        9,
        "quadrature norm matches orthogonality constant; emitted density sums to 1",
        worst <= 1e-8 and abs(emitted - 1.0) <= 1e-6,
        f"worst A dev {worst:.2e}, emitted integral {emitted:.9f}",
    )


def test_criterion_10_level_spacings():
    param_sets = [
        natural_params(),
        PhysicalParams(rest_mass=2.0, omega=0.5),
        PhysicalParams(rest_mass=1.0, omega=1.0, hbar=1.0, c=3.0),
    ]
    ok = True
    for p in param_sets:
        gaps = level_spacings(100, p)
        ok = ok and all(g > 0.0 for g in gaps)
        ok = ok and all(a > b for a, b in zip(gaps, gaps[1:]))
    first_two = level_spacings(2, natural_params())
    ok = ok and abs(first_two[0] - (3.0 - math.sqrt(5.0))) <= 1e-14
    ok = ok and abs(first_two[1] - (math.sqrt(13.0) - 3.0)) <= 1e-14
    report(
        10,
        "spacings positive, strictly shrinking; first two match closed form",
        ok,
        f"first gaps {first_two[0]:.6f}, {first_two[1]:.6f}",
    )
