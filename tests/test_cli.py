import dataclasses
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dirac2d import (
    QuantumNumbers,
    energy,
    natural_params,
    oracle,
    specfun,
    spinor_sample,
    units,
    wavefn,
)
from dirac2d import cli
from dirac2d.cli import (
    RunConfig,
    build_parser,
    cmd_nr_limit,
    cmd_spectrum,
    cmd_verify,
    cmd_wavefn,
    config_from_args,
    main,
    run_verification_checks,
)

CONFIG_FIELDS = [f.name for f in fields(RunConfig)]


def read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""  # trailing LF
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:-1]]
    return header, rows


class TestSpectrumCommand:
    def test_first_two_levels(self, tmp_path):
        config = RunConfig(command="spectrum", n_max=1, output=str(tmp_path / "s.csv"))
        path = cmd_spectrum(config)
        header, rows = read_csv(path)
        assert header[:3] == ["n", "m", "E"]
        assert_allclose(float(rows[0]["E"]), math.sqrt(5.0), rtol=1e-15)
        assert_allclose(float(rows[1]["E"]), 3.0, rtol=1e-15)

    def test_single_row_has_empty_spacing(self, tmp_path):
        config = RunConfig(command="spectrum", n_max=0, output=str(tmp_path / "s.csv"))
        _, rows = read_csv(cmd_spectrum(config))
        assert len(rows) == 1
        assert rows[0]["spacing_to_next"] == ""

    def test_energy_column_independent_of_m(self, tmp_path):
        cols = {}
        for m in (0, 3):
            config = RunConfig(
                command="spectrum", n_max=4, m=m, output=str(tmp_path / f"s{m}.csv")
            )
            _, rows = read_csv(cmd_spectrum(config))
            cols[m] = [r["E"] for r in rows]
        assert cols[0] == cols[3]

    def test_float_cells_are_17_significant_digits(self, tmp_path):
        config = RunConfig(command="spectrum", n_max=0, output=str(tmp_path / "s.csv"))
        _, rows = read_csv(cmd_spectrum(config))
        cell = rows[0]["E"]
        mantissa = cell.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) == 17
        assert float(cell) == energy(QuantumNumbers(0, 0), natural_params()).E

    def test_si_excitation_and_spacings(self, tmp_path):
        # electron at omega = 1 rad/s: lam ~ 1.3e-21, far below machine epsilon
        config = RunConfig(
            command="spectrum", units="si", n_max=20, output=str(tmp_path / "s.csv")
        )
        _, rows = read_csv(cmd_spectrum(config))
        params = config.params()
        expected = 2.0 * params.energy_quantum * (1.0 - params.lam)
        assert_allclose(float(rows[0]["E_minus_mc2"]), expected, rtol=1e-12)
        spacings = [float(r["spacing_to_next"]) for r in rows[:-1]]
        assert all(gap > 0.0 for gap in spacings)

    def test_deterministic_bytes(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            config = RunConfig(
                command="spectrum", n_max=6, output=str(tmp_path / name)
            )
            paths.append(cmd_spectrum(config))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_round_trip_full_precision(self, tmp_path):
        config = RunConfig(
            command="spectrum", n_max=3, fmt="json", output=str(tmp_path / "s.json")
        )
        payload = json.loads(cmd_spectrum(config).read_text())
        assert set(payload) == {"config", "rows", "checks"}
        p = natural_params()
        for row in payload["rows"]:
            level = energy(QuantumNumbers(row["n"], row["m"]), p)
            assert row["E"] == level.E
            assert row["k1"] == level.k1


class TestWavefnCommand:
    def test_density_normalized_and_zero_at_origin(self, tmp_path):
        config = RunConfig(
            command="wavefn", n=0, m=0, output=str(tmp_path / "w.csv")
        )
        _, rows = read_csv(cmd_wavefn(config))
        rho = np.array([float(r["rho"]) for r in rows])
        dens = np.array([float(r["probability_density"]) for r in rows])
        assert dens[0] == 0.0
        total = np.sum((dens[1:] + dens[:-1]) * np.diff(rho)) / 2.0
        assert abs(total - 1.0) <= 1e-6

    def test_upper_profile_has_single_sign_change(self, tmp_path):
        config = RunConfig(command="wavefn", n=0, m=0, output=str(tmp_path / "w.csv"))
        _, rows = read_csv(cmd_wavefn(config))
        values = np.array([float(r["R1_normalized"]) for r in rows])
        kept = values[np.abs(values) > 1e-13 * np.max(np.abs(values))]
        assert int(np.sum(kept[:-1] * kept[1:] < 0.0)) == 1

    @pytest.mark.parametrize(
        "n, m", [(24, 0), (30, 0), (100, 0), (250, 0), (0, 80), (0, 171), (20, 100)]
    )
    def test_states_past_12_b_write_a_normalized_table(self, n, m, tmp_path):
        # a fixed 12 b grid refused each of these with a TruncationError
        out = tmp_path / "w.csv"
        assert main(["wavefn", "--n", str(n), "--m", str(m), "--output", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 4097
        assert _trapezoid(rows, "probability_density") == pytest.approx(1.0, abs=1e-12)
        values = np.array([float(r["R1_normalized"]) for r in rows])
        kept = values[np.abs(values) > 1e-13 * np.max(np.abs(values))]
        assert np.count_nonzero(np.diff(np.signbit(kept))) == n + 1

    @pytest.mark.parametrize("units", ["natural", "si"])
    @pytest.mark.parametrize("n, m, extent", [(0, 0, 9), (3, 2, 12), (2, 1, 11), (250, 0, 39)])
    def test_grid_ends_at_whole_b_past_the_turning_point(self, units, n, m, extent, tmp_path):
        # ceil(s + 7) oscillator lengths, s = sqrt(4(n + 1) + 2m)
        config = RunConfig(command="wavefn", units=units, n=n, m=m, output=str(tmp_path / "w.csv"))
        _, rows = read_csv(cmd_wavefn(config))
        assert float(rows[-1]["rho"]) == extent * config.params().oscillator_length

    def test_density_includes_lower_component(self, tmp_path):
        config = RunConfig(command="wavefn", n=1, m=1, output=str(tmp_path / "w.csv"))
        _, rows = read_csv(cmd_wavefn(config))
        r1 = np.array([float(r["R1_normalized"]) for r in rows])
        r2 = np.array([float(r["R2_derived"]) for r in rows])
        rho = np.array([float(r["rho"]) for r in rows])
        dens = np.array([float(r["probability_density"]) for r in rows])
        assert np.any(r2 != 0.0)
        assert_allclose(dens, 2.0 * math.pi * rho * (r1**2 + r2**2), rtol=1e-12)


class TestVerifyCommand:
    def test_default_suite_passes(self, tmp_path):
        config = RunConfig(
            command="verify",
            n_max=1,
            fmt="json",
            output=str(tmp_path / "v.json"),
        )
        path, passed = cmd_verify(config)
        assert passed
        payload = json.loads(path.read_text())
        assert len(payload["checks"]) >= 6
        assert all(c["passed"] for c in payload["checks"])

    def test_minimal_report_at_n_max_zero(self, tmp_path):
        config = RunConfig(
            command="verify",
            n_max=0,
            fmt="json",
            output=str(tmp_path / "v.json"),
        )
        path, _ = cmd_verify(config)
        assert len(json.loads(path.read_text())["checks"]) >= 6

    def test_impossible_tolerance_fails_honestly(self, tmp_path, monkeypatch):
        config = RunConfig(
            command="verify",
            n_max=0,
            fmt="json",
            output=str(tmp_path / "v.json"),
        )
        monkeypatch.setitem(cli.TOLERANCES, "fd-spectrum", 1e-16)
        path, passed = cmd_verify(config)
        assert not passed
        payload = json.loads(path.read_text())
        by_name = {c["name"]: c for c in payload["checks"]}
        assert not by_name["fd-spectrum"]["passed"]
        assert by_name["node-counts"]["passed"]

    def test_report_bounds_are_the_module_constants(self):
        # every check reports the engine's own bound, in TOLERANCES' order
        config = RunConfig(command="verify", n_max=0)
        checks = run_verification_checks(config)
        assert [(c["name"], c["tolerance"]) for c in checks] == list(cli.TOLERANCES.items())

    def test_node_counts_check_is_live(self, monkeypatch):
        # node-counts reads the sign changes of the verified psi1 samples: a
        # profile with one node too many, M(-(n+2), m+1), must fail it
        config = RunConfig(command="verify", n_max=2)
        checks = {c["name"]: c for c in run_verification_checks(config)}
        assert checks["node-counts"]["measured"] == 0.0

        def one_node_too_many(qn):
            return wavefn.KummerProfile(coeff=1.0, mu=qn.m, a=-(qn.n + 2.0))

        monkeypatch.setattr(wavefn, "psi1_profile", one_node_too_many)
        checks = {c["name"]: c for c in run_verification_checks(config)}
        assert checks["node-counts"]["measured"] >= 1
        assert not checks["node-counts"]["passed"]

    def test_kummer_laguerre_check_is_live(self, monkeypatch):
        # kummer-laguerre compares the Kummer rows the verified states hold
        # with exact values: the row of degree 3 at b = m+1 off by 1e-9 of
        # itself at the outermost node, which the 8 samples include, must fail it
        config = RunConfig(command="verify", n_max=2)
        checks = {c["name"]: c for c in run_verification_checks(config)}
        assert checks["kummer-laguerre"]["passed"]
        detail = "n <= 3 and alpha 0..2 at 8 z up to 112.361"
        assert checks["kummer-laguerre"]["detail"] == detail
        rows = wavefn._degree_rows

        def one_row_off(b, z):
            for degree, row in enumerate(rows(b, z)):
                if degree == 3:
                    row[0, -1] *= 1.0 + 1e-9
                yield row

        monkeypatch.setattr(wavefn, "_degree_rows", one_row_off)
        checks = {c["name"]: c for c in run_verification_checks(config)}
        assert checks["kummer-laguerre"]["measured"] > 1e-10
        assert not checks["kummer-laguerre"]["passed"]

    @pytest.mark.parametrize("units, m", [("natural", 0), ("natural", 3), ("si", 2)])
    def test_coupled_residual_check_is_live(self, units, m, monkeypatch):
        # E off by 1e-9 of itself moves the upper equation's residual by
        # about 5e-10: only coupled-residual reads E, and it must fail
        config = RunConfig(command="verify", units=units, m=m, n_max=5)
        assert all(c["passed"] for c in run_verification_checks(config))
        energy = cli.spectrum.energy

        def e_off(qn, params):
            level = energy(qn, params)
            return dataclasses.replace(level, E=level.E * (1.0 + 1e-9))

        monkeypatch.setattr(cli.spectrum, "energy", e_off)
        failed = [c["name"] for c in run_verification_checks(config) if not c["passed"]]
        assert failed == ["coupled-residual"]

    @pytest.mark.parametrize("units, m", [("natural", 0), ("natural", 3), ("si", 2)])
    def test_normalization_check_is_live(self, units, m, monkeypatch):
        # the t-trapezoid norm against the closed-form constant: that
        # constant off by 1e-7 of itself, or pi b**2 written as pi b, must fail it
        config = RunConfig(command="verify", units=units, m=m, n_max=5)
        assert all(c["passed"] for c in run_verification_checks(config))
        constant = wavefn.closed_form_norm_constant
        if units == "si":
            b = config.params().oscillator_length

            def off(qn, params):  # 1/sqrt(pi b ratio) = constant * sqrt(b)
                return constant(qn, params) * math.sqrt(b)
        else:

            def off(qn, params):
                return constant(qn, params) * (1.0 + 1e-7)

        monkeypatch.setattr(wavefn, "closed_form_norm_constant", off)
        failed = [c["name"] for c in run_verification_checks(config) if not c["passed"]]
        assert failed == ["normalization"]

    @pytest.mark.parametrize("units, m", [("natural", 0), ("natural", 3), ("si", 2)])
    def test_a_norm_constant_off_by_1e_10_fails_normalization(self, units, m, monkeypatch):
        # it reads 1.0e-10, which passed the former 1e-8 bound; the
        # t-trapezoid norm itself reads at most a few 1e-15
        config = RunConfig(command="verify", units=units, m=m, n_max=5)
        constant = wavefn.closed_form_norm_constant
        monkeypatch.setattr(
            wavefn, "closed_form_norm_constant", lambda qn, p: constant(qn, p) * (1.0 + 1e-10)
        )
        checks = run_verification_checks(config)
        assert [c["name"] for c in checks if not c["passed"]] == ["normalization"]
        assert checks[5]["name"] == "normalization"
        assert checks[5]["measured"] == pytest.approx(1e-10, rel=1e-3)

    def test_a_profile_zero_at_every_node_fails_four_checks(self, monkeypatch):
        # gamma with hbar**2 in SI units puts z near 1e28 at the first node,
        # where every psi1 sample underflows to 0: the norm reads 0, no node
        # is found, and the residuals of a zero function read 1.0, not 0
        config = RunConfig(command="verify", units="si", m=2, n_max=5)
        assert all(c["passed"] for c in run_verification_checks(config))
        hbar_squared = property(lambda p: p.rest_mass * p.omega / (p.hbar * p.hbar))
        monkeypatch.setattr(units.PhysicalParams, "gamma", hbar_squared)
        checks = {c["name"]: c for c in run_verification_checks(config)}
        assert [name for name, c in checks.items() if not c["passed"]] == [
            "ode-residual",
            "coupled-residual",
            "node-counts",
            "normalization",
        ]
        for name in ("ode-residual", "coupled-residual", "normalization"):
            assert checks[name]["measured"] == 1.0

    @pytest.mark.parametrize("argv", ["--n-max 24", "--n-max 20 --m 10", "--n-max 5 --m 60"])
    def test_states_past_the_default_grid_pass_every_check(self, argv, tmp_path):
        # on the 12 b grid these exited 2 (a TruncationError from its Simpson norm)
        out = tmp_path / "v.csv"
        assert main(["verify", *argv.split(), "--output", str(out)]) == 0
        _, rows = read_csv(out)
        assert [row["passed"] for row in rows] == ["true"] * 7

    @pytest.mark.parametrize("argv", ["--n-max 40", "--n-max 20 --m 60", "--n-max 60"])
    def test_states_past_a_12_b_fd_grid_pass_every_check(self, argv, tmp_path):
        # the finite-difference oracle on a fixed 12 b missed the top levels
        # (fd-spectrum 3.3e-2 at n_max 40, 1.6e-1 at n_max 20 and m 60); its
        # grids now reach 4 b past the top state's turning point
        out = tmp_path / "v.csv"
        assert main(["verify", *argv.split(), "--output", str(out)]) == 0
        _, rows = read_csv(out)
        assert [row["passed"] for row in rows] == ["true"] * 7
        assert float(rows[0]["measured"]) <= 1e-11

    def test_unknown_command_rejected(self):
        # the JSON config block reads the command's flags from COMMANDS
        with pytest.raises(ValueError, match="unknown command"):
            RunConfig(command="bogus")

    @pytest.mark.parametrize(
        "kwargs, message",
        [(dict(units="cgs"), "units must be"), (dict(fmt="xml"), "format must be")],
        ids=["units", "format"],
    )
    def test_unknown_units_or_format_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(command="spectrum", **kwargs)

    def test_json_never_holds_nan_or_infinity(self):
        # in checks, and in a rows column of floats, of numpy floats or of
        # mixed cells (the last is rendered cell by cell through json.dumps)
        config = RunConfig(command="verify", fmt="json")
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                "".join(cli._render_json(config, {}, [{"measured": bad}]))
            for column in ([1.0, bad], np.array([1.0, bad]), [None, bad]):
                with pytest.raises(ValueError):
                    "".join(cli._render_json(config, {"E": column}, []))

    def test_csv_report_parses_cleanly(self, tmp_path):
        config = RunConfig(
            command="verify",
            n_max=0,
            output=str(tmp_path / "v.csv"),
        )
        path, _ = cmd_verify(config)
        header, rows = read_csv(path)
        assert header == ["name", "measured", "tolerance", "passed", "detail"]
        for row in rows:
            assert len(row) == len(header)  # no stray delimiters in cells
            assert row["passed"] in ("true", "false")


class TestDiracEnergyMapCheck:
    """The dirac-energy-map check compares excitations E - m0 c^2.

    In SI units E rounds to m0 c^2, so a check on E reads 0.0 whatever the
    finite-difference levels are; on the excitations it can fail.
    """

    @staticmethod
    def _checks(units):
        config = RunConfig(command="verify", units=units, n_max=1)
        return {c["name"]: c for c in run_verification_checks(config)}

    @pytest.mark.parametrize("units", ["natural", "si"])
    def test_levels_off_by_one_percent_fail(self, units, monkeypatch):
        # at lam = 1 a 1% level error is a 0.72% excitation error
        original = oracle.smallest_eigenvalues

        def scaled(op, count, starts=()):
            return [1.01 * level for level in original(op, count, starts=starts)]

        monkeypatch.setattr(oracle, "smallest_eigenvalues", scaled)
        check = self._checks(units)["dirac-energy-map"]
        assert not check["passed"]
        assert check["measured"] > 7e-3

    @pytest.mark.parametrize("units", ["natural", "si"])
    def test_true_levels_pass_at_rounding_level(self, units):
        # measured 1.0e-13 (natural) and 1.4e-13 (si) on spacings b/32 and
        # b/64, where the levels' truncation error is below 1e-15: the rest is
        # the float64 Sturm counts' rounding on entries near 4/h^2 = 16384
        check = self._checks(units)["dirac-energy-map"]
        assert check["passed"]
        assert check["measured"] < 2e-13


    def test_each_state_level_is_built_once(self, monkeypatch):
        # dirac-energy-map and the state checks read the same EnergyLevel
        energy_of = cli.spectrum.energy
        built = []

        def counted(qn, params):
            built.append(qn)
            return energy_of(qn, params)

        monkeypatch.setattr(cli.spectrum, "energy", counted)
        config = RunConfig(command="verify", m=3, n_max=4)
        assert all(c["passed"] for c in run_verification_checks(config))
        assert built == [QuantumNumbers(n, 3) for n in range(5)]


class TestKummerBudget:
    """Kummer work counted through the module attributes.

    A verify makes no per-state ``kummer_m`` call.
    The psi1 family reads each state's terms M(a+k, b+k), k <= 2, from one
    degree recurrence over the column b = (m+1, m+2, m+3): n_max + 1 steps
    in place, on four state and five scratch arrays allocated once for the
    pass.  Three streams of one b took 3 n_max steps, and summing each term
    on its own took 3(n_max + 1) - 1 calls and 631 series passes at
    n_max 20.  The kummer-laguerre check compares those rows with an exact
    table, so it runs no recurrence of its own.
    ``spinor_sample`` and a lone coupled residual sum each term as before:
    psi1 and psi2 on the grid, then at the point; psi1's first two terms,
    of which the lower component always takes the second over (3 calls per
    state, 2 at n = 0, where M(a+2, b+2) has weight zero).  The counts do
    not depend on the machine.
    """

    @staticmethod
    def _count(monkeypatch, name, owners):
        calls = []
        original = getattr(specfun, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for owner in owners:
            monkeypatch.setattr(owner, name, counted)
        return calls

    @pytest.fixture
    def calls(self, monkeypatch):
        return self._count(monkeypatch, "kummer_m", (specfun, wavefn))

    @pytest.mark.parametrize("m", [0, 3])
    @pytest.mark.parametrize("n_max", [5, 20])
    def test_verify_budget(self, calls, monkeypatch, m, n_max):
        streams = self._count(monkeypatch, "_degree_rows", (specfun, wavefn))
        steps = self._count(monkeypatch, "_degree_step", (specfun,))
        run_verification_checks(RunConfig(command="verify", m=m, n_max=n_max))
        assert calls == []
        assert len(streams) == 1
        (b, z), = streams
        assert b.tolist() == [[m + 1.0], [m + 2.0], [m + 3.0]]
        # on the t-trapezoid nodes' z, not the 4097-point grid's
        rho = oracle.trapezoid_nodes(m, n_max, 1.0).samples
        assert z.tobytes() == units.to_dimensionless_z(rho, natural_params()).tobytes()
        assert len(steps) == n_max + 1
        assert all(np.array_equal(step[1], b) and step[-1] is specfun._IN_PLACE for step in steps)
        # (M, D) and the scratch r are the same nine arrays at every step
        assert len({id(x) for _, _, _, m_, d, r, _ in steps for x in (*m_, *d, *r)}) == 9

    def test_spinor_sample_budget(self, calls):
        p = natural_params()
        qn = QuantumNumbers(n=7, m=2)
        spinor_sample(qn, 1.7, 0.4, energy(qn, p).E, p)
        assert len(calls) == 4  # psi1 and psi2 on the grid, then at the point

    @pytest.mark.parametrize(
        "n, m, derive_first",
        [(0, 0, False), (0, 3, False), (3, 2, False), (7, 0, False), (0, 3, True), (7, 0, True)],
        ids=["0-0", "0-3", "3-2", "7-0", "0-3-derive-first", "7-0-derive-first"],
    )
    def test_lone_coupled_residual_budget(self, calls, n, m, derive_first):
        # the lower component reads M(a+1, b+1) from psi1, which sums it if
        # it does not hold it yet, so a derived lower component's values
        # read before the residual sum no row twice
        p = natural_params()
        qn = QuantumNumbers(n, m)
        level = energy(qn, p)
        psi1 = wavefn.radial_psi1(qn, wavefn.default_grid(qn, p), p)
        if derive_first:
            wavefn.derive_lower_component(psi1, level.E).values
        oracle.coupled_residual(level, psi1)
        assert len(calls) == (2 if n == 0 else 3)


class TestZBudget:
    """z = gamma rho**2 formed per ``verify``: once on the t-trapezoid nodes,
    for the psi1 family, whose states, derived lower components and
    kummer-laguerre samples share it.  It was formed on the 4097-point grid
    until those checks moved to the nodes, and each state formed it three
    times before that (65 calls at n_max 20, m 3).  ``wavefn`` forms it
    once, for psi1, whose lower component and z column read it.  The counts
    do not depend on the machine.
    """

    @pytest.fixture
    def shapes(self, monkeypatch):
        shapes = []
        original = units.to_dimensionless_z

        def counted(rho, params):
            shapes.append(np.shape(rho))
            return original(rho, params)

        # cli imports no copy; raising=False counts one that is added back
        for owner in (units, wavefn, cli):
            monkeypatch.setattr(owner, "to_dimensionless_z", counted, raising=False)
        return shapes

    @pytest.mark.parametrize("m, n_max, nodes", [(0, 5, 214), (3, 20, 145)], ids=["0-5", "3-20"])
    def test_verify_forms_z_once_per_grid(self, shapes, m, n_max, nodes):
        run_verification_checks(RunConfig(command="verify", m=m, n_max=n_max))
        assert shapes == [(nodes,)]

    def test_wavefn_forms_z_once(self, shapes, tmp_path):
        config = RunConfig(command="wavefn", n=7, m=2, output=str(tmp_path / "w.csv"))
        _, rows = read_csv(cmd_wavefn(config))
        assert shapes == [(4097,)]
        rho = np.array([float(row["rho"]) for row in rows])
        z = np.array([float(row["z"]) for row in rows])
        want = units.to_dimensionless_z(rho, config.params())
        assert z.tobytes() == want.tobytes()


class TestFactorBudget:
    """The factors of z formed per ``verify``, counted through ``wavefn.np``.

    The psi1 family reads one table, on the t-trapezoid nodes' z (the
    4097-point grid's until the closed-form checks moved), and stacks its
    states as the rows of one function, which samples its profile there
    once, at the highest order read: psi1 at order 2 for both residuals,
    and its derived lower component at order 1 for the coupled residual.
    The interior samples are slices of those.  The table forms exp(-z/2)
    once and z**(mu/2) once per mu: mu = m for psi1 and m + 1 for the
    lower component.  Each state was sampled on its own, psi1 at order 2
    and its lower component at order 1, 2(n_max + 1) evaluations, until
    the states were stacked.  An interior table of its own formed
    exp(-z/2) and both powers again, on z[1:-1], and psi1 was sampled a
    second time for its values: 5 factor arrays and 3 evaluations per
    state.  Each of four evaluations per state formed them afresh before
    that: 84 exps and 84 powers at n_max 20.  The counts do not depend on
    the machine.
    """

    @pytest.mark.parametrize("m, n_max, nodes", [(0, 5, 214), (3, 20, 145)], ids=["0-5", "3-20"])
    def test_verify_forms_each_factor_once_per_table(self, m, n_max, nodes, monkeypatch):
        formed, sampled = [], []

        class CountedNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, x):
                formed.append(("exp", x.shape))
                return np.exp(x)

            def power(self, z, p):
                formed.append(("power", z.shape, p))
                return np.power(z, p)

        derivatives = wavefn.KummerProfile.derivatives

        def counted(profile, z, order=2):
            sampled.append((profile.mu, np.shape(getattr(z, "z", z)), order))
            return derivatives(profile, z, order)

        monkeypatch.setattr(wavefn, "np", CountedNumpy())
        monkeypatch.setattr(wavefn.KummerProfile, "derivatives", counted)
        run_verification_checks(RunConfig(command="verify", m=m, n_max=n_max))
        assert sorted(formed, key=repr) == sorted(
            [
                ("exp", (nodes,)),
                ("power", (nodes,), 0.5 * m),
                ("power", (nodes,), 0.5 * (m + 1)),
            ],
            key=repr,
        )
        # the stacked psi1 at order 2, and its lower component at order 1
        assert sampled == [(m, (nodes,), 2), (m + 1, (nodes,), 1)]

    @pytest.mark.parametrize(
        "m, n_max, calls", [(0, 5, 1), (3, 5, 1), (0, 20, 1), (3, 20, 1), (0, 60, 3)]
    )
    def test_verify_calls_each_residual_once_per_block(self, m, n_max, calls, monkeypatch):
        # a call per state until the states were stacked; a block holds
        # 2**13 // nodes states (291 nodes at n_max 60, 28 states a block)
        made = []
        for name in ("ode_residual", "coupled_residual"):

            def counted(*args, residual=getattr(oracle, name), name=name):
                made.append(name)
                return residual(*args)

            monkeypatch.setattr(oracle, name, counted)
        config = RunConfig(command="verify", m=m, n_max=n_max)
        assert all(c["passed"] for c in run_verification_checks(config))
        assert made == ["ode_residual", "coupled_residual"] * calls


class TestSolverRows:
    """Sturm counts, Newton passes and rows they visit during ``verify``.

    Each pass walks the whole diagonal once.  On the full 4097-point grid
    the n_max 20, m 3 report visited 1,916,460 rows; the extrapolated levels
    read grids of 513 and 1025 points (572,193 rows, then 445,892 with the
    Newton start from earlier levels).  Reusing a bracket end's count where
    a shift rounds the diagonal as that end did left 226,009.  Starting the
    1025-point solve from the 513-point levels, and skipping the isolating
    bisection of every level predicted inside its bracket, left 170,777.
    Those levels were of the second-order radial operator, n_max + 2 of
    them; n_max + 1 levels of the Dirac operator B B^T left 121,170.
    Solving the first three levels on 65 and 129 points first, and starting
    the 513- and 1025-point solves from their extrapolations, left 111,027:
    the head grids add passes, but short ones, and every head level of the
    two large grids then takes one Newton pass.  Predicting each started
    level at its start, not shifted by the offset the level before it
    showed, and galloping from one ulp of the Newton iterate, not from half
    the rounding cell of the shifted diagonal, leaves 102,467; the
    129-point solve takes one more Newton pass.  Grids of K intervals of
    b/32 and 2K of b/64, K = 16 ceil(2(s + 4)) for the top state's turning
    point s b, in place of 513 and 1025 points over 12 b, leave 92,738:
    the n_max 20, m 3 grids hold 431 and 863 rows.
    The counts do not depend on the machine.
    """

    @staticmethod
    def _passes(monkeypatch, m, n_max):
        passes = []  # (name, rows) per pass

        def counted(fn):
            def wrapper(diag, *args):
                passes.append((fn.__name__, len(diag)))
                return fn(diag, *args)

            return wrapper

        for name in ("_negative_pivot_count", "_newton_pass"):
            monkeypatch.setattr(oracle, name, counted(getattr(oracle, name)))
        run_verification_checks(RunConfig(command="verify", m=m, n_max=n_max))
        return passes

    # rows per verify at the perfbench (m, n_max); on 513 and 1025 points over
    # 12 b 34,602, 35,487, 103,122 and 102,467, with shifted starts and the
    # rounding-cell gallop step 36,516, 38,936, 106,569 and 111,027, and
    # before the 65- and 129-point head solves 52,663, 49,079, 122,716 and 121,170
    ROWS = {(0, 5): 16_176, (3, 5): 22_100, (0, 20): 71_300, (3, 20): 92_738}

    @pytest.mark.parametrize("m, n_max", sorted(ROWS))
    def test_verify_visits_an_eighth_of_the_full_grid_rows(self, m, n_max, monkeypatch):
        passes = self._passes(monkeypatch, m, n_max)
        assert sum(rows for _, rows in passes) <= self.ROWS[m, n_max]

    # (Sturm counts, Newton passes) per verify and operator size (rows); on
    # 513 and 1025 points over 12 b they were (46, 40), (51, 46), (104, 70)
    # and (113, 76) in total, with shifted starts and the rounding-cell gallop step
    # (53, 39), (59, 45), (114, 69) and (130, 75); on 511 and 1023 rows alone
    # (43, 30), (40, 33), (104, 60) and (111, 63), on the radial operator
    # (52, 29), (60, 32), (148, 59) and (169, 62), and with every level
    # isolated by bisection (72, 33), (85, 39), (196, 63) and (226, 69)
    PASSES = {
        (0, 5): {63: (15, 17), 127: (8, 13), 287: (8, 6), 575: (7, 6)},
        (3, 5): {63: (18, 14), 127: (9, 13), 303: (12, 7), 607: (13, 6)},
        (0, 20): {63: (13, 18), 127: (9, 14), 431: (29, 21), 863: (31, 21)},
        (3, 20): {63: (14, 15), 127: (9, 14), 431: (48, 24), 863: (45, 21)},
    }

    @pytest.mark.parametrize("m, n_max", sorted(PASSES))
    def test_counts_and_newton_passes_are_pinned(self, m, n_max, monkeypatch):
        passes = self._passes(monkeypatch, m, n_max)
        names = ("_negative_pivot_count", "_newton_pass")
        pinned = {rows: tuple(passes.count((name, rows)) for name in names) for _, rows in passes}
        assert pinned == self.PASSES[m, n_max]


class TestNrLimitCommand:
    def test_reported_example_row(self, tmp_path):
        config = RunConfig(
            command="nr-limit", n_max=0, lambdas=(1e-4,), output=str(tmp_path / "n.csv")
        )
        _, rows = read_csv(cmd_nr_limit(config))
        assert len(rows) == 1
        assert_allclose(float(rows[0]["E_exact"]), 1.000199980004, rtol=1e-12)
        assert_allclose(float(rows[0]["E_three_term"]), 1.00019998, rtol=1e-12)

    def test_rejects_out_of_range_lambda(self, tmp_path):
        for lam in (0.0, 0.5):
            config = RunConfig(
                command="nr-limit", lambdas=(lam,), output=str(tmp_path / "n.csv")
            )
            with pytest.raises(ValueError):
                cmd_nr_limit(config)

    def test_cubic_error_scaling(self, tmp_path):
        config = RunConfig(
            command="nr-limit", n_max=4, output=str(tmp_path / "n.csv")
        )
        _, rows = read_csv(cmd_nr_limit(config))
        by_key = {
            (float(r["lambda"]), int(r["n"])): float(r["abs_error"]) for r in rows
        }
        for n in range(5):
            assert 500.0 < by_key[(1e-2, n)] / by_key[(1e-3, n)] < 2000.0
            assert 500.0 < by_key[(1e-3, n)] / by_key[(1e-4, n)] < 2000.0

    def test_scaled_error_column_stable_per_level(self, tmp_path):
        config = RunConfig(
            command="nr-limit", n_max=2, output=str(tmp_path / "n.csv")
        )
        _, rows = read_csv(cmd_nr_limit(config))
        for n in range(3):
            scaled = [
                float(r["error_over_lambda_cubed"])
                for r in rows
                if int(r["n"]) == n
            ]
            assert max(scaled) / min(scaled) < 2.0

    def test_error_grows_with_n(self, tmp_path):
        config = RunConfig(
            command="nr-limit", n_max=4, lambdas=(1e-3,), output=str(tmp_path / "n.csv")
        )
        _, rows = read_csv(cmd_nr_limit(config))
        errors = [float(r["abs_error"]) for r in rows]
        assert all(a < b for a, b in zip(errors, errors[1:]))


class TestMainEntry:
    def test_spectrum_via_argv(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["spectrum", "--n-max", "2", "--output", "out.csv"])
        assert code == 0
        assert (tmp_path / "out.csv").exists()

    def test_unknown_flag_is_error(self):
        with pytest.raises(SystemExit) as err:
            main(["spectrum", "--frobnicate", "1"])
        assert err.value.code == 2

    def test_verify_exit_status_reflects_failure(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setitem(cli.TOLERANCES, "fd-spectrum", 1e-16)
        code = main(["verify", "--n-max", "0", "--output", "v.csv"])
        assert code == 1
        assert (tmp_path / "v.csv").exists()

    def test_output_dir_environment_override(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "elsewhere"
        monkeypatch.setenv("DIRAC2D_OUTPUT_DIR", str(target))
        code = main(["spectrum", "--n-max", "1", "--output", "s.csv"])
        assert code == 0
        assert (target / "s.csv").exists()
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["spectrum", "--n-max", "-1"], "n_max must be >= 0"),
            (["wavefn", "--n", "-1"], "n and m must be non-negative"),
        ],
        ids=["spectrum", "wavefn"],
    )
    def test_negative_index_returns_two(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x.csv"
        assert main([*argv, "--output", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, index, message",
        [
            ("spectrum --n-max 0 --m", 10**400, "m lies past float64's largest value"),
            ("spectrum --n-max 0 --m", 10**308, "k1 = 2(m + 1) + 4(n + 1) of level n=0 leaves"),
            ("wavefn --n 0 --m", 10**400, "m lies past float64's largest value"),
            ("wavefn --m 0 --n", 10**400, "n lies past float64's largest value"),
            ("verify --n-max 0 --m", 10**400, "must be below 4096"),
            ("verify --n-max", 10**400, "must be below 4096"),
        ],
    )
    def test_an_index_past_float64_returns_two(self, argv, index, message, tmp_path, capsys):
        # 10**400 raised an OverflowError (exit 1, which verify reports as a
        # failed check), and spectrum wrote k1 = inf at 10**308 with exit 0
        out = tmp_path / "x.csv"
        assert main([*argv.split(), str(index), "--output", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
        assert list(tmp_path.iterdir()) == []

    def test_bad_config_returns_two(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["nr-limit", "--lambdas", "0.5"])
        assert code == 2

    @pytest.mark.parametrize("lambdas", ["", ","])
    def test_empty_lambda_list_returns_two(self, lambdas, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["nr-limit", "--lambdas", lambdas, "--output", "nr.csv"])
        assert code == 2
        assert "at least one" in capsys.readouterr().err
        assert not (tmp_path / "nr.csv").exists()

    def test_overflowing_energy_returns_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["spectrum", "--omega", "1e308", "--n-max", "2", "--output", "s.csv"])
        assert code == 2
        assert "n=0 overflows at lam=1e+308" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_lambda_whose_cube_underflows_returns_two(self, tmp_path, monkeypatch, capsys):
        # lambda**3 underflowed to 0 and the error column divided by it
        monkeypatch.chdir(tmp_path)
        code = main(["nr-limit", "--lambdas", "1e-300", "--output", "nr.csv"])
        assert code == 2
        assert "lambda=1e-300" in capsys.readouterr().err
        assert not (tmp_path / "nr.csv").exists()

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (["wavefn", "--n", "0", "--m0", "1e-200", "--omega", "1e-200"], "= 0.0"),
            (["verify", "--n-max", "0", "--m0", "1e-170", "--omega", "1e-170"], "= 0.0"),
            (["verify", "--n-max", "0", "--m0", "1e200", "--omega", "1e200"], "= inf"),
        ],
    )
    def test_mass_frequency_product_out_of_float64_returns_two(
        self, argv, shown, tmp_path, monkeypatch, capsys
    ):
        # m0*omega underflowed (a ZeroDivisionError from oscillator_length)
        # or overflowed (a refusal naming rho_max, which was never set)
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--output", "out.csv"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: m0*omega/hbar {shown} is not a positive finite ratio"
        ]
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("points", ["3", "5", "17"])
    def test_grid_too_coarse_for_the_state_is_refused(
        self, points, tmp_path, monkeypatch, capsys
    ):
        # 3 points once wrote R1_normalized 1.24e5 at rho 0, 5 points 1.46,
        # where about 0.48 is right: the trapezoid and Simpson norms part
        monkeypatch.chdir(tmp_path)
        assert main(["wavefn", "--grid-points", points, "--output", "w.csv"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: trapezoid and Simpson norms differ by ")
        assert line.endswith("use more --grid-points")
        assert not (tmp_path / "w.csv").exists()

    def test_coarsest_grid_let_through_writes_a_normalized_table(self, tmp_path, monkeypatch):
        # n 0, m 0 parts its norms most at 129 points over n <= 26 (about
        # 1.1e-3), still inside the 1e-2 refusal bound
        monkeypatch.chdir(tmp_path)
        assert main(["wavefn", "--grid-points", "129", "--output", "w.csv"]) == 0
        _, rows = read_csv(tmp_path / "w.csv")
        assert len(rows) == 129
        assert _trapezoid(rows, "probability_density") == pytest.approx(1.0, abs=1e-12)

    def test_turning_point_past_64_b_is_refused(self, tmp_path, monkeypatch, capsys):
        # the one extent rule admits 4(n + 1) + 2m below 4096, as verify's does
        monkeypatch.chdir(tmp_path)
        assert main(["wavefn", "--n", "1023", "--output", "w.csv"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: 4(n + 1) + 2m must be below 4096 (a turning point inside 64 b)"
        ]
        assert list(tmp_path.iterdir()) == []

    def test_grid_points_validated(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["wavefn", "--grid-points", "100"])
        assert code == 2


def _trapezoid(rows, column):
    rho = [float(r["rho"]) for r in rows]
    f = [float(r[column]) for r in rows]
    h = (rho[-1] - rho[0]) / (len(rho) - 1)
    return h * (0.5 * f[0] + sum(f[1:-1]) + 0.5 * f[-1])


class TestExtremeScales:
    """Inputs whose plain sums leave float64, driven through ``main``.

    Each run either exits 2 with one stderr line and no file, or writes a
    file whose floats are all finite and correct.  The coupled residual read
    exactly 0.0 where the mean square of its dominant term overflowed, and
    the wavefn table was all zeros where its norm integral did (A = 0).
    """

    @staticmethod
    def _run(argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main([*argv, "--output", "out.csv"])
        err = capsys.readouterr().err.splitlines()
        out = tmp_path / "out.csv"
        if code == 2:
            assert len(err) == 1 and err[0].startswith("error: ")
            assert not out.exists()
            return code, err[0], None
        header, rows = read_csv(out)
        floats = [r[k] for r in rows for k in header if k not in ("name", "passed", "detail")]
        assert all(math.isfinite(float(v)) for v in floats)
        return code, None, rows

    def test_huge_frequency_reads_a_true_coupled_residual(
        self, tmp_path, monkeypatch, capsys
    ):
        argv = "verify --omega 1e300 --n-max 6 --m 38".split()
        code, _, rows = self._run(argv, tmp_path, monkeypatch, capsys)
        assert code == 0
        coupled = {r["name"]: float(r["measured"]) for r in rows}["coupled-residual"]
        assert 0.0 < coupled < 1e-15

    def test_rest_energy_at_the_float64_limit_is_refused(
        self, tmp_path, monkeypatch, capsys
    ):
        # E + m0 c^2 overflowed: the lower component's coefficient became 0
        # and the coupled residual formed inf * 0.  Its lam is subnormal, so
        # the run is refused before any state is built; the API refuses E.
        argv = [
            "verify", "--m0", "1.7976931348623157e308", "--n-max", "6", "--m", "27",
        ]
        code, err, _ = self._run(argv, tmp_path, monkeypatch, capsys)
        assert code == 2
        assert "hbar*omega/(m0*c^2) = 5.562684646268003e-309 is below" in err
        p = natural_params()
        qn = QuantumNumbers(0, 0)
        psi1 = wavefn.radial_psi1(qn, wavefn.RadialGrid(12.0, 65), p)
        level = energy(qn, p)
        for E in (math.inf, math.nan, -1.0):
            with pytest.raises(ValueError, match=r"E \+ m0 c\^2 must be positive and finite"):
                wavefn.derive_lower_component(psi1, E)
            with pytest.raises(ValueError, match=r"E \+ m0 c\^2 must be positive and finite"):
                oracle.coupled_residual(dataclasses.replace(level, E=E), psi1)

    @pytest.mark.parametrize("m0, code", [("1e270", 2), ("1e250", 0)])
    def test_subnormal_frequency_ratio_is_refused(self, m0, code, tmp_path, monkeypatch, capsys):
        # lam 1.4e-317 lost digits: coupled-residual read 1.03e-7 and passed
        argv = f"verify --units si --m0 {m0} --omega 1.2e4 --n-max 2".split()
        status, err, rows = self._run(argv, tmp_path, monkeypatch, capsys)
        assert status == code
        if code == 2:
            assert "is below float64's normal range" in err
        else:
            coupled = {r["name"]: float(r["measured"]) for r in rows}["coupled-residual"]
            assert coupled < 1e-15

    @staticmethod
    def _user_run(argv, cwd):
        """A subprocess sees what a user sees, here with RuntimeWarning as an error."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        command = [sys.executable, "-W", "error::RuntimeWarning", "-m", "dirac2d.cli"]
        return subprocess.run(
            [*command, *argv.split()], cwd=cwd, env=env, capture_output=True, text=True
        )

    def test_prefactor_outside_float64_is_one_refusal(self, tmp_path):
        # four RuntimeWarning lines from exp(-z/2) * z**100 = 0 * inf came
        # before the refusal at m = 200 on a 40 b grid; its own 28 b grid
        # holds z**100, and at m = 250 z**125 leaves float64 inside its 30 b
        done = self._user_run("wavefn --n 0 --m 250 --output w.csv", tmp_path)
        assert done.returncode == 2
        assert done.stderr.splitlines() == [
            "error: coeff exp(-z/2) z**(mu/2) leaves float64 at z = 292.48"
        ]
        assert list(tmp_path.iterdir()) == []
        done = self._user_run("wavefn --n 0 --m 200 --output w.csv", tmp_path)
        assert done.returncode == 0 and done.stderr == ""
        _, rows = read_csv(tmp_path / "w.csv")
        assert _trapezoid(rows, "probability_density") == pytest.approx(1.0, abs=1e-12)

    def test_verify_past_the_norm_constant_is_one_refusal(self, tmp_path):
        # the sign test multiplied neighbouring psi1 samples, which overflowed
        # past 1e154: two RuntimeWarning lines, or under -W error a traceback
        # and exit 1, which reads as a failed check
        done = self._user_run("verify --m 200 --n-max 0 --output v.csv", tmp_path)
        assert done.returncode == 2
        assert done.stderr.splitlines() == [
            "error: the norm constant at n=0, m=200 leaves float64"
        ]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv", ["wavefn --m0 1e-300 --n 14 --m 32", "wavefn --omega 1e-300 --n 26 --m 26"]
    )
    def test_wavefn_norm_outside_float64(self, argv, tmp_path, monkeypatch, capsys):
        # the plain norm integral leaves float64; the rescaled one writes a
        # normalized table.  A fixed 12 b grid refused both states as truncated.
        code, _, rows = self._run(argv.split(), tmp_path, monkeypatch, capsys)
        assert code == 0
        assert any(float(r["R1_normalized"]) for r in rows)
        assert _trapezoid(rows, "probability_density") == pytest.approx(1.0, abs=1e-12)


# The RunConfig fields each command's output depends on.
READS = {
    "spectrum": {"n_max", "m", "omega", "m0", "units", "fmt", "output"},
    "wavefn": {
        "n", "m", "omega", "m0", "units", "grid_points", "fmt", "output"
    },
    "verify": {"n_max", "m", "omega", "m0", "units", "fmt", "output"},
    "nr-limit": {"n_max", "lambdas", "fmt", "output"},
}

# (command, flag, value) that the command refuses: each flag it once parsed
# and ignored, then prefixes of flags it reads
REFUSED = [
    ("spectrum", "--rho-max", "20"),
    ("spectrum", "--grid-points", "1025"),
    ("spectrum", "--tolerance", "ode-residual=1"),
    ("wavefn", "--n-max", "3"),
    ("wavefn", "--rho-max", "12"),
    ("wavefn", "--tolerance", "ode-residual=1"),
    ("nr-limit", "--m", "3"),
    ("nr-limit", "--omega", "0.5"),
    ("nr-limit", "--m0", "2"),
    ("nr-limit", "--units", "si"),
    ("nr-limit", "--rho-max", "20"),
    ("nr-limit", "--grid-points", "1025"),
    ("nr-limit", "--tolerance", "ode-residual=1"),
    ("verify", "--tolerance", "fd-spectrum=1"),
    ("verify", "--rho-max", "12"),
    ("verify", "--grid-points", "4097"),
    ("spectrum", "--n", "7"),
    ("verify", "--n", "3"),
    ("nr-limit", "--n", "2"),
    ("verify", "--grid", "1025"),
]


class TestSingleDeclaration:
    @pytest.mark.parametrize("command", ["spectrum", "wavefn", "verify", "nr-limit"])
    def test_parser_dests_are_config_fields(self, command):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        dests = {a.dest for a in sub.choices[command]._actions} - {"help"}
        assert dests == READS[command]

    @pytest.mark.parametrize("command, flag, value", REFUSED)
    def test_flag_the_command_does_not_read_is_refused(
        self, command, flag, value, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            main([command, flag, value])
        assert err.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_main_builds_one_parser_that_keeps_no_state(self, tmp_path, monkeypatch):
        # a refused parse, or a flag repeated in one call, leaves nothing
        # behind for the next call
        monkeypatch.chdir(tmp_path)
        configs = []

        def recorded(args):
            configs.append(config_from_args(args))
            return configs[-1]

        monkeypatch.setattr(cli, "config_from_args", recorded)
        with pytest.raises(SystemExit):
            main(["verify", "--n", "3"])
        argv = ["verify", "--n-max", "0", "--output", "v.csv"]
        assert main([*argv, "--m", "1", "--m", "2"]) == 0
        assert main(argv) == 0
        assert [c.m for c in configs] == [2, 0]
        assert cli._parser.cache_info().misses == 1

    @pytest.mark.parametrize("command", ["spectrum", "wavefn", "verify", "nr-limit"])
    def test_defaults_come_from_config(self, command):
        args = build_parser().parse_args([command])
        assert config_from_args(args) == RunConfig(command=command)

    def test_json_config_has_one_key_per_field(self, tmp_path):
        # the command and the fields its flags set, in declaration order
        sizes = {"spectrum": 7, "wavefn": 8, "verify": 7, "nr-limit": 4}
        for command, size in sizes.items():
            out = tmp_path / f"{command}.json"
            argv = [command, "--format", "json", "--output", str(out)]
            argv += ["--n-max", "0"] if command in ("verify", "nr-limit") else []
            assert main(argv) == 0
            config = json.loads(out.read_text())["config"]
            names = [f for f in CONFIG_FIELDS if f in READS[command] - {"output"}]
            expected = ["command"] + ["format" if f == "fmt" else f for f in names]
            assert list(config) == expected and len(expected) == size
        assert config["lambdas"] == list(RunConfig(command="nr-limit").lambdas)


# Cells the writers meet: the float edge cases, numpy floats (which repr as
# np.float64(...) in numpy 2), ints, None, bools and strings with quotes,
# backslashes, percent signs and non-ASCII characters.
FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e308, -1e308])
TEXT = st.text() | st.sampled_from(['"', "\\", '\\"%s', "%%", "é", "ψ₁ \u2028"])
CELLS = st.one_of(
    st.none(), st.booleans(), st.integers(), FLOATS, FLOATS.map(np.float64), TEXT
)


@st.composite
def tables(draw, min_columns=0):
    """A table as the commands hand it on: column name -> list or array."""
    size = draw(st.integers(0, 10))
    names = draw(st.lists(TEXT, min_size=min_columns, max_size=4, unique=True))
    floats = st.lists(FLOATS, min_size=size, max_size=size)
    column = st.one_of(
        floats,
        floats.map(lambda cells: np.array(cells, dtype=float)),
        st.lists(CELLS, min_size=size, max_size=size),
    )
    return {name: draw(column) for name in names}


def _outcome(render):
    """The rendered text, or ValueError if rendering refused a float."""
    try:
        return render()
    except ValueError:
        return ValueError


def _per_cell_csv(table):
    """The per-cell reference: each cell of each row through _fmt_csv."""
    lines = [",".join(table)]
    for row in zip(*table.values()):
        lines.append(",".join(cli._fmt_csv(cell) for cell in row))
    return "\n".join(lines) + "\n"


class TestColumnwiseRendering:
    """The row-template writers match json.dumps and the per-cell CSV path.

    Each runs with pieces of 1, 2 and 3 rows and of its own size, so the
    tables, up to ten rows (and the long example), span several pieces.
    """

    PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)
    EDGES = {"x": np.array([-0.0, 5e-324, 1e308, 0.1]), "n": [0, 1, True, None]}
    LONG = {  # three pieces and one row at the writers' own piece size
        "x": np.random.default_rng(0).standard_normal(3 * cli._PIECE_ROWS + 1) * 1e-300,
        "n": list(range(3 * cli._PIECE_ROWS + 1)),
        "E": [0.1 * k for k in range(3 * cli._PIECE_ROWS + 1)],
    }

    @staticmethod
    def _joined(render):
        """render()'s pieces joined, or ValueError, at each piece size."""
        out = []
        for rows in (1, 2, 3, cli._PIECE_ROWS):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cli, "_PIECE_ROWS", rows)
                out.append(_outcome(lambda: "".join(render())))
        return out

    @PROPERTY
    @example(table=EDGES, checks=[], command="wavefn")
    @example(table=LONG, checks=[{"measured": 0.5}], command="verify")
    @given(
        table=tables(),
        checks=st.lists(st.dictionaries(TEXT, CELLS, max_size=3), max_size=2),
        command=st.sampled_from(sorted(cli.COMMANDS)),
    )
    def test_json_equals_json_dumps_of_the_row_dicts(self, table, checks, command):
        config = RunConfig(command=command, fmt="json")
        rows = [dict(zip(table, row)) for row in zip(*table.values())]
        payload = {"config": config.to_dict(), "rows": rows, "checks": checks}
        expected = _outcome(lambda: json.dumps(payload, indent=2, allow_nan=False) + "\n")
        assert self._joined(lambda: cli._render_json(config, table, checks)) == [expected] * 4

    @PROPERTY
    @example(table=EDGES)
    @example(table=LONG)
    @given(table=tables(min_columns=1))
    def test_csv_equals_the_per_cell_path(self, table):
        assert self._joined(lambda: cli._render_csv(table)) == [_per_cell_csv(table)] * 4


class TestPiecewiseWriting:
    """Tables are built and written in pieces; a refusal leaves nothing behind."""

    @staticmethod
    def _assert_nothing_written(tmp_path, capsys, argv, fmt="json"):
        out = tmp_path / "new_dir" / f"x.{fmt}"
        assert main([*argv, "--format", fmt, "--output", str(out)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert list(tmp_path.rglob("*")) == []  # no file, no *.tmp, no new_dir

    def test_non_finite_table_float_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # the float sits in the last row, past the first piece
        emit = cli._emit

        def with_inf(config, table, checks):
            return emit(config, {**table, "z": np.append(table["z"][:-1], np.inf)}, checks)

        monkeypatch.setattr(cli, "_emit", with_inf)
        self._assert_nothing_written(tmp_path, capsys, ["wavefn", "--n", "2"])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_refusal_past_the_first_piece_writes_nothing(self, tmp_path, capsys, monkeypatch, fmt):
        # spectrum and nr-limit build their rows a piece at a time, so the
        # level that is refused at n = 300 comes after the first piece is written
        energy = cli.spectrum.energy

        def refused_at_300(qn, params):
            if qn.n == 300:
                raise ValueError("energy of level n=300 overflows")
            return energy(qn, params)

        monkeypatch.setattr(cli.spectrum, "energy", refused_at_300)
        for argv in (["spectrum", "--n-max", "400"], ["nr-limit", "--n-max", "400"]):
            self._assert_nothing_written(tmp_path, capsys, argv, fmt)

    @pytest.mark.parametrize("command", ["spectrum", "nr-limit"])
    def test_a_non_finite_cell_past_the_first_piece_writes_nothing(
        self, tmp_path, capsys, monkeypatch, command
    ):
        energy = cli.spectrum.energy

        def nan_at_300(qn, params):
            level = energy(qn, params)
            return dataclasses.replace(level, E=math.nan) if qn.n == 300 else level

        monkeypatch.setattr(cli.spectrum, "energy", nan_at_300)
        self._assert_nothing_written(tmp_path, capsys, [command, "--n-max", "400"])

    def test_non_finite_check_writes_nothing(self, tmp_path, capsys, monkeypatch):
        checks = [cli._check("fd-spectrum", math.nan, 1e-3)]
        monkeypatch.setattr(cli, "run_verification_checks", lambda config: checks)
        self._assert_nothing_written(tmp_path, capsys, ["verify"])

    def test_temporary_file_removed_when_pieces_raise(self, tmp_path):
        def pieces():
            yield "first piece\n"
            raise ValueError("a later piece fails")

        with pytest.raises(ValueError, match="a later piece fails"):
            cli._write_atomic(tmp_path / "x.json", pieces())
        assert list(tmp_path.iterdir()) == []

    def test_importing_the_cli_leaves_hashlib_out(self):
        # a fresh interpreter: the temporary file's random name comes from
        # os.urandom, and secrets would import hashlib and OpenSSL's _hashlib
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = "import sys, dirac2d.cli; print(sorted({'hashlib', '_hashlib'} & sys.modules.keys()))"
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_output_mode_follows_the_umask(self, tmp_path, umask, mode):
        # mkstemp made every table 0600 whatever the umask
        out = tmp_path / "s.csv"
        previous = os.umask(umask)
        try:
            assert main(["spectrum", "--n-max", "2", "--output", str(out)]) == 0
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == mode
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_does_not_grow_with_the_rows(self, tmp_path, fmt):
        # 65,537 rows of five float columns: rendering the whole file at
        # once peaks at 29 MB (CSV) and 58 MB (JSON) of Python allocations,
        # the pieces at about 0.15 MB
        x = np.linspace(0.0, 12.0, 65537)
        table = {name: x * (k + 1.1) for k, name in enumerate("abcde")}
        config = RunConfig(command="wavefn", fmt=fmt, output=str(tmp_path / f"w.{fmt}"))
        tracemalloc.start()
        try:
            cli._emit(config, table, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("command, fmt", [("spectrum", "json"), ("nr-limit", "csv")])
    def test_rows_are_built_a_piece_at_a_time(self, tmp_path, command, fmt):
        # they were built whole before the first write: at n_max 20000,
        # 8.5 MB (spectrum) and 19.5 MB (nr-limit) of Python allocations at
        # their peaks, ten times those at n_max 2000
        peaks = []
        for n_max in (2000, 20000):
            config = RunConfig(command=command, n_max=n_max, fmt=fmt, output=str(tmp_path / "t"))
            tracemalloc.start()
            try:
                cli.COMMANDS[command][1](config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0]
