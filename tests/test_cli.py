import dataclasses
import json
import math
import os
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
            grid_points=1025,
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
            grid_points=1025,
            fmt="json",
            output=str(tmp_path / "v.json"),
        )
        path, _ = cmd_verify(config)
        assert len(json.loads(path.read_text())["checks"]) >= 6

    def test_impossible_tolerance_fails_honestly(self, tmp_path):
        config = RunConfig(
            command="verify",
            n_max=0,
            grid_points=1025,
            fmt="json",
            output=str(tmp_path / "v.json"),
            tolerances={"fd-spectrum": 1e-16},
        )
        path, passed = cmd_verify(config)
        assert not passed
        payload = json.loads(path.read_text())
        by_name = {c["name"]: c for c in payload["checks"]}
        assert not by_name["fd-spectrum"]["passed"]
        assert by_name["node-counts"]["passed"]

    def test_grid_too_coarse_to_extrapolate_is_refused(self, tmp_path, capsys):
        # 505 points give a 63-point coarse grid, below the operator's 64
        out = tmp_path / "v.csv"
        code = main(["verify", "--grid-points", "505", "--output", str(out)])
        assert code == 2
        assert "--grid-points 513" in capsys.readouterr().err
        assert not out.exists()
        main(["verify", "--grid-points", "513", "--output", str(out)])
        _, rows = read_csv(out)
        by_name = {row["name"]: row for row in rows}
        assert "from 65 and 129 points" in by_name["fd-spectrum"]["detail"]
        assert by_name["fd-spectrum"]["passed"] == "true"
        assert by_name["dirac-energy-map"]["passed"] == "true"

    def test_more_levels_than_the_coarse_grid_holds_are_refused(self, tmp_path, capsys):
        # n_max 70 reads 71 levels; 513 points give a coarse grid of 63
        # interior rows, where the refusal named the operator dimension
        out = tmp_path / "v.csv"
        argv = ["verify", "--grid-points", "513", "--n-max", "70", "--output", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "too few to extrapolate 71 levels" in err
        assert "--grid-points 577" in err
        assert not out.exists()

    def test_node_counts_check_is_live(self, monkeypatch):
        # node-counts reads the sign changes of the verified psi1 samples: a
        # profile with one node too many, M(-(n+2), m+1), must fail it
        config = RunConfig(command="verify", n_max=2, grid_points=1025)
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
        # itself at z_max, which the 8 samples include, must fail it
        config = RunConfig(command="verify", n_max=2, grid_points=1025)
        checks = {c["name"]: c for c in run_verification_checks(config)}
        assert checks["kummer-laguerre"]["passed"]
        assert checks["kummer-laguerre"]["detail"] == "n <= 3 and alpha 0..2 at 8 z up to 144"
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

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(command="verify", tolerances={"bogus": 1.0})

    def test_unknown_command_rejected(self):
        # the JSON config block reads the command's flags from COMMANDS
        with pytest.raises(ValueError, match="unknown command"):
            RunConfig(command="bogus")

    @pytest.mark.parametrize("value", ["inf", "nan", "-1e-3"])
    def test_tolerance_that_is_not_finite_or_is_negative_is_refused(
        self, tmp_path, capsys, value
    ):
        # inf passed every check and nan failed them; both wrote non-JSON
        out = tmp_path / "v.json"
        argv = ["verify", "--n-max", "0", "--format", "json", "--output", str(out)]
        assert main([*argv, "--tolerance", f"fd-spectrum={value}"]) == 2
        err = capsys.readouterr().err
        assert "fd-spectrum tolerance must be finite and >= 0" in err
        assert not out.exists()

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
            grid_points=1025,
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
        config = RunConfig(command="verify", units=units, n_max=1, grid_points=1025)
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
        # measured 1.3e-14 (natural) and 1.8e-14 (si)
        check = self._checks(units)["dirac-energy-map"]
        assert check["passed"]
        assert check["measured"] < 1e-13


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
        (b, _), = streams
        assert b.tolist() == [[m + 1.0], [m + 2.0], [m + 3.0]]
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
        # it does not hold it yet, so the order of the two reads does not
        # matter; derived first, it was summed twice (4 calls, 3 at n = 0)
        p = natural_params()
        qn = QuantumNumbers(n, m)
        level = energy(qn, p)
        psi1 = wavefn.radial_psi1(qn, wavefn.default_grid(p), p)
        lower = wavefn.derive_lower_component(psi1, level.E) if derive_first else None
        oracle.coupled_residual(level, psi1, lower)
        assert len(calls) == (2 if n == 0 else 3)


class TestZBudget:
    """z = gamma rho**2 formed per ``verify``: once on the grid, for the psi1
    family, whose states, derived lower components and kummer-laguerre
    samples share it.  Each state formed it three times before (65 calls at
    n_max 20, m 3).  ``wavefn`` forms it once, for psi1, whose lower
    component and z column read it.  The counts do not depend on the
    machine.
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

    @pytest.mark.parametrize("m, n_max", [(0, 5), (3, 20)])
    def test_verify_forms_z_once_per_grid(self, shapes, m, n_max):
        run_verification_checks(RunConfig(command="verify", m=m, n_max=n_max))
        assert shapes == [(4097,)]

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

    The psi1 family reads one table, on the grid's z, and each function
    samples its profile there once, at the highest order read: psi1 at
    order 2 for both residuals, and its derived lower component at order 1
    for the coupled residual.  The interior samples are slices of those.
    The table forms exp(-z/2) once and z**(mu/2) once per mu: mu = m for
    psi1 and m + 1 for the lower component.  An interior table of its own
    formed exp(-z/2) and both powers again, on z[1:-1], and psi1 was
    sampled a second time for its values: 5 factor arrays and 3
    evaluations per state.  Each of four evaluations per state formed them
    afresh before that: 84 exps and 84 powers at n_max 20.  The counts do
    not depend on the machine.
    """

    @pytest.mark.parametrize("m, n_max", [(0, 5), (3, 20)])
    def test_verify_forms_each_factor_once_per_table(self, m, n_max, monkeypatch):
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
                ("exp", (4097,)),
                ("power", (4097,), 0.5 * m),
                ("power", (4097,), 0.5 * (m + 1)),
            ],
            key=repr,
        )
        # per state psi1 at order 2, and the lower component at order 1
        want = [(m, (4097,), 2), (m + 1, (4097,), 1)] * (n_max + 1)
        assert sampled == want


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
    the 513- and 1025-point solves from their extrapolations, leaves
    111,027: the head grids add passes, but short ones, and every head level
    of the two large grids then takes one Newton pass.
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

    # rows per verify at the perfbench (m, n_max), and before the 65- and
    # 129-point head solves: 52,663, 49,079, 122,716 and 121,170
    ROWS = {(0, 5): 36_516, (3, 5): 38_936, (0, 20): 106_569, (3, 20): 111_027}

    @pytest.mark.parametrize("m, n_max", sorted(ROWS))
    def test_verify_visits_an_eighth_of_the_full_grid_rows(self, m, n_max, monkeypatch):
        passes = self._passes(monkeypatch, m, n_max)
        assert sum(rows for _, rows in passes) <= self.ROWS[m, n_max]

    # (Sturm counts, Newton passes) per verify and operator size (rows); on
    # 511 and 1023 rows alone they were (43, 30), (40, 33), (104, 60) and
    # (111, 63), on the radial operator (52, 29), (60, 32), (148, 59) and
    # (169, 62), and with every level isolated by bisection (72, 33),
    # (85, 39), (196, 63) and (226, 69)
    PASSES = {
        (0, 5): {63: (14, 14), 127: (11, 13), 511: (12, 6), 1023: (16, 6)},
        (3, 5): {63: (17, 17), 127: (11, 13), 511: (17, 9), 1023: (14, 6)},
        (0, 20): {63: (14, 14), 127: (11, 13), 511: (42, 21), 1023: (47, 21)},
        (3, 20): {63: (17, 17), 127: (11, 13), 511: (63, 24), 1023: (39, 21)},
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
        code = main(
            [
                "verify",
                "--n-max",
                "0",
                "--grid-points",
                "1025",
                "--tolerance",
                "fd-spectrum=1e-16",
                "--output",
                "v.csv",
            ]
        )
        assert code == 1
        assert (tmp_path / "v.csv").exists()

    def test_long_grid_verify_writes_report(self, tmp_path):
        # z reaches 676 on this grid; the n = 0 derivatives once evaluated a
        # zero-weight non-terminating Kummer term there and did not converge
        out = tmp_path / "v.csv"
        code = main(["verify", "--n-max", "0", "--rho-max", "26", "--output", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header[0] == "name"
        assert len(rows) == 7
        assert all(row["passed"] == "true" for row in rows)

    def test_output_dir_environment_override(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "elsewhere"
        monkeypatch.setenv("DIRAC2D_OUTPUT_DIR", str(target))
        code = main(["spectrum", "--n-max", "1", "--output", "s.csv"])
        assert code == 0
        assert (target / "s.csv").exists()
        assert not (tmp_path / "s.csv").exists()

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

    def test_truncated_wavefn_returns_two(self, tmp_path, monkeypatch, capsys):
        # n = 120 reaches about 22 oscillator lengths; the default grid stops at 12
        monkeypatch.chdir(tmp_path)
        code = main(["wavefn", "--n", "120", "--output", "w.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert "estimated tail mass" in err and "enlarge the grid" in err
        assert not (tmp_path / "w.csv").exists()
        wide = ["wavefn", "--n", "120", "--rho-max", "26", "--output", "w.csv"]
        assert main(wide) == 0
        assert (tmp_path / "w.csv").exists()

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

    def test_rho_max_beyond_the_operator_returns_two(self, tmp_path, monkeypatch, capsys):
        # 1/h to the fourth power, which the Sturm counts reach, leaves float64
        monkeypatch.chdir(tmp_path)
        argv = ["verify", "--rho-max", "1e-300", "--n-max", "0", "--output", "v.csv"]
        assert main(argv) == 2
        assert "rho_max=1e-300" in capsys.readouterr().err
        assert not (tmp_path / "v.csv").exists()

    @pytest.mark.parametrize(
        "rho_max, shown",
        [("1e-70", "beyond rho_max"), ("1e5", "rho_max=100000.0"), ("1e60", "rho_max=1e+60")],
    )
    def test_an_extent_without_a_report_returns_two(
        self, rho_max, shown, tmp_path, monkeypatch, capsys
    ):
        # at 1e5 and 1e60 rounding swamps the operator's levels, which read
        # -65.9 and -1.1e108, where sqrt(1 + x) would fail; at 1e-70 the
        # grid truncates every state
        monkeypatch.chdir(tmp_path)
        argv = ["verify", "--rho-max", rho_max, "--n-max", "0", "--output", "v.csv"]
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and shown in line
        assert not (tmp_path / "v.csv").exists()

    def test_overflowing_z_is_refused_without_a_warning(self, tmp_path):
        # a subprocess sees what a user sees: numpy's RuntimeWarning printed
        # before the refusal, which pytest would raise as an error instead
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-m", "dirac2d.cli", "wavefn", "--rho-max", "1e300"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert done.returncode == 2
        assert done.stderr.splitlines() == [
            "error: z = gamma * rho**2 overflows float64 at rho=1e+300"
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
        argv = "verify --omega 1e300 --grid-points 513 --n-max 6 --m 38".split()
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
            "verify", "--m0", "1.7976931348623157e308", "--grid-points", "513",
            "--n-max", "6", "--m", "27",
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

    def test_prefactor_outside_float64_is_one_refusal(self, tmp_path):
        # a subprocess sees what a user sees: four RuntimeWarning lines from
        # exp(-z/2) * z**100 = 0 * inf came before the refusal
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        argv = "wavefn --n 0 --m 200 --rho-max 40 --output w.csv".split()
        done = subprocess.run(
            [sys.executable, "-m", "dirac2d.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert done.returncode == 2
        assert done.stderr.splitlines() == [
            "error: coeff exp(-z/2) z**(mu/2) leaves float64 at z = 1210.01"
        ]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, wider",
        [
            ("wavefn --m0 1e-300 --n 14 --m 32", "--rho-max 14"),
            ("wavefn --omega 1e-300 --n 26 --m 26 --grid-points 65", "--rho-max 15"),
        ],
    )
    def test_wavefn_norm_outside_float64(self, argv, wider, tmp_path, monkeypatch, capsys):
        # the states reach past 12 oscillator lengths, in natural units too;
        # on a longer grid the rescaled norm writes a normalized table
        code, err, _ = self._run(argv.split(), tmp_path, monkeypatch, capsys)
        assert code == 2
        assert "estimated tail mass" in err
        code, _, rows = self._run([*argv.split(), *wider.split()], tmp_path, monkeypatch, capsys)
        assert code == 0
        assert any(float(r["R1_normalized"]) for r in rows)
        assert _trapezoid(rows, "probability_density") == pytest.approx(1.0, abs=1e-12)


# The RunConfig fields each command's output depends on.
READS = {
    "spectrum": {"n_max", "m", "omega", "m0", "units", "fmt", "output"},
    "wavefn": {
        "n", "m", "omega", "m0", "units", "rho_max_in_b", "grid_points", "fmt", "output"
    },
    "verify": {
        "n_max", "m", "omega", "m0", "units", "rho_max_in_b", "grid_points", "fmt",
        "output", "tolerances",
    },
    "nr-limit": {"n_max", "lambdas", "fmt", "output"},
}

# (command, flag, value) that the command refuses: each flag it once parsed
# and ignored, then prefixes of flags it reads
REFUSED = [
    ("spectrum", "--rho-max", "20"),
    ("spectrum", "--grid-points", "1025"),
    ("spectrum", "--tolerance", "ode-residual=1"),
    ("wavefn", "--n-max", "3"),
    ("wavefn", "--tolerance", "ode-residual=1"),
    ("nr-limit", "--m", "3"),
    ("nr-limit", "--omega", "0.5"),
    ("nr-limit", "--m0", "2"),
    ("nr-limit", "--units", "si"),
    ("nr-limit", "--rho-max", "20"),
    ("nr-limit", "--grid-points", "1025"),
    ("nr-limit", "--tolerance", "ode-residual=1"),
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
        assert main([*argv, "--tolerance", "ode-residual=1", "--tolerance", "normalization=1"]) == 0
        assert main(argv) == 0
        assert [c.tolerances for c in configs] == [{"ode-residual": 1.0, "normalization": 1.0}, {}]
        assert cli._parser.cache_info().misses == 1

    @pytest.mark.parametrize("command", ["spectrum", "wavefn", "verify", "nr-limit"])
    def test_defaults_come_from_config(self, command):
        args = build_parser().parse_args([command])
        assert config_from_args(args) == RunConfig(command=command)

    def test_json_config_has_one_key_per_field(self, tmp_path):
        # the command and the fields its flags set, in declaration order
        sizes = {"spectrum": 7, "wavefn": 9, "verify": 10, "nr-limit": 4}
        for command, size in sizes.items():
            out = tmp_path / f"{command}.json"
            argv = [command, "--format", "json", "--output", str(out)]
            argv += ["--n-max", "0"] if command in ("verify", "nr-limit") else []
            assert main(argv) == 0
            config = json.loads(out.read_text())["config"]
            names = [f for f in CONFIG_FIELDS if f in READS[command] - {"output"}]
            expected = ["command"] + ["format" if f == "fmt" else f for f in names]
            assert list(config) == expected and len(expected) == size
            if command == "verify":
                assert len(config["tolerances"]) == 7
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
    """Tables are written in pieces; a refusal comes before the first write."""

    @staticmethod
    def _assert_nothing_written(tmp_path, capsys, argv):
        out = tmp_path / "new_dir" / "x.json"
        assert main([*argv, "--format", "json", "--output", str(out)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert list(tmp_path.rglob("*")) == []  # no file, no *.tmp, no new_dir

    def test_non_finite_table_float_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # the float sits in the last row, past the first piece
        emit = cli._emit

        def with_inf(config, table, checks):
            return emit(config, {**table, "z": np.append(table["z"][:-1], np.inf)}, checks)

        monkeypatch.setattr(cli, "_emit", with_inf)
        self._assert_nothing_written(tmp_path, capsys, ["wavefn", "--n", "2"])

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
