import json
import math
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dirac2d import (
    QuantumNumbers,
    energy,
    natural_params,
    oracle,
    specfun,
    spinor_sample,
    wavefn,
)
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

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(command="verify", tolerances={"bogus": 1.0})

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
        original = oracle.smallest_eigenvalues

        def scaled(op, count):
            return [1.01 * k1 for k1 in original(op, count)]

        monkeypatch.setattr(oracle, "smallest_eigenvalues", scaled)
        check = self._checks(units)["dirac-energy-map"]
        assert not check["passed"]
        assert check["measured"] > 1e-2

    @pytest.mark.parametrize("units", ["natural", "si"])
    def test_true_levels_pass_with_a_discretization_error(self, units):
        check = self._checks(units)["dirac-energy-map"]
        assert check["passed"]
        assert 1e-7 < check["measured"] < 1e-3


class TestKummerBudget:
    """kummer_m and laguerre calls, counted through the module attributes.

    A verified state sums psi1's ladder M(a+k, b+k), k <= 2, once on its
    grid: the values read its first term and both residuals its interior
    slice, and the derived lower component reads it from its second term on
    without being sampled.  The node-count profile adds one call.  The psi2
    ansatz M(-n, m+1) of state n is psi1's profile at state n-1, so only
    n = 0 sums it, in place of the ladder term M(0, b+1) that stops there:
    4 calls per state.  The kummer-laguerre table makes one kummer_m and one
    laguerre call per n <= 20.  Summing the values, the lower component and
    the ansatz separately took 7 calls per state (6 at n = 0); calling
    laguerre pair by pair took 231.  The counts do not depend on the
    machine.
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

    @pytest.fixture
    def laguerre_calls(self, monkeypatch):
        return self._count(monkeypatch, "laguerre", (specfun,))

    @pytest.mark.parametrize("m", [0, 3])
    @pytest.mark.parametrize("n_max", [5, 20])
    def test_verify_budget(self, calls, laguerre_calls, m, n_max):
        run_verification_checks(RunConfig(command="verify", m=m, n_max=n_max))
        assert len(calls) == 4 * (n_max + 1) + 21
        assert len(laguerre_calls) == 21

    def test_spinor_sample_budget(self, calls):
        p = natural_params()
        qn = QuantumNumbers(n=7, m=2)
        spinor_sample(qn, 1.7, 0.4, energy(qn, p).E, p)
        assert len(calls) == 4  # psi1 and psi2 on the grid, then at the point


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

    def test_grid_points_validated(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["wavefn", "--grid-points", "100"])
        assert code == 2


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

    @pytest.mark.parametrize("command", ["spectrum", "wavefn", "verify", "nr-limit"])
    def test_defaults_come_from_config(self, command):
        args = build_parser().parse_args([command])
        assert config_from_args(args) == RunConfig(command=command)

    def test_json_config_has_one_key_per_field(self, tmp_path):
        out = tmp_path / "s.json"
        code = main(["spectrum", "--n-max", "1", "--format", "json", "--output", str(out)])
        assert code == 0
        expected = ["format" if f == "fmt" else f for f in CONFIG_FIELDS if f != "output"]
        assert list(json.loads(out.read_text())["config"]) == expected
