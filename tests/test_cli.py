from pathlib import Path

import numpy as np
import pytest

from attswitch import cli, harness
from attswitch.cli import main, parse_args
from attswitch.controllers import GAIN_KEYS

TABLE_TARGETS = {
    (2.0, 150.0): 7.97,
    (3.0, 120.0): 7.60,
    (4.0, 100.0): 7.24,
    (2.0, 100.0): 6.10,
    (2.0, 210.0): 5.90,
}


def _counted_runs(monkeypatch):
    """A list that gets one entry per ``harness.run_scenario`` call."""
    runs, run = [], harness.run_scenario

    def counted(scenario):
        runs.append(scenario.name)
        return run(scenario)

    monkeypatch.setattr(harness, "run_scenario", counted)
    return runs


def _below_a_file(tmp_path):
    """An --out path whose nearest existing path is a regular file."""
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    return blocker / "run"


def _key_values(path):
    """The ``key = value`` lines of a params.txt or report header, as text."""
    lines = (line.partition(" = ") for line in path.read_text().splitlines())
    return {key: value for key, sep, value in lines if sep}


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--ic", "2,150"],
        ["compare", "--repeats", "2"],
        ["sweep", "--wz", "2,2,1", "--psi", "150,150,1", "--horizon", "0.2"],
    ],
    ids=lambda args: args[0],
)
def test_out_below_a_file_refused_before_the_first_run(tmp_path, capsys, monkeypatch, args):
    # compare --repeats 2 used to make all 20 runs before the exit 2; the
    # refusal creates nothing
    runs = _counted_runs(monkeypatch)
    out = _below_a_file(tmp_path)
    assert main(args + ["--out", str(out)]) == 2
    assert runs == [] and out.parent.is_file()
    assert f"Not a directory: '{out}'" in capsys.readouterr().err


class TestParseArgs:
    def test_table_defaults(self):
        args = parse_args(["table1"])
        assert args.command == "table1"
        assert args.kq is None

    def test_simulate_ic(self):
        args = parse_args(["simulate", "--ic", "4,100", "--controller", "switching"])
        assert args.ic == "4,100"
        assert args.controller == "switching"

    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as e:
            parse_args(["simulate", "--warp", "9"])
        assert e.value.code == 1

    def test_missing_command_usage_error(self):
        with pytest.raises(SystemExit) as e:
            parse_args([])
        assert e.value.code == 1

    def test_bad_controller_usage_error(self):
        with pytest.raises(SystemExit) as e:
            parse_args(["simulate", "--controller", "plaid"])
        assert e.value.code == 1

    # the parser is built once per process and parses every argv after that

    def test_a_flag_reads_as_its_default_in_the_next_parse(self):
        cli._parser.cache_clear()
        assert parse_args(["simulate", "--seed", "5", "--kq", "3"]).seed == 5
        args = parse_args(["simulate"])
        assert args.seed is None and args.kq is None and args.out == "out/simulate"
        assert parse_args(["compare", "--seed", "5"]).seed == 5
        assert parse_args(["compare"]).seed == 0
        assert cli._parser.cache_info().misses == 1

    def test_a_usage_error_twice(self, capsys):
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as e:
                parse_args(["simulate", "--warp", "9"])
            assert e.value.code == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].endswith("attswitch: error: unrecognized arguments: --warp 9\n")

    @pytest.mark.parametrize(
        "argv, usage",
        [(["--help"], "usage: attswitch [-h]"), (["simulate", "--help"], "usage: attswitch simulate")],
        ids=("top", "simulate"),
    )
    def test_help_twice(self, capsys, argv, usage):
        cli._parser.cache_clear()
        outs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as e:
                parse_args(argv)
            assert e.value.code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[0].startswith(usage)


class TestTableCommand:
    def test_prints_five_reference_rows(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.strip().splitlines() if not l.startswith("wz,")]
        assert len(lines) == 5
        for line in lines:
            parts = line.split(",")
            key = (float(parts[0]), float(parts[1]))
            assert float(parts[4]) == pytest.approx(TABLE_TARGETS[key], abs=0.005)

    def test_negative_gain_rejected(self, capsys):
        assert main(["table1", "--kq", "-5"]) == 1
        assert "error" in capsys.readouterr().err

    def test_writes_report_when_out_given(self, tmp_path, capsys):
        out = tmp_path / "table"
        assert main(["table1", "--out", str(out)]) == 0
        assert (out / "report.txt").exists()

    def test_out_below_dev_null_prints_nothing(self, capsys):
        assert main(["table1", "--out", "/dev/null/x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Not a directory" in captured.err

    @pytest.mark.parametrize("command", ["table1", "stability-report"])
    def test_out_below_a_file_prints_nothing(self, tmp_path, capsys, command):
        # report.txt is written before the text is printed: the whole table
        # used to be printed before the exit 2
        out = _below_a_file(tmp_path)
        assert main([command, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Not a directory" in captured.err


class TestSimulateCommand:
    @pytest.mark.parametrize("horizon", ["1.0004", "0.0025"])
    def test_horizon_between_steps_runs(self, tmp_path, horizon):
        # round(h/dt) steps end short of h, so one more step is taken
        out = tmp_path / "run"
        assert main(["simulate", "--ic", "2,150", "--horizon", horizon, "--out", str(out)]) == 0
        report = dict(
            line.split(" = ", 1) for line in (out / "report.txt").read_text().splitlines()[1:]
        )
        assert float(report["tf"]) == float(horizon)
        last = (out / "telemetry.csv").read_text().splitlines()[-1]
        assert float(last.split(",", 1)[0]) >= float(horizon)

    def test_run_directory_contents_exact(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            [
                "simulate",
                "--ic",
                "4,100",
                "--controller",
                "switching",
                "--horizon",
                "0.5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["report.txt", "scenario.txt", "telemetry.csv"]
        report = (out / "report.txt").read_text()
        assert "switch_count = 1" in report
        assert "sigma_t0 = -1" in report
        stdout = capsys.readouterr().out
        assert "gamma_tau" in stdout

    def test_near_zero_ic_gives_negligible_effort(self, tmp_path, capsys):
        out = tmp_path / "zero"
        code = main(
            ["simulate", "--ic", "0,0.0001", "--horizon", "0.2", "--out", str(out)]
        )
        assert code == 0
        report = (out / "report.txt").read_text()
        gamma = float(next(l for l in report.splitlines() if l.startswith("gamma_tau")).split("=")[1])
        assert gamma < 1e-6

    def test_byte_stable_outputs(self, tmp_path, capsys):
        args = ["simulate", "--ic", "2,100", "--horizon", "0.2"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "telemetry.csv").read_bytes() == (out2 / "telemetry.csv").read_bytes()
        assert (out1 / "scenario.txt").read_bytes() == (out2 / "scenario.txt").read_bytes()

    @pytest.mark.parametrize("flag,value", [("--dt", "inf"), ("--dt", "nan"), ("--horizon", "inf")])
    def test_nonfinite_step_or_horizon_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "run"
        args = ["simulate", "--mode", "stage3", "--ic", "2,150", flag, value, "--out", str(out)]
        assert main(args) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["stage3", "full"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_stage1_usage_error(self, tmp_path, capsys, mode, value):
        out = tmp_path / "run"
        args = ["simulate", "--mode", mode, "--ic", "2,150", "--stage1", value, "--out", str(out)]
        assert main(args) == 1
        assert "stage1_duration must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_horizon_shorter_than_a_step_usage_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        args = ["simulate", "--mode", "stage3", "--ic", "2,150", "--horizon", "1e-9"]
        assert main(args + ["--out", str(out)]) == 1
        assert "shorter than one step" in capsys.readouterr().err
        assert not out.exists()

    def test_step_past_rate_loop_limit_usage_error(self, tmp_path, capsys):
        # dt * kw = 2.1: the held-torque rate loop diverges, and the run
        # used to finish with exit 0 and torques of order 1e4 N m
        out = tmp_path / "run"
        args = ["simulate", "--ic", "2,150", "--dt", "0.021", "--out", str(out)]
        assert main(args) == 1
        assert "must be below 2" in capsys.readouterr().err
        assert not out.exists()

    def test_switching_step_past_its_rate_loop_limit_usage_error(self, tmp_path, capsys):
        # dt * (kw + kn/2) = 2.0475: the switching run used to exit 0 after
        # 71 switches, 3.17 deg from the target and spinning at 3.95 rad/s
        out = tmp_path / "run"
        args = ["simulate", "--ic", "2,150", "--dt", "0.0195", "--horizon", "12"]
        assert main(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "dt * (kw + kn/2) = 2.0475 must be below 2" in err and "switching law" in err
        assert not out.exists()

    def test_overflowing_derived_gain_constant_usage_error(self, tmp_path, capsys, monkeypatch):
        # 0.5/kq overflows: the run used to finish and then exit 2 on a
        # non-finite V; GainSet now refuses it before the run
        runs = _counted_runs(monkeypatch)
        out = tmp_path / "run"
        args = ["simulate", "--ic", "2,150", "--kq", "1e-309", "--kw", "1e-300", "--kn", "1e-300"]
        assert main(args + ["--c", "1", "--out", str(out)]) == 1
        assert "non-finite nu_weight = inf" in capsys.readouterr().err
        assert runs == [] and not out.exists()

    @pytest.mark.parametrize("controller", ["benchmark", "continuous"])
    def test_step_within_the_rate_loop_limit_of_a_law_without_kn_runs(self, tmp_path, controller):
        out = tmp_path / "run"
        args = ["simulate", "--ic", "2,150", "--dt", "0.0195", "--controller", controller]
        assert main(args + ["--horizon", "0.5", "--out", str(out)]) == 0
        assert (out / "report.txt").exists()

    @pytest.mark.parametrize("ic", ["0,150", "-2,150"])
    def test_full_mode_yaw_rate_not_positive_usage_error(self, tmp_path, capsys, ic):
        # the stage-2 yaw never reaches psi0; -2,150 used to integrate the
        # whole run before failing with exit 2
        out = tmp_path / "run"
        assert main(["simulate", "--mode", "full", f"--ic={ic}", "--out", str(out)]) == 1
        assert "positive yaw rate" in capsys.readouterr().err
        assert not out.exists()

    def test_full_mode_yaw_rate_whose_square_underflows_usage_error(self, tmp_path, capsys):
        # 1e-200 squares to 0, and the stage-2 allowance 1.5 psi0/|w0| used
        # to raise ZeroDivisionError with a traceback
        out = tmp_path / "run"
        assert main(["simulate", "--mode", "full", "--ic", "1e-200,150", "--out", str(out)]) == 1
        assert "wz = 1e-200, whose square underflows to 0" in capsys.readouterr().err
        assert not out.exists()

    def test_full_mode_allowance_past_step_limit_names_wz(self, tmp_path, capsys):
        # 1e-160 squares to a subnormal, so ManeuverSpec takes it; its stage-2
        # allowance 1.5 psi0/|w0| + 0.5 s is what makes the run too long
        out = tmp_path / "run"
        assert main(["simulate", "--mode", "full", "--ic", "1e-160,150", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "stage 2 at wz = 1e-160 rad/s (1.5 psi0/|w0| + 0.5 s = 3.93e+160 s)" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, term",
        [("--stage1", "stage 1 (2e+04 s) + stage 2 at wz = 2.0 rad/s (1.5 psi0/|w0| + 0.5 s = 2.46 s)"
                      " + the horizon (3 s)"),
         ("--horizon", "stage 1 (1 s) + stage 2 at wz = 2.0 rad/s (1.5 psi0/|w0| + 0.5 s = 2.46 s)"
                       " + the horizon (2e+04 s)")],
        ids=["stage1", "horizon"],
    )
    def test_full_mode_run_past_step_limit_names_each_term(self, tmp_path, capsys, flag, term):
        # the refusal used to name only the stage-2 allowance, 2.46 s, as if
        # it made a run that stage 1 or the horizon makes 2e4 s long
        out = tmp_path / "run"
        args = ["simulate", "--mode", "full", "--ic", "2,150", flag, "2e4", "--out", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"full mode runs {term} = 2e+04 s, so the run takes 2e+07 steps" in err
        assert not out.exists()

    def test_inertia_whose_inverse_is_not_finite_usage_error(self, tmp_path, capsys):
        # a subnormal principal moment has an inf inverse entry; the run used
        # to fail at its first step with exit 2
        out = tmp_path / "run"
        assert main(["simulate", "--ic", "2,150", "--j", "1e-309,1,1", "--out", str(out)]) == 1
        assert "inverse" in capsys.readouterr().err
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize(
        "args, shown",
        [(["--ic", "2,420"], "420.0"), (["--mode", "full", "--ic", "2,360"], "360.0"),
         (["--ic", "2,0"], "0.0"), (["--ic", "2,nan"], "nan")],
    )
    def test_ic_yaw_off_range_refused_in_degrees(self, tmp_path, capsys, monkeypatch, args, shown):
        # 420 deg used to be refused in radians, as "psi0 must lie in
        # (0, 2*pi), got 7.33...", naming neither the key nor the degrees
        runs = _counted_runs(monkeypatch)
        out = tmp_path / "run"
        assert main(["simulate", *args, "--out", str(out)]) == 1
        assert f"psi0_deg must lie in (0, 360) deg, got {shown}\n" in capsys.readouterr().err
        assert runs == [] and not out.exists()

    def test_scenario_file_yaw_off_range_refused_in_degrees(self, tmp_path, capsys, monkeypatch):
        runs = _counted_runs(monkeypatch)
        scenario = tmp_path / "case.txt"
        scenario.write_text("wz = 2\npsi0_deg = 400\n")
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
        assert "psi0_deg must lie in (0, 360) deg, got 400\n" in capsys.readouterr().err
        assert runs == [] and not out.exists()

    def test_yaw_just_below_360_degrees_runs_and_echoes(self, tmp_path):
        out = tmp_path / "run"
        args = ["simulate", "--ic", "2,359.9999999999999", "--horizon", "0.01"]
        assert main(args + ["--out", str(out)]) == 0
        assert "psi0_deg = 359.9999999999999\n" in (out / "scenario.txt").read_text()

    @pytest.mark.parametrize(
        "args",
        [
            # stage 2 sized from a 1e-13 rad/s yaw rate: a 1.91 EiB state array
            ["--mode", "full", "--ic=1e-13,150"],
            # 1e12 steps: 50.9 TiB of trajectory arrays
            ["--ic=2,150", "--horizon", "1e9"],
        ],
    )
    def test_run_past_step_limit_usage_error(self, tmp_path, capsys, args):
        out = tmp_path / "run"
        assert main(["simulate", *args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "more than the 10000000 a run may take" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_stage3_mode_negative_yaw_rate_runs(self, tmp_path, capsys):
        out = tmp_path / "run"
        args = ["simulate", "--mode", "stage3", "--ic=-2,150", "--horizon", "0.5"]
        assert main(args + ["--out", str(out)]) == 0
        assert (out / "telemetry.csv").exists()

    def test_missing_ic_usage_error(self, capsys):
        assert main(["simulate"]) == 1
        assert "initial condition" in capsys.readouterr().err

    def test_malformed_ic_usage_error(self, capsys):
        assert main(["simulate", "--ic", "4;100"]) == 1

    def test_unwritable_out_is_runtime_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code = main(
            ["simulate", "--ic", "2,100", "--horizon", "0.1", "--out", str(blocker)]
        )
        assert code == 2

    def test_failed_telemetry_write_leaves_no_earlier_report(self, tmp_path, capsys):
        # the benchmark run's scenario.txt sat beside the switching run's
        # report.txt after its telemetry write failed
        out = tmp_path / "run"
        assert main(["simulate", "--ic", "2,150", "--horizon", "0.1", "--out", str(out)]) == 0
        (out / "telemetry.csv").unlink()
        (out / "telemetry.csv").mkdir()
        args = ["simulate", "--ic", "3,120", "--controller", "benchmark", "--horizon", "0.1"]
        assert main(args + ["--out", str(out)]) == 2
        assert "cannot write telemetry to" in capsys.readouterr().err
        assert "controller = benchmark" in (out / "scenario.txt").read_text()
        assert not (out / "report.txt").exists()

    def test_scenario_file_with_flag_override(self, tmp_path, capsys):
        scenario = tmp_path / "case.txt"
        scenario.write_text(
            "name = filecase\n"
            "mode = stage3\n"
            "controller = switching\n"
            "wz = 4\n"
            "psi0_deg = 100\n"
            "horizon = 0.3\n"
        )
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
        assert "name = filecase" in (out / "scenario.txt").read_text()
        # flag overrides the file value
        out2 = tmp_path / "run2"
        assert (
            main(
                [
                    "simulate",
                    "--scenario",
                    str(scenario),
                    "--ic",
                    "2,100",
                    "--out",
                    str(out2),
                ]
            )
            == 0
        )
        assert "wz = 2" in (out2 / "scenario.txt").read_text()

    def test_scenario_file_reproduces_its_run(self, tmp_path, capsys):
        # "%.12g" echoed wz = 2.12345678901 and kq = 10, so a run from the
        # echo integrated another IC with other gains
        first, again = tmp_path / "first", tmp_path / "again"
        args = ["simulate", "--ic", "2.123456789012345,150.123456789", "--kq", "10.00000000000001"]
        assert main(args + ["--out", str(first)]) == 0
        assert main(["simulate", "--scenario", str(first / "scenario.txt"), "--out", str(again)]) == 0
        for name in ("telemetry.csv", "report.txt", "scenario.txt"):
            assert (first / name).read_bytes() == (again / name).read_bytes(), name

    @pytest.mark.parametrize("name", ["a#b", " a", "a ", "a\nb", "a\rb", "a\x85b"])
    def test_name_scenario_file_cannot_hold_usage_error(self, tmp_path, capsys, monkeypatch, name):
        # "a#b" was echoed and read back as "a"; refused now before the run
        monkeypatch.setattr(harness, "run_scenario", lambda scenario: pytest.fail("ran"))
        out = tmp_path / "run"
        assert main(["simulate", "--ic", "2,150", f"--name={name}", "--out", str(out)]) == 1
        assert "cannot be held by scenario.txt" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_scenario_key_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("up = down\n")
        assert main(["simulate", "--scenario", str(bad)]) == 1

    def test_repeated_scenario_key_usage_error(self, tmp_path, capsys, monkeypatch):
        # the last dt was kept, so this file ran at 0.002
        runs = _counted_runs(monkeypatch)
        scenario = tmp_path / "case.txt"
        scenario.write_text("wz = 2\npsi0_deg = 150\ndt = 0.001\nhorizon = 0.1\ndt = 0.002\n")
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
        assert f"{scenario}:5: repeated scenario key 'dt'" in capsys.readouterr().err
        assert runs == [] and not out.exists()

    def test_unknown_controller_in_scenario_file_usage_error(self, tmp_path, capsys, monkeypatch):
        runs = _counted_runs(monkeypatch)
        scenario = tmp_path / "case.txt"
        scenario.write_text("wz = 2\npsi0_deg = 150\ncontroller = plaid\nkq = 20\n")
        assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "run")]) == 1
        assert "unknown controller 'plaid'" in capsys.readouterr().err
        assert runs == []

    def test_missing_scenario_file_usage_error(self, capsys):
        assert main(["simulate", "--scenario", "nope.txt"]) == 1

    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_unreadable_scenario_file_usage_error(self, tmp_path, capsys, monkeypatch, kind):
        # the --scenario path's role decides the exit code, not the errno:
        # a directory (IsADirectoryError) exits 1 as a missing file does
        runs = _counted_runs(monkeypatch)
        scenario = tmp_path if kind == "directory" else tmp_path / "nope.txt"
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
        assert f"cannot read the scenario file {scenario}" in capsys.readouterr().err
        assert runs == [] and not out.exists()

    def test_out_missing_parent_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        # a write that fails with FileNotFoundError is a runtime error too
        def mkdir(self, *args, **kwargs):
            raise FileNotFoundError(2, "No such file or directory", str(self))

        monkeypatch.setattr(Path, "mkdir", mkdir)
        out = tmp_path / "run"
        assert main(["simulate", "--ic", "2,100", "--horizon", "0.1", "--out", str(out)]) == 2
        assert "attswitch: runtime error: " in capsys.readouterr().err


class TestStabilityReportCommand:
    def test_prints_spectrum_and_cmax(self, capsys):
        assert main(["stability-report"]) == 0
        out = capsys.readouterr().out
        assert "lambda_unstable = 5.04759" in out
        assert "lambda_stable = -100.04759" in out
        assert "c_max = 400" in out
        assert "[initial_conditions]" in out


class TestCompareCommand:
    def test_report_written(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["compare", "--repeats", "1", "--out", str(out)]) == 0
        text = (out / "report.txt").read_text()
        assert "mean_mismatch_reduction_percent" in text
        assert "ic_4_100,switching," in text
        assert (out / "params.txt").exists()

    def test_params_read_back_exactly(self, tmp_path, monkeypatch):
        # params.txt and the report header printed "%g": 0.123457 and 0.0123457,
        # and params.txt had no dt
        used = {}

        def comparison(repeats, perturbation, dt, seed):
            used.update(
                perturbation_psi0_deg=perturbation.psi0_deg, perturbation_wz=perturbation.wz, dt=dt
            )
            return harness.ComparisonReport(repeats, perturbation, rows=[])

        monkeypatch.setattr(harness, "effort_comparison", comparison)
        out = tmp_path / "cmp"
        args = ["compare", "--perturb-psi", "0.123456789", "--perturb-wz", "0.0123456789",
                "--dt", "0.0009999999999999998", "--out", str(out)]
        assert main(args) == 0
        params = _key_values(out / "params.txt")
        # one name per input: params.txt uses the report header's names
        assert params.keys() == {
            "repeats", "seed", "perturbation_psi0_deg", "perturbation_wz", "dt"
        }
        assert {k: float(params[k]) for k in used} == used
        assert used == {"perturbation_psi0_deg": 0.123456789, "perturbation_wz": 0.0123456789,
                        "dt": 0.0009999999999999998}
        report = _key_values(out / "report.txt")
        for key in ("perturbation_psi0_deg", "perturbation_wz"):
            assert report[key] == params[key]

    def test_failed_params_write_leaves_no_earlier_report(self, tmp_path, capsys):
        # the first run's report.txt used to stay beside the second run's
        # files after its params.txt write failed
        out = tmp_path / "cmp"
        assert main(["compare", "--repeats", "1", "--out", str(out)]) == 0
        (out / "params.txt").unlink()
        (out / "params.txt").mkdir()
        assert main(["compare", "--repeats", "1", "--seed", "5", "--out", str(out)]) == 2
        assert "runtime error" in capsys.readouterr().err
        assert not (out / "report.txt").exists()

    def test_step_not_dividing_the_horizon_runs(self, tmp_path):
        # 3 s at dt = 1.1 ms: 2727 steps end at 2.9997 s, so 2728 are taken
        out = tmp_path / "cmp"
        assert main(["compare", "--repeats", "1", "--dt", "0.0011", "--out", str(out)]) == 0
        assert "ic_2_150,switching," in (out / "report.txt").read_text()

    @pytest.mark.parametrize("flag,value", [("--perturb-wz", "inf"), ("--perturb-psi", "nan")])
    def test_nonfinite_perturbation_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "cmp"
        assert main(["compare", "--repeats", "1", flag, value, "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err

    def test_step_past_rate_loop_limit_usage_error(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["compare", "--repeats", "1", "--dt", "0.021", "--out", str(out)]) == 1
        assert "must be below 2" in capsys.readouterr().err
        assert not out.exists()

    def test_switching_step_past_its_rate_loop_limit_usage_error(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["compare", "--repeats", "1", "--dt", "0.0195", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "dt * (kw + kn/2) = 2.0475 must be below 2" in err and "switching law" in err
        assert not out.exists()

    def test_switching_step_refused_before_the_first_run(self, tmp_path, monkeypatch):
        # the first IC's benchmark run used to run before the switching
        # scenario of its repeat was built and refused
        runs = _counted_runs(monkeypatch)
        out = tmp_path / "cmp"
        assert main(["compare", "--repeats", "1", "--dt", "0.0195", "--out", str(out)]) == 1
        assert runs == [] and not (out / "report.txt").exists()

    def test_negative_seed_usage_error(self, tmp_path, capsys):
        # numpy's own message named neither the flag nor the value
        out = tmp_path / "cmp"
        assert main(["compare", "--repeats", "1", "--seed", "-1", "--out", str(out)]) == 1
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_yaw_spread_leaving_range_usage_error(self, tmp_path, capsys):
        # which perturbed ICs left (0, 360) deg used to depend on the seed,
        # and some ran before the comparison failed
        out = tmp_path / "cmp"
        assert main(["compare", "--repeats", "3", "--perturb-psi", "200", "--out", str(out)]) == 1
        assert "IC (2, 150 deg) +-200 deg leaves (0, 360)" in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def test_grid_rows_written(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--wz",
                "2,3,2",
                "--psi",
                "90,120,2",
                "--horizon",
                "0.5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].startswith("wz,psi0_deg,sigma_t0,V_t0,in_roa")
        assert len(lines) == 1 + 4

    def test_ic_labels_and_params_read_back_exactly(self, tmp_path):
        # the IC columns printed "%g", so all three rows read "2"; params.txt
        # had no dt, horizon or gains
        out = tmp_path / "sweep"
        args = ["sweep", "--wz", "2,2.0000001,3", "--psi", "150,150,1", "--horizon", "0.1",
                "--dt", "0.0009999999999999998", "--kq", "10.00000000000001", "--out", str(out)]
        assert main(args) == 0
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [float(r[0]) for r in rows] == np.linspace(2.0, 2.0000001, 3).tolist()
        assert [r[1] for r in rows] == ["150"] * 3
        params = _key_values(out / "params.txt")
        assert list(params) == ["wz", "psi", "controller", "dt", "horizon", *GAIN_KEYS]
        assert (params["wz"], params["psi"], params["controller"]) == (
            "2,2.0000001,3", "150,150,1", "switching"
        )
        assert float(params["dt"]) == 0.0009999999999999998
        assert float(params["horizon"]) == 0.1
        gains = harness.gains_with(harness.SWITCHING_GAINS, {"kq": 10.00000000000001})
        assert {k: float(params[k]) for k in GAIN_KEYS} == {k: getattr(gains, k) for k in GAIN_KEYS}

    def test_failed_params_write_leaves_no_earlier_sweep(self, tmp_path, capsys):
        # the first grid's sweep.csv used to stay beside the second run's
        # files after its params.txt write failed
        out = tmp_path / "sweep"
        args = ["sweep", "--psi", "150,150,1", "--horizon", "0.2", "--out", str(out)]
        assert main(args + ["--wz", "2,2,1"]) == 0
        (out / "params.txt").unlink()
        (out / "params.txt").mkdir()
        assert main(args + ["--wz", "3,3,1"]) == 2
        assert "runtime error" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_horizon_between_steps_runs(self, tmp_path):
        out = tmp_path / "sweep"
        args = ["sweep", "--wz", "2,2,1", "--psi", "150,150,1", "--horizon", "1.0004"]
        assert main(args + ["--out", str(out)]) == 0
        assert len((out / "sweep.csv").read_text().strip().splitlines()) == 2

    def test_horizon_shorter_than_a_step_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        args = ["sweep", "--wz", "2,2,1", "--psi", "150,150,1", "--horizon", "0.0001"]
        assert main(args + ["--out", str(out)]) == 1
        assert "shorter than one step" in capsys.readouterr().err

    def test_switching_step_past_its_rate_loop_limit_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        args = ["sweep", "--wz", "2,2,1", "--psi", "150,150,1", "--dt", "0.0195"]
        assert main(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "dt * (kw + kn/2) = 2.0475 must be below 2" in err and "switching law" in err
        assert not out.exists()

    def test_yaw_off_range_refused_before_the_first_run(self, tmp_path, capsys, monkeypatch):
        # 420 deg used to be refused in radians, as psi0 = 7.33..., after the
        # grid's first three yaws had run
        runs = _counted_runs(monkeypatch)
        out = tmp_path / "sweep"
        args = ["sweep", "--wz", "2,2,1", "--psi", "60,420,4", "--horizon", "0.2"]
        assert main(args + ["--out", str(out)]) == 1
        assert "--psi values must lie in (0, 360) deg, got 420" in capsys.readouterr().err
        assert runs == [] and not (out / "sweep.csv").exists()

    def test_last_rate_refused_before_the_first_run(self, tmp_path, capsys, monkeypatch):
        # |w0|^2 overflows only at the grid's last rate
        runs = _counted_runs(monkeypatch)
        out = tmp_path / "sweep"
        args = ["sweep", "--wz", "2,1e160,2", "--psi", "150,150,1", "--horizon", "0.2"]
        assert main(args + ["--out", str(out)]) == 1
        assert "finite squared norm" in capsys.readouterr().err
        assert runs == [] and not out.exists()

    def test_bad_grid_usage_error(self, capsys):
        assert main(["sweep", "--wz", "2,3"]) == 1
