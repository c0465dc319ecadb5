"""The command-line contract: every run exits 0, 1 or 2 without a traceback,
and exit 0 means that every number it wrote is finite and at most WIDEST
characters wide.

``test_cli_contract`` draws argument vectors over every flag of
``simulate``, ``sweep``, ``table1`` and ``stability-report``, and
``test_compare_contract`` over those of ``compare``; the named tests below
them pin the cases that broke the contract.
``test_scenario_echo_reads_back_exactly`` draws ``simulate`` flags, 17-digit
floats among them, and checks that scenario.txt reads back to its scenario.
"""

import contextlib
import io
import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from attswitch import harness
from attswitch.cli import _build_scenario, main, parse_args
from attswitch.controllers import GAIN_KEYS

# what a numeric flag may be given, in one draw of ten, instead of one of its
# own values: zero, negative, non-finite, extreme and unparsable
ODD = ("0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "1e300", "1e-300", "5e-324", "x")
GAIN = ("10", "100", "2", "0.1", "1e-3", "1e200")
# wz stays away from 0, so a full-mode spin-up (1.5 psi0/wz s) stays short
WZ = ("4", "10", "1e150")
PSI = ("150", "100", "210", "359.9")
DT = ("0.001", "0.005", "0.0199", "0.02")
HORIZON = ("0.01", "0.05", "0.0001")
STAGE1 = ("0", "0.01")
J = ("1,1,1", "0.1,0.2,0.3")
# grid counts stay small: a count is an allocation
COUNT, BAD_COUNT = ("1", "2"), ("0", "-1", "1.5", "x")
# compare runs ten 3 s runs a repeat: one or two repeats, and steps of 5 ms
# and more, past the switching law's dt (kw + kn/2) = 2 limit (0.019048 s),
# which refuses 0.0199 too, up to and past the benchmark law's dt kw = 2
REPEATS, BAD_REPEATS = ("1", "2"), (*ODD, "1000000000000")
COMPARE_DT = ("0.005", "0.01", "0.0199", "0.02", "0.05")
SEED, BAD_SEED = ("0", "7", "4294967295"), ("-1", "1e3", "x")
PERTURB_PSI = ("0", "1", "29", "100")
PERTURB_WZ = ("0", "0.05", "1.9", "3")
LAWS = ("continuous", "benchmark", "switching")
PATH = re.compile(r"=(out|table|report|scenario\.txt|missing\.txt)$")
# "%.17g" of a negative float with a three-digit exponent; "%.6f" stays
# below it under 1e15, and reports switch to "%.6e" from there
WIDEST = len("-1.2345678901234567e-300")
TOKEN = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|\.\d+)|\b(?:nan|inf|infinity)\b", re.I)


def _pool(values):
    return values if isinstance(values, st.SearchStrategy) else st.sampled_from(values)


def _mix(good, bad=ODD):
    """One of a flag's ``good`` values, or in one draw of ten one of ``bad``;
    each a tuple of texts or a strategy."""
    return st.integers(0, 9).flatmap(lambda i: _pool(good if i else bad))


def _digits17(lo, hi):
    """A float in [lo, hi] written with 17 significant digits, which "%.12g"
    does not hold."""
    return st.floats(lo, hi).map(lambda x: "%.17g" % x)


def _or_digits17(values, lo, hi):
    return st.one_of(st.sampled_from(values), _digits17(lo, hi))


def _given(name, values):
    # one "--flag=value" token, so that argparse takes "-1" as a value
    return values.map(lambda v: (f"{name}={v}",))


def _maybe(name, values):
    return st.one_of(st.just(()), _given(name, values))


def _joined(*parts):
    return st.tuples(*parts).map(",".join)


def _command(name, *flags):
    return st.tuples(*flags).map(lambda fs: (name, *(x for f in fs for x in f)))


GAIN_FLAGS = [_maybe(f"--{g}", _mix(GAIN)) for g in GAIN_KEYS]


def _simulate(
    scenario, ic=_maybe, wz=WZ, psi=PSI, dt=DT, horizon=HORIZON, stage1=STAGE1, j=J, gain=GAIN
):
    """simulate with every flag but --out, each drawn from its pool; ``ic`` is
    _maybe or _given."""
    return _command(
        "simulate",
        ic("--ic", _joined(_mix(wz), _mix(psi))),
        _maybe("--controller", st.sampled_from(LAWS)),
        _maybe("--mode", st.sampled_from(("stage3", "full"))),
        _maybe("--dt", _mix(dt)),
        _given("--horizon", _mix(horizon)),
        _given("--stage1", _mix(stage1)),
        _maybe("--j", _mix(j, ("1,0,1", "1,1", "nan,1,1", "1e308,1,1"))),
        _maybe("--name", st.sampled_from(("run", ""))),
        _maybe("--seed", _mix(("0", "-1", "7"), ("1e3", "x"))),
        scenario,
        *(_maybe(f"--{g}", _mix(gain)) for g in GAIN_KEYS),
    )


ARGV = st.one_of(
    _simulate(_maybe("--scenario", _mix(("scenario.txt",), ("missing.txt",)))),
    _command(
        "sweep",
        _given("--wz", _joined(_mix(WZ), _mix(WZ), _mix(COUNT, BAD_COUNT))),
        _given("--psi", _joined(_mix(PSI), _mix(PSI), _mix(COUNT, BAD_COUNT))),
        _maybe("--controller", st.sampled_from(LAWS)),
        _maybe("--dt", _mix(DT)),
        _given("--horizon", _mix(HORIZON)),
        *GAIN_FLAGS,
    ),
    _command("table1", _maybe("--out", st.just("table")), *GAIN_FLAGS),
    _command("stability-report", _maybe("--out", st.just("report")), *GAIN_FLAGS),
)


COMPARE_ARGV = _command(
    "compare",
    _given("--repeats", _mix(REPEATS, BAD_REPEATS)),
    _maybe("--seed", _mix(SEED, BAD_SEED)),
    _maybe("--perturb-psi", _mix(PERTURB_PSI)),
    _maybe("--perturb-wz", _mix(PERTURB_WZ)),
    _given("--dt", _mix(COMPARE_DT)),
)


def _bad_numbers(text: str):
    """Number tokens that are not finite or are wider than WIDEST characters."""
    return [
        tok for tok in TOKEN.findall(text) if not math.isfinite(float(tok)) or len(tok) > WIDEST
    ]


def run_cli(argv, cwd: Path):
    """Run the CLI in-process from ``cwd``; returns (exit code, stdout, stderr).

    Any exception other than SystemExit propagates, as a traceback would.
    """
    argv = list(argv)
    if argv[0] in ("simulate", "sweep", "compare") and not any(a.startswith("--out=") for a in argv):
        argv.append("--out=out")
    (cwd / "scenario.txt").write_text("wz = 4\npsi0_deg = 150\nhorizon = 0.01\n")
    argv = [PATH.sub(lambda m: f"={cwd / m[1]}", a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the c >= c_max advisory
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_contract(argv):
    """Run ``argv`` and check the contract; returns (exit code, stderr, files written)."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        code, out, err = run_cli(argv, cwd)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        inputs = {cwd / "scenario.txt"}
        written = sorted(p.relative_to(cwd) for p in cwd.rglob("*") if p.is_file() and p not in inputs)
        if code == 0:
            for path in written:
                bad = _bad_numbers((cwd / path).read_text())
                assert not bad, (argv, path, bad[:5])
            assert not _bad_numbers(out), (argv, out)
        else:
            assert "error" in err, (argv, err)
        return code, err, written


@settings(
    derandomize=True,
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ARGV)
def test_cli_contract(argv):
    check_contract(argv)


@settings(
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(COMPARE_ARGV)
def test_compare_contract(argv):
    check_contract(argv)


# Each exits 1 before it writes anything.  The first four overflowed a gain
# constant and exited 0 with inf or -inf in their output; the others are what
# test_cli_contract found.
REFUSED = {
    "simulate-c-1e308": ("simulate", "--ic=2,150", "--c=1e308"),
    "sweep-c-1e308": ("sweep", "--wz=2,2,1", "--psi=150,150,1", "--c=1e308"),
    "table1-c-1e308": ("table1", "--out=table", "--c=1e308"),
    "stability-report-c-1e200": ("stability-report", "--out=report", "--c=1e200"),
    # V at the reference ICs overflows: exited 0 with V = inf
    "table1-kn-1e300": ("table1", "--out=table", "--kn=1e300"),
    # the saddle spectrum overflows: exited 0 with lambda_unstable = inf
    "stability-report-kw-1e300": ("stability-report", "--out=report", "--kw=1e300"),
    "stability-report-kq-1e308": ("stability-report", "--out=report", "--kq=1e308"),
    # numpy warned in linspace (a traceback under -W error::RuntimeWarning)
    "sweep-wz-inf": ("sweep", "--wz=4,inf,2", "--psi=150,150,1", "--horizon=0.01"),
    "sweep-wz-span-overflows": ("sweep", "--wz=1e308,-1e308,2", "--psi=150,150,1"),
    # |w0|^2 overflowed in the reference's rate, with a numpy warning
    "simulate-wz-1e300": ("simulate", "--ic=1e300,150", "--horizon=0.01"),
    # horizon / dt is inf, and round(inf) raised OverflowError: a traceback
    "simulate-dt-5e-324": ("simulate", "--ic=2,150", "--dt=5e-324", "--horizon=0.05"),
    # the grid and the effort arrays were allocated first: a numpy
    # _ArrayMemoryError traceback
    "sweep-count-1e12": ("sweep", "--wz=1,4,1000000000000", "--psi=150,150,1"),
    "compare-repeats-1e12": ("compare", "--repeats=1000000000000"),
    # the perturbation draw's range 2e308 overflowed: an OverflowError traceback
    "compare-perturb-wz-1e308": ("compare", "--repeats=1", "--perturb-wz=1e308"),
}


@pytest.mark.parametrize("argv", REFUSED.values(), ids=REFUSED.keys())
def test_refused_with_exit_1_before_writing(argv):
    code, err, written = check_contract(argv)
    assert code == 1
    assert err.startswith("attswitch: error: ") and err.count("\n") == 1, err
    assert written == []


def test_overflowing_run_exits_2_before_writing():
    # the continuous law's torque leaves kn out, so the run is healthy, but V
    # carries kn = 1e200 and overflows: it exited 0 with V = inf in every row
    argv = ("simulate", "--ic=10,100", "--controller=continuous", "--kn=1e200", "--kw=10",
            "--horizon=0.01")
    code, err, written = check_contract(argv)
    assert code == 2
    assert err.startswith("attswitch: runtime error: ") and err.count("\n") == 1, err
    assert written == []


def test_huge_report_numbers_keep_a_bounded_width():
    # Lambda and V at t0 are of order 1e301: "%.6f" wrote them as 316- and
    # 322-character lines of report.txt
    code, err, written = check_contract(("simulate", "--ic=2,150", "--kq=1e-300"))
    assert code == 0, err
    assert [p.name for p in written] == ["report.txt", "scenario.txt", "telemetry.csv"]


def _fields(sc):
    """Every field of a scenario, each float as its bits."""
    m, g = sc.maneuver, sc.gains
    floats = (m.psi0, m.stage1_duration, sc.dt, sc.horizon_after_t0, *(getattr(g, k) for k in GAIN_KEYS))
    return (
        sc.name, m.mode, sc.controller, sc.seed, m.w0.tobytes(), sc.inertia.tobytes(),
        *(float(x).hex() for x in floats),
    )


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    _simulate(
        st.just(()),
        ic=_given,
        wz=_or_digits17(WZ, 0.5, 10.0),
        psi=_or_digits17(PSI, 1e-3, 359.999),
        dt=_or_digits17(DT, 1e-4, 0.0199),
        horizon=_or_digits17(HORIZON, 1e-3, 0.1),
        stage1=_or_digits17(STAGE1, 0.0, 2.0),
        j=st.one_of(st.sampled_from(J), _joined(*[_digits17(1e-6, 1.0)] * 3)),
        gain=_or_digits17(GAIN, 1e-3, 1e3),
    )
)
def test_scenario_echo_reads_back_exactly(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the c >= c_max advisory
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                scenario = _build_scenario(parse_args(argv))
        except (SystemExit, ValueError):
            return  # input simulate refuses with exit 1
        text = harness.scenario_to_text(scenario)
        again = harness.scenario_from_text(text)
    assert harness.scenario_to_text(again) == text
    assert _fields(again) == _fields(scenario)
