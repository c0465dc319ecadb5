"""Command-line front end.

Commands: simulate, compare, table1, stability-report, sweep.  Scenario
files are the flat ``key = value`` text that ``simulate`` writes as
scenario.txt (``harness.SCENARIO_KEYS``); command-line flags override file
values.  Angles are taken in degrees on the command line and converted to
radians internally.  A command given ``--out`` removes its old report
(report.txt, or sweep.csv) first and writes the new one last.  Exit codes:
0 success, 1 usage/configuration error, 2 runtime failure.
"""

import argparse
import errno
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import harness, stability
from .controllers import GAIN_KEYS
from .reference import MODE_FULL, MODE_STAGE3
from .rigid_body import DEFAULT_DT, DEFAULT_HORIZON, SimulationError
from .stability import report_number

USAGE_ERROR = 1
RUNTIME_ERROR = 2

# simulate flags whose scenario key has another name; --ic gives wz and psi0_deg
_FLAG_KEYS = {"stage1": "stage1_duration", "j": "j_diag"}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _add_gain_flags(p):
    for key in GAIN_KEYS:
        p.add_argument(f"--{key}", type=float, default=None, help=f"GainSet.{key}")


@functools.cache
def _parser() -> _Parser:
    """The command line's parser, built once per process: a parse keeps no
    state in it, and no default is mutable, so each argv parses as if by a
    parser of its own."""
    parser = _Parser(prog="attswitch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario and export telemetry")
    sim.add_argument("--scenario", type=str, default=None, help="scenario file")
    sim.add_argument("--ic", type=str, default=None, help='initial condition "wz,psi0_deg"')
    sim.add_argument(
        "--controller",
        type=str,
        default=None,
        choices=sorted(harness.CONTROLLERS),
    )
    sim.add_argument("--mode", type=str, default=None, choices=[MODE_FULL, MODE_STAGE3])
    sim.add_argument("--dt", type=float, default=None)
    sim.add_argument("--horizon", type=float, default=None)
    sim.add_argument("--stage1", type=float, default=None, help="stage-1 hover duration")
    sim.add_argument("--j", type=str, default=None, help='inertia diagonal "jx,jy,jz"')
    sim.add_argument("--name", type=str, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", type=str, default="out/simulate")
    _add_gain_flags(sim)

    cmp_ = sub.add_parser("compare", help="benchmark vs switching effort comparison")
    cmp_.add_argument("--repeats", type=int, default=10)
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.add_argument("--perturb-psi", type=float, default=1.0, help="IC yaw spread, deg")
    cmp_.add_argument("--perturb-wz", type=float, default=0.05, help="IC rate spread, rad/s")
    cmp_.add_argument("--dt", type=float, default=DEFAULT_DT)
    cmp_.add_argument("--out", type=str, default="out/compare")

    tab = sub.add_parser("table1", help="Lyapunov values at the five benchmark ICs")
    tab.add_argument("--out", type=str, default=None)
    _add_gain_flags(tab)

    srep = sub.add_parser("stability-report", help="certificates and saddle spectrum")
    srep.add_argument("--out", type=str, default=None)
    _add_gain_flags(srep)

    swp = sub.add_parser("sweep", help="IC grid sweep of the switching controller")
    swp.add_argument("--wz", type=str, default="1,4,4", help='grid "start,stop,count"')
    swp.add_argument("--psi", type=str, default="60,240,7", help='grid in deg "start,stop,count"')
    swp.add_argument(
        "--controller",
        type=str,
        default="switching",
        choices=sorted(harness.CONTROLLERS),
    )
    swp.add_argument("--dt", type=float, default=DEFAULT_DT)
    swp.add_argument("--horizon", type=float, default=DEFAULT_HORIZON)
    swp.add_argument("--out", type=str, default="out/sweep")
    _add_gain_flags(swp)
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    return _parser().parse_args(argv)


def _parse_pair(text: str, what: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{what} must be two comma-separated numbers, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_grid(text: str, what: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"{what} must be 'start,stop,count', got {text!r}")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ValueError(f"{what} count must be >= 1")
    if not math.isfinite(stop - start):
        raise ValueError(f"{what} start and stop must be finite and span a finite range, got {text!r}")
    return start, stop, count


def _build_scenario(args) -> harness.Scenario:
    keys = {_FLAG_KEYS.get(flag, flag): v for flag, v in vars(args).items() if v is not None}
    overrides = {k: v for k, v in keys.items() if k in harness.SCENARIO_KEYS}
    if args.ic is not None:
        overrides["wz"], overrides["psi0_deg"] = _parse_pair(args.ic, "--ic")
    text = ""
    if args.scenario:
        # a file that cannot be read is a configuration error, whatever the errno
        try:
            text = Path(args.scenario).read_text()
        except OSError as exc:
            reason = exc.strerror or exc
            raise ValueError(f"cannot read the scenario file {args.scenario}: {reason}") from exc
    return harness.scenario_from_text(text, overrides, args.scenario)


def _check_out(out):
    """``--out`` as a Path (None for none), refused before any run if its
    nearest existing path is not a directory, with the error mkdir raises."""
    if out is None:
        return None
    out = Path(out)
    existing = next((p for p in (out, *out.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(out))
    return out


def _publish(out, report_name: str, report: str, files=()) -> int:
    """Make ``out``, remove its old report, write each ``(name, text or
    writer of a path)`` of ``files``, then the report, and print it: a write
    that fails prints nothing and leaves no report, not an earlier run's
    beside this run's files.  With no ``out`` the report is only printed."""
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / report_name).unlink(missing_ok=True)
        for name, content in files:
            if callable(content):
                content(out / name)
            else:
                (out / name).write_text(content)
        (out / report_name).write_text(report)
    print(report, end="")
    return 0


def _cmd_simulate(args) -> int:
    scenario = _build_scenario(args)
    # formed first: a scenario its file cannot hold is refused before the run
    echo = harness.scenario_to_text(scenario)
    out = _check_out(args.out)
    run = harness.run_scenario(scenario)
    files = [("scenario.txt", echo), ("telemetry.csv", lambda path: harness.export_run(run, path))]
    return _publish(out, "report.txt", harness.format_run_report(run), files)


def _params_text(**values) -> str:
    """params.txt: a ``key = value`` line per value, each float written so
    that it reads back exactly (``harness._exact_text``)."""
    return "".join(
        f"{key} = {harness._exact_text(v) if isinstance(v, float) else v}\n"
        for key, v in values.items()
    )


def _cmd_compare(args) -> int:
    pert = harness.PerturbationSpec(psi0_deg=args.perturb_psi, wz=args.perturb_wz)
    out = _check_out(args.out)
    text = harness.format_comparison_report(
        harness.effort_comparison(repeats=args.repeats, perturbation=pert, dt=args.dt, seed=args.seed)
    )
    # the report header's names, so one input has one name in the run directory
    params = _params_text(
        repeats=args.repeats, seed=args.seed, perturbation_psi0_deg=pert.psi0_deg,
        perturbation_wz=pert.wz, dt=args.dt,
    )
    return _publish(out, "report.txt", text, [("params.txt", params)])


def _table_text(rows) -> str:
    lines = ["wz,psi0_deg,sigma,lambda,V,in_roa"]
    for r in rows:
        lines.append(
            f"{r['wz']:g},{r['psi0_deg']:g},{r['sigma']:+d},"
            f"{report_number(r['lam'])},{report_number(r['V'])},{str(r['in_roa']).lower()}"
        )
    return "\n".join(lines) + "\n"


def _cmd_report(args) -> int:
    """table1 and stability-report: report.txt only, and only with --out."""
    gains = harness.gains_with(harness.SWITCHING_GAINS, vars(args))
    out = _check_out(args.out)
    rows = harness.lyapunov_ic_table(gains)
    table1 = args.command == "table1"
    text = _table_text(rows) if table1 else stability.format_stability_report(gains, rows)
    return _publish(out, "report.txt", text)


def _cmd_sweep(args) -> int:
    gains = harness.gains_with(harness.DEFAULT_GAINS[args.controller], vars(args))
    grids = _parse_grid(args.wz, "--wz"), _parse_grid(args.psi, "--psi")
    harness.check_run_count(grids[0][2] * grids[1][2])
    wz_grid, psi_grid = (np.linspace(*grid) for grid in grids)

    def scenario(wz, psi):
        return harness.make_ic_scenario(
            float(wz), float(psi), args.controller, gains, dt=args.dt, horizon=args.horizon
        )

    # refused before the first run: a yaw off (0, 360) deg, then whatever the
    # scenario at a corner of the grid refuses (the grid lies between them)
    for psi in (psi_grid[0], psi_grid[-1]):
        if not 0.0 < psi < 360.0:
            raise ValueError(f"--psi values must lie in (0, 360) deg, got {psi:g}")
        for wz in (wz_grid[0], wz_grid[-1]):
            scenario(wz, psi)
    out = _check_out(args.out)
    lines = ["wz,psi0_deg,sigma_t0,V_t0,in_roa,switches,gamma_tau,final_yaw_error_deg"]
    for wz in wz_grid:
        for psi in psi_grid:
            run = harness.run_scenario(scenario(wz, psi))
            sigma, _, V, in_roa = harness.values_at_t0(run)
            lines.append(
                f"{harness._exact_text(wz)},{harness._exact_text(psi)},"
                f"{sigma:+d},{report_number(V)},{str(in_roa).lower()},"
                f"{len(run.switch_times)},{run.gamma_tau:.9g},"
                f"{report_number(math.degrees(run.final_yaw_error))}"
            )
    params = _params_text(
        wz=args.wz, psi=args.psi, controller=args.controller, dt=args.dt, horizon=args.horizon,
        **{key: getattr(gains, key) for key in GAIN_KEYS},
    )
    return _publish(out, "sweep.csv", "\n".join(lines) + "\n", [("params.txt", params)])


_DISPATCH = {
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "table1": _cmd_report,
    "stability-report": _cmd_report,
    "sweep": _cmd_sweep,
}


def dispatch(config: argparse.Namespace) -> int:
    """Run a parsed command; maps config errors to 1 and runtime errors to 2."""
    try:
        return _DISPATCH[config.command](config)
    except ValueError as exc:
        print(f"attswitch: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (SimulationError, OSError) as exc:
        print(f"attswitch: runtime error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


def main(argv=None) -> int:
    return dispatch(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
