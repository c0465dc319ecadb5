"""Command-line front end.

Commands: simulate, compare, table1, stability-report, sweep.  Scenario
files are flat ``key = value`` text; command-line flags override file
values.  Angles are taken in degrees on the command line and converted to
radians internally.  Exit codes: 0 success, 1 usage/configuration error,
2 runtime failure.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import harness, stability
from .controllers import GainSet
from .reference import MODE_FULL, MODE_STAGE3, ManeuverSpec
from .rigid_body import DEFAULT_DT, DEFAULT_INERTIA, SimulationError

USAGE_ERROR = 1
RUNTIME_ERROR = 2

_SCENARIO_KEYS = {
    "name": str,
    "mode": str,
    "controller": str,
    "wz": float,
    "psi0_deg": float,
    "stage1_duration": float,
    "kq": float,
    "kw": float,
    "kn": float,
    "c": float,
    "delta": float,
    "dt": float,
    "horizon": float,
    "seed": int,
    "j_diag": str,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _add_gain_flags(p):
    p.add_argument("--kq", type=float, default=None, help="proportional gain")
    p.add_argument("--kw", type=float, default=None, help="rate gain")
    p.add_argument("--kn", type=float, default=None, help="composite-error gain")
    p.add_argument("--c", type=float, default=None, help="Lyapunov weight")
    p.add_argument("--delta", type=float, default=None, help="hysteresis margin")


def parse_args(argv=None) -> argparse.Namespace:
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
    cmp_.add_argument("--dt", type=float, default=None)
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
    swp.add_argument("--dt", type=float, default=None)
    swp.add_argument("--horizon", type=float, default=None)
    swp.add_argument("--out", type=str, default="out/sweep")
    _add_gain_flags(swp)

    return parser.parse_args(argv)


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
    return np.linspace(start, stop, count)


def _read_scenario_file(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _SCENARIO_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown scenario key {key!r}")
        values[key] = _SCENARIO_KEYS[key](val.strip())
    return values


def _gains_from(values: dict, switching: bool = True) -> GainSet:
    base = harness.SWITCHING_GAINS if switching else harness.BENCHMARK_GAINS
    return GainSet(
        kq=values.get("kq") if values.get("kq") is not None else base.kq,
        kw=values.get("kw") if values.get("kw") is not None else base.kw,
        kn=values.get("kn") if values.get("kn") is not None else base.kn,
        c=values.get("c") if values.get("c") is not None else base.c,
        delta=values.get("delta") if values.get("delta") is not None else base.delta,
    )


def _build_scenario(args) -> harness.Scenario:
    values = {}
    if args.scenario:
        values.update(_read_scenario_file(args.scenario))
    overrides = {
        "controller": args.controller,
        "mode": args.mode,
        "dt": args.dt,
        "horizon": args.horizon,
        "stage1_duration": args.stage1,
        "name": args.name,
        "seed": args.seed,
        "kq": args.kq,
        "kw": args.kw,
        "kn": args.kn,
        "c": args.c,
        "delta": args.delta,
    }
    if args.ic is not None:
        wz, psi = _parse_pair(args.ic, "--ic")
        overrides["wz"] = wz
        overrides["psi0_deg"] = psi
    if args.j is not None:
        overrides["j_diag"] = args.j
    values.update({k: v for k, v in overrides.items() if v is not None})

    controller = values.get("controller", "switching")
    gains = _gains_from(values, switching=(controller != "benchmark"))
    if "wz" not in values or "psi0_deg" not in values:
        raise ValueError("an initial condition is required (--ic or scenario file)")
    maneuver = ManeuverSpec(
        w0=np.array([0.0, 0.0, float(values["wz"])]),
        psi0=math.radians(float(values["psi0_deg"])),
        stage1_duration=float(values.get("stage1_duration", 1.0)),
        mode=values.get("mode", MODE_STAGE3),
    )
    if "j_diag" in values:
        jd = [float(x) for x in str(values["j_diag"]).split(",")]
        if len(jd) != 3:
            raise ValueError("j_diag must have three entries")
        inertia = np.diag(jd)
    else:
        inertia = DEFAULT_INERTIA.copy()
    return harness.Scenario(
        name=values.get("name", f"ic_{values['wz']:g}_{values['psi0_deg']:g}"),
        maneuver=maneuver,
        controller=controller,
        gains=gains,
        inertia=inertia,
        dt=float(values.get("dt", DEFAULT_DT)),
        horizon_after_t0=float(values.get("horizon", 3.0)),
        seed=int(values.get("seed", 0)),
    )


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _cmd_simulate(args) -> int:
    scenario = _build_scenario(args)
    run = harness.run_scenario(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "scenario.txt", harness.scenario_to_text(scenario))
    harness.export_run(run, out / "telemetry.csv")
    report = harness.format_run_report(run)
    _write(out / "report.txt", report)
    print(report, end="")
    return 0


def _cmd_compare(args) -> int:
    pert = harness.PerturbationSpec(psi0_deg=args.perturb_psi, wz=args.perturb_wz)
    report = harness.effort_comparison(
        repeats=args.repeats,
        perturbation=pert,
        dt=args.dt if args.dt is not None else DEFAULT_DT,
        seed=args.seed,
    )
    text = harness.format_comparison_report(report)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params = (
        f"repeats = {args.repeats}\nseed = {args.seed}\n"
        f"perturb_psi = {args.perturb_psi:g}\nperturb_wz = {args.perturb_wz:g}\n"
    )
    _write(out / "params.txt", params)
    _write(out / "report.txt", text)
    print(text, end="")
    return 0


def _table_text(gains: GainSet) -> str:
    rows = harness.lyapunov_ic_table(gains)
    lines = ["wz,psi0_deg,sigma,lambda,V,in_roa"]
    for r in rows:
        lines.append(
            f"{r['wz']:g},{r['psi0_deg']:g},{r['sigma']:+d},"
            f"{r['lam']:.6f},{r['V']:.6f},{str(r['in_roa']).lower()}"
        )
    return "\n".join(lines) + "\n"


def _cmd_table(args) -> int:
    gains = _gains_from(vars(args))
    text = _table_text(gains)
    print(text, end="")
    if args.out:
        _write(Path(args.out) / "report.txt", text)
    return 0


def _cmd_stability_report(args) -> int:
    gains = _gains_from(vars(args))
    text = stability.format_stability_report(gains, harness.lyapunov_ic_table(gains))
    print(text, end="")
    if args.out:
        _write(Path(args.out) / "report.txt", text)
    return 0


def _cmd_sweep(args) -> int:
    gains = _gains_from(vars(args), switching=(args.controller != "benchmark"))
    wz_grid = _parse_grid(args.wz, "--wz")
    psi_grid = _parse_grid(args.psi, "--psi")
    dt = args.dt if args.dt is not None else DEFAULT_DT
    horizon = args.horizon if args.horizon is not None else 3.0
    lines = ["wz,psi0_deg,sigma_t0,V_t0,in_roa,switches,gamma_tau,final_yaw_error_deg"]
    for wz in wz_grid:
        for psi in psi_grid:
            run = harness.run_scenario(
                harness.make_ic_scenario(
                    float(wz), float(psi), args.controller, gains, dt=dt, horizon=horizon
                )
            )
            i0 = 0
            lines.append(
                f"{wz:g},{psi:g},{int(run.sigma[i0]):+d},{run.V[i0]:.6f},"
                f"{str(bool(run.V[i0] < gains.roa_radius)).lower()},"
                f"{len(run.switch_times)},{run.gamma_tau:.9g},"
                f"{math.degrees(run.final_yaw_error):.6f}"
            )
    text = "\n".join(lines) + "\n"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "params.txt", f"wz = {args.wz}\npsi = {args.psi}\ncontroller = {args.controller}\n")
    _write(out / "sweep.csv", text)
    print(text, end="")
    return 0


_DISPATCH = {
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "table1": _cmd_table,
    "stability-report": _cmd_stability_report,
    "sweep": _cmd_sweep,
}


def dispatch(config: argparse.Namespace) -> int:
    """Run a parsed command; maps config errors to 1 and runtime errors to 2."""
    try:
        return _DISPATCH[config.command](config)
    except ValueError as exc:
        print(f"attswitch: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FileNotFoundError as exc:
        print(f"attswitch: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (SimulationError, OSError) as exc:
        print(f"attswitch: runtime error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


def main(argv=None) -> int:
    return dispatch(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
