"""attswitch benchmark: one command for every workload and metric.

    python3 bench/run.py --workload compare --seed 0 --seconds 30 --trace 0

Workloads: compare, simulate_full, certify (see bench/README.md).  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The measuring happens in fresh worker
processes (bench/worker.py) with BLAS/OpenMP pinned to one thread; set-up
is timed in SETUP_REPS workers that stop there, from process start to the
first warm-up op done, and reported as the median.  The last line of output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Exits non-zero, without
that line, if a worker fails or runs out of time.
"""

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("compare", "simulate_full", "certify")
SETUP_REPS = 5
DEADLINE_S = 170.0  # the whole command must end within 180 s
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, setup_only: bool, timeout: float):
    """Run one worker; return its set-up seconds and its result (None if ``setup_only``).

    A set-up-only worker is timed with the machine's slowdown while it ran,
    sampled from this process on the other core; the set-up seconds are
    then divided by it.
    """
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **THREAD_PINS}
    probe = SpeedProbe()
    start = time.monotonic()
    try:
        with probe.during() if setup_only else contextlib.nullcontext():
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
            )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    setup_s = float(lines[0].split()[1]) - start
    if setup_only:
        return (setup_s, setup_s / probe.slowdown()), None
    return (setup_s, None), json.loads(lines[-1])


def git_commit():
    """Commit of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(numpy_version):
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "thread_pins": THREAD_PINS,
    }


def print_table(args, result, setup_reps):
    info = result["info"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        wall = info["traced_ns"]
        print(f"  {'span':36s} {'calls':>10s} {'self_ms':>12s} {'share':>7s}")
        for name, calls, self_ns in info["self_ns"]:
            print(f"  {name:36s} {calls:10d} {self_ns / 1e6:12.3f} {100 * self_ns / wall:6.2f}%")
        other = wall - info["covered_ns"]
        print(f"  {'bench.other':36s} {'':10s} {other / 1e6:12.3f} {100 * other / wall:6.2f}%")
        print(f"  {'traced wall (sum of the above)':36s} {'':10s} {wall / 1e6:12.3f}")
        ratios = info["overhead_ratios"]
        if len(ratios) >= 2:
            q1, _, q3 = statistics.quantiles(ratios, n=4)
            print(
                f"  traced/plain op time: quartiles {100 * (q1 - 1):.2f}% .. "
                f"{100 * (q3 - 1):.2f}% over {len(ratios)} ops"
            )
    for name, m in result["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"median of {setup_reps}"
        elif name == "wall_s":
            note = f"median of {info['passes']} passes"
        elif name == "ops_per_s":
            note = info["ops_unit"]
        elif name == "op_ms_tail":
            note = f"p{info['tail_percentile']} of {info['ops']} ops"
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']:6s} {note}")
    if "steps_per_s" in info:
        print(f"  {'steps_per_s':32s} {info['steps_per_s']:14.6g} {'1/s':6s}")
    if "raw" in info:
        raw = ", ".join(f"{name} {value:.6g}" for name, value in info["raw"].items())
        print(f"  unadjusted: {raw}; machine slowdown {info['slowdown']:.3f}")
    print(
        f"  {'error_rate':32s} {info['error_rate']:14.6g} {'':6s} "
        f"{result['failed']} of {result['attempted']} ops failed"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    end = time.monotonic() + DEADLINE_S
    setups = []  # (set-up seconds, adjusted set-up seconds)
    try:
        for _ in range(0 if args.trace else SETUP_REPS):
            setups.append(run_worker(args, True, end - time.monotonic())[0])
        _, result = run_worker(args, False, end - time.monotonic())
    except WorkerFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(a for _, a in setups), "unit": "s"},
            **result["metrics"],
        }
        result["info"]["raw"]["setup_s"] = statistics.median(s for s, _ in setups)
    print_table(args, result, len(setups))
    print("env", json.dumps(environment(result["info"]["numpy"])))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
