"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/prove.py --workloads compare certify --seeds 1 2 3 4 5
    python3 bench/prove.py --seeds 1 2 3 4 5 6 7 8 9 10 --out bench/baseline.json

Runs BENCHMARK.json's command once per (workload, seed), sequentially, with
its run_seconds.  For each metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median next to the
metric's bound; ``!`` marks a spread above the bound, ``~`` one above a
third of it.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None, help="write the runs and their summary here")
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("quartiles need at least two seeds")

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "!" if spread > bound else "~" if spread > bound / 3 else ""
            print(f"  {workload:14s} {name:32s} median {med:14.6g}  spread {spread:8.4f}"
                  f"  bound {bound if bound is not None else '-'} {flag}")
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
