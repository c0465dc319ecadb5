"""One measuring process of the benchmark; run.py starts it.

Generates the seed's inputs, runs one warm-up op and prints ``ready
<time.monotonic()>`` so the parent can time set-up from process start.  With
``--setup-only`` it stops there.  Otherwise it runs whole passes until
``--seconds`` have elapsed and prints one JSON line with its results:

* trace 0: every pass untraced; end-to-end metrics.
* trace 1: each op twice, untraced and traced, in alternating order; the
  per-layer metrics come from the traced copies and the tracing overhead
  from the per-op ratio of the two.
"""

import argparse
import json
import operator
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from layers import layer_metrics, replacements
from measure import percentile, run_pass, tail_percentile
from spans import ScaledTotals, Tracer, patched
from workloads import DEFAULT_SEED, ROOT, WORKLOADS, load_reference


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


class Tally:
    """Outcomes of the run's passes."""

    def __init__(self):
        self.attempted = self.failed = self.units = self.steps = 0
        self.passes = []

    def add(self, res):
        self.attempted += res.attempted
        self.failed += res.failed
        self.units += res.units
        self.steps += res.steps
        self.passes.append(res)
        for error in res.errors:
            print(error, file=sys.stderr)

    def op_ns(self, adjusted=True):
        return [t for p in self.passes for t in (p.adjusted_ns() if adjusted else p.times_ns)]

    def pass_ns(self, adjusted=True):
        return [sum(p.adjusted_ns()) if adjusted else p.wall_ns for p in self.passes]


def timings(tally: Tally, adjusted: bool):
    """Time metrics of the run, plus the tail percentile, op count and steps/s."""
    pass_ns, op_ns = tally.pass_ns(adjusted), tally.op_ns(adjusted)
    busy_s = sum(pass_ns) / 1e9
    pct, tail_ns, n = tail_percentile(op_ns)
    metrics = {
        "wall_s": (statistics.median(pass_ns) / 1e9, "s"),
        "ops_per_s": (tally.units / busy_s, "1/s"),
        "op_ms_p50": (percentile(op_ns, 50) / 1e6, "ms"),
        "op_ms_tail": (tail_ns / 1e6, "ms"),
    }
    return metrics, pct, n, tally.steps / busy_s


def end_to_end(workload, tally: Tally):
    metrics, pct, n, steps_per_s = timings(tally, adjusted=True)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    raw, _, _, raw_steps_per_s = timings(tally, adjusted=False)
    info = {
        "ops_unit": f"{workload.unit}/s",
        "tail_percentile": pct,
        "ops": n,
        "passes": len(tally.passes),
        "error_rate": tally.failed / tally.attempted,
        "slowdown": statistics.median(s for p in tally.passes for s in p.slowdowns),
        "raw": {name: value for name, (value, _) in raw.items()},
    }
    if workload.simulates:
        info["steps_per_s"] = steps_per_s
        info["raw"]["steps_per_s"] = raw_steps_per_s
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, info


def main(argv=None) -> int:
    args = parse_args(argv)
    reference = None
    if args.seed == DEFAULT_SEED and args.workload in ("compare", "simulate_full"):
        reference = load_reference(args.workload)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as tmp:
        workload = WORKLOADS[args.workload](args.seed, Path(tmp), reference)
        first_ops = workload.pass_ops(0)
        warm = run_pass([workload.warmup_op()])
        if warm.failed:
            print(*warm.errors, file=sys.stderr)
            return 1
        print("ready", time.monotonic(), flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            result = measure_traced(workload, first_ops, args)
        else:
            result = measure(workload, first_ops, args)
    result["info"]["numpy"] = np.__version__
    print(json.dumps(result), flush=True)
    return 0


def passes(workload, first_ops, seconds):
    """Yield (k, ops, reference values) for whole passes until ``seconds`` have elapsed."""
    deadline = time.monotonic() + seconds
    k = 0
    while k == 0 or time.monotonic() < deadline:
        ops = first_ops if k == 0 else workload.pass_ops(k)
        ref = workload.reference
        yield k, ops, (ref[k] if ref is not None and k < len(ref) else None)
        k += 1


def measure(workload, first_ops, args):
    tally = Tally()
    same = getattr(workload, "same", operator.eq)
    for _, ops, expected in passes(workload, first_ops, args.seconds):
        tally.add(run_pass(ops, expected, same))
    metrics, info = end_to_end(workload, tally)
    return {"attempted": tally.attempted, "failed": tally.failed, "metrics": metrics, "info": info}


def measure_traced(workload, first_ops, args):
    """Run every op twice, plain and traced, alternating which goes first.

    Each run of an op samples the machine's speed while it runs, so the
    traced copy's span times and the traced/plain ratio of each op are both
    adjusted for the machine's speed at that moment.  The probes run inside
    whatever span is open; each span's share of them is taken out in
    proportion to its time.
    """
    tracer = Tracer()
    swaps = replacements(tracer, workload.name)
    same = getattr(workload, "same", operator.eq)
    tally, totals = Tally(), ScaledTotals()
    traced_ns, ratios = 0.0, []
    first_pass = None
    for k, ops, expected in passes(workload, first_ops, args.seconds):
        for i, op in enumerate(ops):
            op_expected = None if expected is None else expected[i : i + 1]
            adjusted_ns = {}
            for trace_it in ((False, True) if (k + i) % 2 == 0 else (True, False)):
                if trace_it:
                    before = tracer.totals()
                    with patched(swaps):
                        res = run_pass([op], op_expected, same)
                    (net_ns,), (probe_ns,), (slowdown,) = res.times_ns, res.probe_ns, res.slowdowns
                    totals.add(before, tracer.totals(), slowdown * (net_ns + probe_ns) / net_ns)
                else:
                    res = run_pass([op], op_expected, same)
                tally.add(res)
                adjusted_ns[trace_it] = sum(res.adjusted_ns())
            traced_ns += adjusted_ns[True]
            ratios.append(adjusted_ns[True] / adjusted_ns[False])
        if first_pass is None:
            first_pass = tracer.snapshot()
    n_passes = k + 1
    overhead = statistics.median(ratios) - 1.0
    metrics = layer_metrics(totals, tracer.counts, first_pass, traced_ns, overhead, n_passes)
    breakdown = sorted(
        ((name, stat[0], stat[1]) for name, stat in totals.spans.items() if stat[0]),
        key=lambda row: -row[2],
    )
    info = {
        "passes": n_passes,
        "traced_ns": traced_ns,
        "covered_ns": totals.covered_ns,
        "self_ns": breakdown,
        "overhead_ratios": ratios,
        "error_rate": tally.failed / tally.attempted,
    }
    return {"attempted": tally.attempted, "failed": tally.failed, "metrics": metrics, "info": info}


if __name__ == "__main__":
    sys.exit(main())
