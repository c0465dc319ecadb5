"""Instrumentation of the traced pass and the per-layer metrics it yields.

The layers are the package's modules: rigid_body, controllers, reference,
quat, stability, harness and cli.  Each span wraps a public entry point of
one layer where its caller looks it up, so nested calls become child spans:
effort_comparison > run_scenario > simulate > controller call > reference
sample.  quat functions take well under a microsecond, so they are only
counted: a span would cost more than the call.
"""

import json
import os

from spans import ScaledTotals, Tracer
from workloads import LAWS, ROOT, cli, controllers, harness, stability

from attswitch import quat, reference, rigid_body
from attswitch.controllers import BenchmarkController, ContinuousController, SwitchingController
from attswitch.reference import ManeuverTracker


def _count_steps(tracer, args, samples):
    tracer.counts["rigid_body.steps"] += len(samples) - 1


def _count_switches(tracer, args, run):
    tracer.counts["controllers.switches"] += len(run.switch_times)


def _count_export_bytes(tracer, args, _):
    tracer.counts["harness.export_bytes"] += os.path.getsize(args[1])


# (owner, attribute, span name, counter hook)
SIMULATION_SPANS = [
    (harness, "effort_comparison", "harness.effort_comparison", None),
    (harness, "run_scenario", "harness.run_scenario", _count_switches),
    (harness, "simulate", "rigid_body.simulate", _count_steps),
    (harness, "control_effort", "harness.control_effort", None),
    (stability, "lyapunov_series", "stability.lyapunov_series", None),
    (harness, "export_run", "harness.export_run", _count_export_bytes),
    (harness, "format_run_report", "harness.format_run_report", None),
    (harness, "scenario_to_text", "harness.scenario_to_text", None),
    (cli, "main", "cli.main", None),
    (ContinuousController, "__call__", "controllers.continuous", None),
    (BenchmarkController, "__call__", "controllers.benchmark", None),
    (SwitchingController, "__call__", "controllers.switching", None),
    (ManeuverTracker, "sample", "reference.sample", None),
]
# certify calls these itself; in the simulation workloads switch_function
# stays inside the controller spans, as part of the control law
CERTIFY_SPANS = [
    (stability, "p_matrix_certificate", "stability.p_matrix_certificate", None),
    (stability, "saddle_eigenvalues", "stability.saddle_eigenvalues", None),
    (stability, "lyapunov_value", "stability.lyapunov_value", None),
    (stability, "lyapunov_rate", "stability.lyapunov_rate", None),
    (stability, "lyapunov_decay_bound", "stability.lyapunov_decay_bound", None),
    (stability, "roa_contains", "stability.roa_contains", None),
    (stability, "error_jacobian", "stability.error_jacobian", None),
    (controllers, "switch_function", "controllers.switch_function", None),
]
SPANS = {"compare": SIMULATION_SPANS, "simulate_full": SIMULATION_SPANS, "certify": CERTIFY_SPANS}

QUAT_FUNCTIONS = (
    "quat_mul", "quat_inverse", "from_axis_angle", "to_axis_angle",
    "rotate_vector", "yaw_of", "quat_kinematics",
)
MODULES = (quat, rigid_body, reference, controllers, stability, harness, cli)

# (name, unit) of every per-layer metric, in BENCHMARK.json's order
PER_LAYER = [
    (m["name"], m["unit"])
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
]


def replacements(tracer: Tracer, workload: str):
    """Attribute replacements that trace ``workload``'s layers into ``tracer``."""
    out = [
        (owner, attr, tracer.wrap(name, owner.__dict__[attr], after))
        for owner, attr, name, after in SPANS[workload]
    ]
    for module in MODULES:
        for fname in QUAT_FUNCTIONS:
            fn = getattr(quat, fname)
            if module.__dict__.get(fname) is fn:
                out.append((module, fname, tracer.counter("quat.calls", fn)))
    return out


def layer_metrics(
    totals: ScaledTotals, counts, first_pass: dict, traced_ns: float, overhead: float, passes: int
):
    """Per-layer metrics of a traced run.

    Times are self times per call (or per step) over every traced op, each
    op's times divided by the machine slowdown measured before it (see
    ``ScaledTotals``); ``traced_ns`` is the traced ops' time, adjusted the
    same way.  Counts are those of the first pass, whose inputs depend only
    on the seed, so they repeat exactly.  A layer the workload never calls
    reads 0.  ``overhead`` is the median of the per-op traced/plain time
    ratios, minus 1.
    """
    spans = totals.spans

    def calls(name):
        return spans.get(name, (0, 0, 0))[0]

    def self_us(*names, per=None):
        total_ns = sum(spans.get(n, (0, 0, 0))[1] for n in names)
        n = calls(names[0]) if per is None else per
        return total_ns / n / 1e3 if n else 0.0

    export_ns = spans.get("harness.export_run", (0, 0, 0))[2]
    metrics = {
        "rigid_body.step_us": self_us("rigid_body.simulate", per=counts["rigid_body.steps"]),
        "rigid_body.steps": first_pass.get("rigid_body.steps", 0),
        **{f"controllers.{law}.call_us": self_us(f"controllers.{law}") for law in LAWS},
        "controllers.calls": sum(first_pass.get(f"controllers.{law}", 0) for law in LAWS),
        "controllers.switches": first_pass.get("controllers.switches", 0),
        "reference.sample_us": self_us("reference.sample"),
        "reference.samples": first_pass.get("reference.sample", 0),
        "quat.calls": first_pass.get("quat.calls", 0),
        "harness.compare_us": self_us("harness.effort_comparison"),
        "harness.assemble_us": self_us("harness.run_scenario"),
        "harness.effort_us": self_us("harness.control_effort"),
        "stability.series_us": self_us("stability.lyapunov_series"),
        "harness.export_us": self_us("harness.export_run"),
        "harness.export_bytes": first_pass.get("harness.export_bytes", 0),
        "harness.export_MBps": (
            counts["harness.export_bytes"] / export_ns * 1e3 if export_ns else 0.0
        ),
        "harness.report_us": self_us("harness.format_run_report", "harness.scenario_to_text"),
        "cli.self_us": self_us("cli.main"),
        "stability.value_us": self_us("stability.lyapunov_value"),
        "stability.rate_us": self_us("stability.lyapunov_rate"),
        "stability.bound_us": self_us("stability.lyapunov_decay_bound"),
        "stability.roa_us": self_us("stability.roa_contains"),
        "stability.jacobian_us": self_us("stability.error_jacobian"),
        "stability.certificate_us": self_us(
            "stability.p_matrix_certificate", "stability.saddle_eigenvalues"
        ),
        "controllers.switch_function_us": self_us("controllers.switch_function"),
        # every certified state gets exactly one switch_function call
        "stability.states": first_pass.get("controllers.switch_function", 0),
        "bench.other_us": (traced_ns - totals.covered_ns) / passes / 1e3,
        "bench.traced_pass_us": traced_ns / passes / 1e3,
        "trace_overhead_pct": 100.0 * overhead,
    }
    return {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER}
