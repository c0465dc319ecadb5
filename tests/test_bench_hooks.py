"""The benchmark's trace hooks still find the program's entry points.

``bench/layers.py`` wraps attributes by name: each controller class's own
``__call__``, ``ManeuverTracker.sample``, ``harness.simulate`` and the other
layer entry points, and it counts the ``quat`` functions.  A refactor that
moves or renames one of them breaks ``bench/run.py --trace 1`` without
failing any other test; these tests fail instead.  The certify workload's
per-layer metrics also rely on how often each certificate is called: its
state count is the number of ``switch_function`` calls.
"""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
LAWS = ("benchmark", "switching", "continuous")


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        import layers
        import spans
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return layers, spans, workloads


@pytest.mark.parametrize("workload", ["compare", "simulate_full", "certify"])
def test_replacements_build(bench_modules, workload):
    layers, spans, _ = bench_modules
    out = layers.replacements(spans.Tracer(), workload)
    wrapped = {(owner, attr) for owner, attr, _ in out}
    for owner, attr, _, _ in layers.SPANS[workload]:
        assert (owner, attr) in wrapped
    assert all(callable(value) for _, _, value in out)


def test_traced_closed_loop_reaches_every_simulation_span(bench_modules):
    # the paper's runs stay on the yaw plane, so harness.run_on_plane runs
    # them inside the run_scenario span: no simulate, controller or sample
    layers, spans, _ = bench_modules
    from attswitch import harness

    tracer = spans.Tracer()
    with spans.patched(layers.replacements(tracer, "compare")):
        harness.effort_comparison(repeats=1, ics=((2.0, 210.0),), horizon=0.01)
    calls = tracer.snapshot()
    assert calls["harness.run_scenario"] == 2
    assert calls["rigid_body.simulate"] == 0
    for law in LAWS:
        assert calls[f"controllers.{law}"] == 0
    assert calls["reference.sample"] == 0
    assert calls["quat.calls"] > 0


@pytest.mark.parametrize("law", LAWS)
def test_traced_off_plane_closed_loop_reaches_simulate(bench_modules, law):
    # a non-diagonal inertia takes the run off the plane driver, to simulate,
    # which calls the controller and the tracker once a step
    layers, spans, _ = bench_modules
    from attswitch import harness

    J = np.diag([1.66e-5, 1.66e-5, 2.93e-5])
    J[0, 1] = J[1, 0] = 1e-7
    sc = harness.make_ic_scenario(2.0, 210.0, law, inertia=J, horizon=0.01)
    tracer = spans.Tracer()
    with spans.patched(layers.replacements(tracer, "compare")):
        harness.run_scenario(sc)
    calls = tracer.snapshot()
    steps = 11  # horizon / dt + 1 samples
    assert calls["harness.run_scenario"] == 1
    assert calls["rigid_body.simulate"] == 1
    assert calls["rigid_body.steps"] == steps - 1
    for name in LAWS:
        assert calls[f"controllers.{name}"] == (steps if name == law else 0)
    assert calls["reference.sample"] == steps


def test_traced_simulate_counts_each_output_once(bench_modules, tmp_path):
    layers, spans, _ = bench_modules
    from attswitch import cli

    tracer = spans.Tracer()
    argv = ["simulate", "--ic", "2,150", "--horizon", "0.01", "--out", str(tmp_path)]
    with spans.patched(layers.replacements(tracer, "simulate_full")):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    calls = tracer.snapshot()
    once = ("harness.scenario_to_text", "harness.format_run_report", "harness.export_run", "cli.main")
    for name in once:
        assert calls[name] == 1, name


def test_traced_certify_counts_each_certificate(bench_modules):
    layers, spans, workloads = bench_modules
    from attswitch.controllers import ErrorState

    rng = np.random.default_rng(0)
    gains = workloads.random_gains(rng)
    n = 20
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w = rng.normal(size=(n, 3)) * 3.0
    states = [ErrorState(q_err=q[i], w_err=w[i]) for i in range(n)]
    tracer = spans.Tracer()
    with spans.patched(layers.replacements(tracer, "certify")):
        workloads.certify_batch(gains, states)
    calls = tracer.snapshot()
    assert calls["controllers.switch_function"] == n  # the stability.states count
    for name in ("lyapunov_rate", "lyapunov_decay_bound", "roa_contains"):
        assert calls[f"stability.{name}"] == 2 * n
    assert calls["stability.error_jacobian"] == 2  # every tenth state
