"""The benchmark's trace hooks still find the program's entry points.

``bench/layers.py`` wraps attributes by name: each controller class's own
``__call__``, ``ManeuverTracker.sample``, ``harness.simulate`` and the other
layer entry points, and it counts the ``quat`` functions.  A refactor that
moves or renames one of them breaks ``bench/run.py --trace 1`` without
failing any other test; these tests fail instead.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        import layers
        import spans
    finally:
        sys.path.remove(str(BENCH))
    return layers, spans


@pytest.mark.parametrize("workload", ["compare", "simulate_full", "certify"])
def test_replacements_build(bench_modules, workload):
    layers, spans = bench_modules
    out = layers.replacements(spans.Tracer(), workload)
    wrapped = {(owner, attr) for owner, attr, _ in out}
    for owner, attr, _, _ in layers.SPANS[workload]:
        assert (owner, attr) in wrapped
    assert all(callable(value) for _, _, value in out)


def test_traced_closed_loop_reaches_every_simulation_span(bench_modules):
    layers, spans = bench_modules
    from attswitch import harness

    tracer = spans.Tracer()
    with spans.patched(layers.replacements(tracer, "compare")):
        harness.effort_comparison(repeats=1, ics=((2.0, 210.0),), horizon=0.01)
    calls = tracer.snapshot()
    steps = 11  # horizon / dt + 1 samples per run
    assert calls["harness.run_scenario"] == 2
    assert calls["rigid_body.simulate"] == 2
    assert calls["controllers.benchmark"] == steps
    assert calls["controllers.switching"] == steps
    assert calls["reference.sample"] == 2 * steps
    assert calls["quat.calls"] > 0
