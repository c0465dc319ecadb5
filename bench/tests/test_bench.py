"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest bench/tests -q
"""

import json
import math
import signal
import sys
import time
import types
from contextlib import contextmanager
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import worker  # noqa: E402
from measure import (  # noqa: E402
    KERNEL_REFERENCE_NS,
    CheckFailed,
    Op,
    PassResult,
    SpeedProbe,
    percentile,
    require,
    run_pass,
    tail_percentile,
)
from spans import ScaledTotals, Tracer, patched  # noqa: E402
from workloads import (  # noqa: E402
    LAWS,
    PSI_MAX,
    PSI_MIN,
    Certify,
    Compare,
    SimulateFull,
    load_reference,
    stability,
)


@pytest.mark.parametrize(
    "n, p", [(20, 50), (21, 52), (36, 72), (75, 86), (99, 89), (100, 90), (1000, 99), (5000, 99)]
)
def test_tail_percentile_is_the_highest_with_ten_samples_beyond(n, p):
    samples = list(range(n, 0, -1))  # the values 1..n, unsorted
    got, value, count = tail_percentile(samples)
    assert (got, count) == (p, n)
    assert value == math.ceil(p * n / 100)  # the sample of nearest rank
    assert sum(s > value for s in samples) >= 10
    if p < 99:
        assert sum(s > percentile(samples, p + 1) for s in samples) < 10


def test_tail_percentile_falls_back_to_the_median():
    assert tail_percentile([5.0, 1.0, 3.0]) == (50, 3.0, 3)
    with pytest.raises(ValueError):
        tail_percentile([])


class FakeProbe:
    """A SpeedProbe that takes no time and reports the reference speed."""

    spent_ns = 0

    @contextmanager
    def during(self):
        yield self

    def slowdown(self):
        return 1.0


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_subtracts_only_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 5

    def middle():
        clock.now += 2
        traced_leaf()
        clock.now += 3
        traced_leaf()

    def outer():
        clock.now += 7
        traced_middle()
        clock.now += 1

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    traced_outer = tracer.wrap("outer", outer)
    traced_outer()
    clock.now += 100  # outside any span
    traced_outer()
    # one outer call: leaf 5 + 5, middle 15 (self 5), outer 23 (self 8)
    assert tracer.spans["leaf"] == [4, 20, 20]
    assert tracer.spans["middle"] == [2, 10, 30]
    assert tracer.spans["outer"] == [2, 16, 46]
    assert tracer.covered_ns() == 46 == sum(stat[1] for stat in tracer.spans.values())


def test_a_raising_span_still_closes_and_hooks_see_results():
    clock = FakeClock()
    tracer = Tracer(clock)

    def fail():
        clock.now += 4
        raise ZeroDivisionError

    def outer():
        clock.now += 1
        try:
            traced_fail()
        except ZeroDivisionError:
            pass
        return [1, 2, 3]

    def hook(t, args, result):
        t.counts["items"] += len(result)

    traced_fail = tracer.wrap("fail", fail)
    tracer.wrap("outer", outer, hook)()
    assert tracer.spans["fail"] == [1, 4, 4]
    assert tracer.spans["outer"] == [1, 1, 5]
    assert tracer.covered_ns() == 5
    assert tracer.snapshot() == {"fail": 1, "outer": 1, "items": 3}


def test_scaled_totals_divide_each_block_by_its_own_factor():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 6

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer():
        clock.now += 4
        traced_leaf()

    traced_outer = tracer.wrap("outer", outer)
    totals = ScaledTotals()
    for factor in (2.0, 0.5):  # the same work at half and at double the speed
        before = tracer.totals()
        traced_outer()
        totals.add(before, tracer.totals(), factor)
    assert totals.spans["leaf"] == [2, pytest.approx(15.0), pytest.approx(15.0)]
    assert totals.spans["outer"] == [2, pytest.approx(10.0), pytest.approx(25.0)]
    assert totals.covered_ns == pytest.approx(25.0)
    assert sum(stat[1] for stat in totals.spans.values()) == pytest.approx(totals.covered_ns)


def test_layer_metrics_cover_every_per_layer_metric_of_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    metrics = layers.layer_metrics(ScaledTotals(), {"rigid_body.steps": 0}, {}, 1e6, 0.1, 1)
    assert [(name, m["unit"]) for name, m in metrics.items()] == [
        (m["name"], m["unit"]) for m in spec["per_layer"]
    ]
    assert metrics["bench.other_us"]["value"] == metrics["bench.traced_pass_us"]["value"] == 1e3


def test_patched_restores_attributes_even_when_the_block_raises():
    class C:
        def f(self):
            return 1

    mod = types.ModuleType("mod")
    mod.g = len
    with pytest.raises(RuntimeError):
        with patched([(C, "f", lambda self: 2), (mod, "g", abs)]):
            assert C().f() == 2 and mod.g is abs
            raise RuntimeError
    assert C().f() == 1 and mod.g is len


def test_failed_ops_are_counted_and_the_pass_goes_on():
    ops = [
        Op(lambda: 1, lambda r: r, units=1),
        Op(lambda: 2, lambda r: require(r == 3, "corrupted output"), units=1),
        Op(lambda: 1 / 0, lambda r: r, units=1),
        Op(lambda: 4, lambda r: r, units=1),  # differs from its reference value 5
    ]
    res = run_pass(ops, expected=[1, None, None, 5], probe=FakeProbe())
    assert (res.attempted, res.failed, res.units) == (4, 3, 1)
    assert len(res.times_ns) == 4
    assert res.observed == [1, None, None, None]
    assert len(res.errors) == 3 and "ZeroDivisionError" in res.errors[1]
    assert res.slowdowns == [1.0] * 4


def test_speed_probe_samples_during_the_block_and_drops_descheduled_probes():
    probe = SpeedProbe()
    previous = signal.getsignal(signal.SIGALRM)
    with probe.during():
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(probe.samples) >= 4  # one before the block, then one per 10 ms
    assert 0 < probe.spent_ns < sum(probe.samples)  # the first probe is outside the block
    probe.samples = [KERNEL_REFERENCE_NS] * 9 + [100 * KERNEL_REFERENCE_NS]
    assert probe.slowdown() == 1.0


def test_time_metrics_are_divided_by_each_op_slowdown():
    tally = worker.Tally()
    # the same work timed at half the reference speed, at it, and at a third of it
    tally.add(PassResult(times_ns=[2e6, 4e6], slowdowns=[2.0, 2.0], attempted=2, units=2))
    tally.add(PassResult(times_ns=[1e6, 6e6], slowdowns=[1.0, 3.0], attempted=2, units=2))
    adjusted, pct, n, _ = worker.timings(tally, adjusted=True)
    assert adjusted["wall_s"][0] == pytest.approx(3e-3)
    assert adjusted["ops_per_s"][0] == pytest.approx(4 / 6e-3)
    assert adjusted["op_ms_p50"][0] == pytest.approx(1.0)
    assert (pct, n) == (50, 4)
    raw, _, _, _ = worker.timings(tally, adjusted=False)
    assert raw["wall_s"][0] == pytest.approx(6.5e-3)
    assert raw["ops_per_s"][0] == pytest.approx(4 / 13e-3)


def test_certify_counts_a_rate_above_its_bound_as_a_failure(monkeypatch, tmp_path):
    ops = Certify(3, tmp_path).pass_ops(0)[:2]
    assert run_pass(ops).failed == 0
    # the decay bound is negative away from the equilibria, so +1 breaks it
    monkeypatch.setattr(stability, "lyapunov_rate", lambda err, sigma, gains: 1.0)
    res = run_pass(ops)
    assert (res.attempted, res.failed) == (2, 2)


def test_compare_flags_a_gamma_off_its_reference(tmp_path):
    workload = Compare(0, tmp_path, load_reference("compare"))
    ops = workload.pass_ops(0)
    assert len(ops) == 1  # one effort_comparison call over all five ICs
    expected = [[list(pair) for pair in workload.reference[0][0]]]
    assert len(expected[0]) == 5
    assert run_pass(ops, expected, workload.same).failed == 0
    expected[0][3][1] *= 1.0 + 1e-9
    assert run_pass(ops, expected, workload.same).failed == 1


def test_simulate_full_check_rejects_nan_telemetry(tmp_path):
    op = SimulateFull(0, tmp_path).warmup_op()
    result = op.call()
    op.check(result)
    path = tmp_path / "simulate" / "telemetry.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[10] = "nan," + lines[10].split(",", 1)[1]
    path.write_text("".join(lines))
    with pytest.raises(CheckFailed, match="non-finite"):
        op.check(result)


def test_simulate_full_passes_cover_the_ic_box_with_equal_work(tmp_path):
    totals = set()
    for seed in range(6):
        workload = SimulateFull(seed, tmp_path)
        for k in range(3):
            ics = workload.pass_ics(k)
            assert sorted(law for _, _, law in ics) == sorted(LAWS * 2)
            for wz, psi0_deg, _ in ics:
                assert 1.0 <= wz <= 4.0
                assert math.degrees(PSI_MIN) - 1e-9 <= psi0_deg <= math.degrees(PSI_MAX) + 1e-9
            totals.add(sum(op.steps for op in workload.pass_ops(k)))
    assert max(totals) - min(totals) <= 3  # rounding to whole steps only


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    tally = worker.Tally()
    tally.add(PassResult(times_ns=[1000, 2000, 3000], slowdowns=[1.0] * 3, attempted=3, units=3))
    metrics, _ = worker.end_to_end(Certify, tally)
    printed = [("setup_s", "s")] + [(name, m["unit"]) for name, m in metrics.items()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == printed
