"""Op runner, machine-speed kernel and the order statistics the benchmark reports.

Nothing here imports the program, so the arithmetic can be tested alone.
"""

import math
import operator
import signal
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

MAX_LOGGED_FAILURES = 3
PROBE_ITERATIONS = 25  # one speed-kernel probe, about 0.1 ms
PROBE_INTERVAL_S = 0.01
# the probe's time when the machine runs at its reference speed (4 us per iteration)
KERNEL_REFERENCE_NS = 4_000 * PROBE_ITERATIONS
# the slowest share of probes, dropped: a probe that was descheduled
PROBE_TRIM = 0.1


class CheckFailed(Exception):
    """An op returned output that fails the workload's correctness check."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed call into the program and the check of its output.

    ``check(result)`` raises on a wrong output and otherwise returns the value
    that the reference results record for this op (or None).
    """

    call: Callable[[], object]
    check: Callable[[object], object]
    units: int  # runs or states the op completes, for ops_per_s
    steps: int = 0  # physics steps it integrates, for steps_per_s


def speed_kernel(iterations: int = PROBE_ITERATIONS) -> float:
    """Fixed work shaped like the program's, but independent of it.

    Small numpy arrays and Python float arithmetic, the two things the
    program's time goes to.  Its time tracks how fast the shared machine
    runs such code at that moment, which drifts by tens of percent within
    fractions of a second and from minute to minute.
    """
    s = 0.0
    for i in range(iterations):
        a = np.array([1.0, 2.0, float(i)])
        s += float(a @ a)
        x, y, z = 0.5 * i, 0.25 * s, 1.5
        for _ in range(4):
            x, y, z = x + 1e-3 * (y * z - x), y + 1e-3 * (z * x - y), z + 1e-3 * (x * y - z)
        s += x * 1e-9
    return s


class SpeedProbe:
    """Machine speed sampled while a block of code runs.

    ``during()`` times one probe (the speed kernel) before the block and then
    one every PROBE_INTERVAL_S inside it, from a SIGALRM handler: the probes
    run in the measuring thread itself, between the block's bytecodes, so no
    thread is started.  ``spent_ns`` is the time the probes inside the block
    took, which the caller subtracts from the block's time.  ``slowdown()``
    is the trimmed mean probe time over KERNEL_REFERENCE_NS.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.samples = []
        self.spent_ns = 0

    def _probe(self, *_):
        start = self.clock()
        speed_kernel()
        self.samples.append(self.clock() - start)
        self.spent_ns += self.clock() - start

    @contextmanager
    def during(self):
        self.samples = []
        self._probe()
        self.spent_ns = 0
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self) -> float:
        kept = sorted(self.samples)[: max(1, math.ceil(len(self.samples) * (1 - PROBE_TRIM)))]
        return statistics.fmean(kept) / KERNEL_REFERENCE_NS


@dataclass
class PassResult:
    times_ns: list = field(default_factory=list)  # op times, probes taken out
    slowdowns: list = field(default_factory=list)  # machine slowdown during each op
    probe_ns: list = field(default_factory=list)  # probe time inside each op
    observed: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    units: int = 0
    steps: int = 0
    errors: list = field(default_factory=list)

    @property
    def wall_ns(self) -> int:
        return sum(self.times_ns)

    def adjusted_ns(self) -> list:
        """Op times at the reference machine speed."""
        return [t / s for t, s in zip(self.times_ns, self.slowdowns)]


def run_pass(
    ops, expected=None, same=operator.eq, clock=time.perf_counter_ns, probe=None
) -> PassResult:
    """Run and check each op; time only the call.

    ``probe`` (a SpeedProbe by default) samples the machine's speed during
    each call; its own time is taken out of the op's.  An op fails when
    its call raises, its check raises, or its checked value differs (by
    ``same``) from ``expected[i]``.  A failure is counted and the pass goes
    on with the next op.
    """
    probe = probe or SpeedProbe()
    res = PassResult()
    for i, op in enumerate(ops):
        res.attempted += 1
        value = failure = None
        with probe.during():
            start = clock()
            try:
                result = op.call()
            except Exception:  # a raising op is a failed op, not a failed run
                failure = traceback.format_exc()
            elapsed, spent = clock() - start, probe.spent_ns
        res.times_ns.append(elapsed - spent)
        res.probe_ns.append(spent)
        res.slowdowns.append(probe.slowdown())
        if failure is not None:
            _record_failure(res, i, failure)
        else:
            try:
                value = op.check(result)
                if expected is not None and i < len(expected):
                    require(
                        same(expected[i], value),
                        f"output {value!r} differs from the reference {expected[i]!r}",
                    )
            except Exception:  # includes CheckFailed
                value = None
                _record_failure(res, i, traceback.format_exc())
            else:
                res.units += op.units
                res.steps += op.steps
        res.observed.append(value)
    return res


def _record_failure(res: PassResult, index: int, failure: str) -> None:
    res.failed += 1
    if len(res.errors) < MAX_LOGGED_FAILURES:
        res.errors.append(f"op {index} failed:\n{failure}")


def percentile(samples, p: float):
    """Nearest-rank p-th percentile: the sample of rank ceil(p n / 100)."""
    xs = sorted(samples)
    return xs[max(1, math.ceil(p * len(xs) / 100)) - 1]


def tail_percentile(samples, beyond: int = 10):
    """Highest whole percentile (50..99) with at least ``beyond`` samples above it.

    The samples beyond the p-th percentile are the n - ceil(p n / 100)
    larger ones.  Falls back to the median when even p50 has fewer than
    ``beyond`` samples past it.  Returns (percentile, value, sample count).
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    p = next((p for p in range(99, 50, -1) if n - math.ceil(p * n / 100) >= beyond), 50)
    return p, percentile(samples, p), n


def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))
