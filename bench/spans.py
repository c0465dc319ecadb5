"""Span timing for the traced benchmark pass.

Spans are recorded from the benchmark's side: ``patched`` replaces module or
class attributes of the program with wrappers for the length of a block and
puts the originals back afterwards, so no program file changes.  Spans are
aggregated as they close (calls, self time, total time per name) instead of
being kept one by one, which keeps memory flat however many steps a run
takes.  A span's self time is its duration minus the durations of the spans
it directly encloses.
"""

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Aggregating span recorder with a pluggable nanosecond clock."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = {}  # name -> [calls, self_ns, total_ns]
        self.counts = defaultdict(int)
        # time covered by closed child spans, one entry per open span; the
        # bottom entry collects the time of top-level spans
        self._children = [0]

    def wrap(self, name, fn, after=None):
        """Return fn wrapped so that each call records one span ``name``.

        ``after(tracer, args, result)`` runs once the span has closed, to
        update counters from the call's result.
        """
        stat = self.spans.setdefault(name, [0, 0, 0])
        children = self._children
        clock = self.clock

        def traced(*args, **kwargs):
            children.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - children.pop()
                stat[2] += elapsed
                children[-1] += elapsed
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def counter(self, name, fn):
        """Return fn wrapped so that each call only increments ``name``."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def covered_ns(self) -> int:
        """Total time of top-level spans, which equals the sum of all self times."""
        return self._children[0]

    def totals(self):
        """Copy of every span's [calls, self_ns, total_ns], and the covered time."""
        return {name: list(stat) for name, stat in self.spans.items()}, self.covered_ns()

    def snapshot(self) -> dict:
        """Copy of every span call count and counter, keyed by name."""
        snap = {name: stat[0] for name, stat in self.spans.items()}
        snap.update(self.counts)
        return snap


class ScaledTotals:
    """Span totals summed call block by call block, each block's times divided
    by its own factor (the machine slowdown while it ran).

    ``add(before, after, factor)`` takes two ``Tracer.totals()`` readings
    around a block.  Calls are summed as they are; self and total times, and
    the covered time, are divided by ``factor``.  Since every time of a block
    is divided by the same factor, the self times still sum to the covered
    time.
    """

    def __init__(self):
        self.spans = {}  # name -> [calls, self_ns, total_ns]
        self.covered_ns = 0.0

    def add(self, before, after, factor: float) -> None:
        spans_before, covered_before = before
        spans_after, covered_after = after
        for name, (calls, self_ns, total_ns) in spans_after.items():
            calls0, self0, total0 = spans_before.get(name, (0, 0, 0))
            stat = self.spans.setdefault(name, [0, 0.0, 0.0])
            stat[0] += calls - calls0
            stat[1] += (self_ns - self0) / factor
            stat[2] += (total_ns - total0) / factor
        self.covered_ns += (covered_after - covered_before) / factor


@contextmanager
def patched(replacements):
    """Set ``(owner, attr, value)`` attributes for the block, then restore them."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
