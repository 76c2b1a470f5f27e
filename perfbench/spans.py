"""Spans and counters recorded around the benchmark's calls into each layer.

A span is (name, start, end, parent, item): the layer function called, its
interval on the monotonic clock, the index of the enclosing span (-1 at top
level) and the id of the work item it belongs to.  Spans stay in memory and
are written out once, when the run ends.  Nothing inside the package is
wrapped; every span sits at a call the benchmark itself makes.
"""

import time
from contextlib import contextmanager, nullcontext
from collections import defaultdict

_NULL = nullcontext()


class NullTracer:
    """Untraced rounds: spans cost one attribute lookup and a no-op context."""

    enabled = False

    def span(self, name, item=None):
        return _NULL

    def count(self, name, amount=1):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []  # [name, start, end, parent, item]
        self.counts = defaultdict(int)
        self._stack = []

    @contextmanager
    def span(self, name, item=None):
        parent = self._stack[-1] if self._stack else -1
        if item is None and parent >= 0:
            item = self.spans[parent][4]
        rec = [name, time.perf_counter(), None, parent, item]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, amount=1):
        self.counts[name] += amount


def self_times(spans):
    """{name: (calls, busy_s, self_s)}; self time is a span's duration minus
    the time its direct children cover (children never overlap here: the
    benchmark makes one call at a time)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        calls, busy, own = out.get(name, (0, 0.0, 0.0))
        dur = end - start
        out[name] = (calls + 1, busy + dur, own + dur - child[i])
    return out
