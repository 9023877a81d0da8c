"""Spans recorded by the benchmark around its calls into smnn, and statistics.

A span is (name, start, end, parent, trace): parent is the index of the
enclosing span, trace groups the spans of one query or one evaluate call.
End-to-end operations are always recorded, because their timings are the
end-to-end samples.  Layer calls are recorded only in a traced run; in an
untraced run they execute the same code without a span.
"""

import json
import statistics
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace")

    def __init__(self, name, start, end, parent, trace):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.trace = trace

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """In-memory span log of one run."""

    def __init__(self, traced):
        self.traced = traced
        self.spans = []
        self._open = []

    def call(self, name, fn, *args, trace=None, layer=False):
        """Run fn(*args), recording a span unless it is a layer call untraced."""
        if layer and not self.traced:
            return fn(*args)
        parent = self._open[-1] if self._open else None
        start = time.perf_counter()
        out = fn(*args)
        end = time.perf_counter()
        self.spans.append(Span(name, start, end, parent, trace))
        return out

    @contextmanager
    def span(self, name, trace=None, layer=False):
        """Enclosing span for a group of calls."""
        if layer and not self.traced:
            yield
            return
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), None, parent, trace))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def durations(self, name, trace_prefix=None):
        return [
            s.duration
            for s in self.spans
            if s.name == name and (trace_prefix is None or (s.trace or "").startswith(trace_prefix))
        ]

    def sums_by_parent(self, names):
        """Per enclosing span, the summed duration of its children named `names`."""
        sums = {}
        for s in self.spans:
            if s.name in names:
                sums[s.parent] = sums.get(s.parent, 0.0) + s.duration
        return list(sums.values())

    def differences(self, minuend, subtrahend, trace_prefix):
        """Per trace, duration of `minuend` minus that of `subtrahend`."""
        by_trace = {}
        for s in self.spans:
            if s.name in (minuend, subtrahend) and (s.trace or "").startswith(trace_prefix):
                by_trace.setdefault(s.trace, {})[s.name] = s.duration
        return [d[minuend] - d[subtrahend] for d in by_trace.values() if len(d) == 2]

    def self_times(self):
        """Per span name, total duration and self time (minus covered child time)."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        totals = {}
        for s, child in zip(self.spans, covered):
            total, own = totals.get(s.name, (0.0, 0.0))
            totals[s.name] = (total + s.duration, own + s.duration - child)
        return totals

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                [[s.name, s.start, s.end, s.parent, s.trace] for s in self.spans], fh
            )


def median(samples):
    return statistics.median(samples)


# Percentiles offered as tails, highest first.
_TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail(samples):
    """(level, value, count): the highest percentile with at least ten samples
    beyond it, or None below forty samples, where no such tail exists."""
    n = len(samples)
    if n < 40:
        return None
    ordered = sorted(samples)
    for level in _TAIL_LEVELS:
        if n * (100.0 - level) / 100.0 >= 10:
            rank = min(n - 1, int(n * level / 100.0))
            return level, ordered[rank], n
    return None
