"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start, end, parent, trace_id)``: *parent* is the index
of the enclosing span in :attr:`Tracer.spans` (``None`` for a root), and
every span opened while a trace is active carries that trace's id (one
trace per benchmark point or request). Spans are only ever kept in
memory; the benchmark summarizes them when it ends.

Self time is a span's duration minus the part of its interval that its
child spans cover (:func:`self_times`).
"""

import time
from collections import namedtuple
from contextlib import contextmanager

Span = namedtuple("Span", "name start end parent trace_id")


class Tracer:
    """Records nested spans around the benchmark's calls into each layer.

    Single-threaded by design: the in-process workloads call the program
    serially, so a plain stack gives every span its parent.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._trace_id = None

    @contextmanager
    def trace(self, trace_id, name="point"):
        """Open a root span that starts trace *trace_id*."""
        previous = self._trace_id
        self._trace_id = trace_id
        try:
            with self.span(name):
                yield
        finally:
            self._trace_id = previous

    @contextmanager
    def span(self, name):
        """Record one span around the ``with`` body (kept on error too)."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent,
                                     self._trace_id)


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of *intervals*."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Self time of every span, in span order.

    >>> spans = [Span("point", 0.0, 10.0, None, 0),
    ...          Span("drive", 1.0, 6.0, 0, 0),
    ...          Span("finish", 7.0, 9.0, 0, 0)]
    >>> self_times(spans)
    [3.0, 5.0, 2.0]
    """
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [span.end - span.start - _covered(span.start, span.end, kids)
            for span, kids in zip(spans, children)]

