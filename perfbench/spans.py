"""Span collection for the traced run.

The benchmark wraps each public callable it passes into the engine; a
wrapped call records ``(name, start, end, rows, bytes, pid)`` in the
worker process that runs it and sends the span to one in-memory
collector actor.  Calls in the measuring process are recorded by
:class:`Tracer`.  All clocks are ``time.monotonic()``, which is
system-wide on Linux, so the spans of workers and of the measuring
process share one time axis.  The spans are written out once, when the
run ends.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import ray

# spans are sent without waiting; a drain stops once a poll this long
# after the previous one brings nothing new
SETTLE_S = 0.02


@dataclass
class Span:
    name: str
    start: float
    end: float
    rows: int = 0
    bytes: int = 0
    pid: int = 0

    @property
    def dur(self) -> float:
        return self.end - self.start


@ray.remote(num_cpus=0)
class SpanSink:
    def __init__(self):
        self.spans = []

    def add(self, span: Span) -> None:
        self.spans.append(span)

    def take(self) -> list:
        out, self.spans = self.spans, []
        return out


def wrap(name: str, fn, sink):
    """``fn`` with a span per call sent to ``sink``; rows and bytes are
    those of the returned table."""

    def traced(table, *args, **kwargs):
        t0 = time.monotonic()
        out = fn(table, *args, **kwargs)
        t1 = time.monotonic()
        # not waited on: a task blocked in ray.get gives up its slot and
        # Ray may start another worker, which would distort the trace
        sink.add.remote(Span(name, t0, t1, out.num_rows, out.nbytes,
                             os.getpid()))
        return out

    return traced


class Tracer:
    """Spans of the measuring process plus the worker spans drained from
    the sink."""

    def __init__(self):
        self.sink = SpanSink.remote()
        self.spans: list = []

    @contextmanager
    def span(self, name: str):
        s = Span(name, time.monotonic(), 0.0, pid=os.getpid())
        yield s
        s.end = time.monotonic()
        self.spans.append(s)

    def drain(self) -> list:
        """Worker spans recorded since the last drain (also kept); polls
        the sink until it has settled (``SETTLE_S``)."""
        got = ray.get(self.sink.take.remote())
        while True:
            time.sleep(SETTLE_S)
            more = ray.get(self.sink.take.remote())
            if not more:
                break
            got += more
        self.spans.extend(got)
        return got

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def union_s(spans) -> float:
    """Length of the union of the spans' intervals."""
    total, end = 0.0, float("-inf")
    for s in sorted(spans, key=lambda s: s.start):
        if s.end > end:
            total += s.end - max(s.start, end)
            end = s.end
    return total


def self_s(parent: Span, children) -> float:
    """``parent``'s duration minus the part its children cover."""
    inside = [Span(c.name, max(c.start, parent.start), min(c.end, parent.end))
              for c in children if c.end > parent.start
              and c.start < parent.end]
    return parent.dur - union_s(inside)
