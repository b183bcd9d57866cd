"""In-memory span recorder for the benchmark.

A span has a name, a start, an end and a parent. Spans are kept in a list
while a pass runs and are reduced to per-name totals and self times when it
ends. Library code is traced from the outside: :func:`rebound` replaces the
module attributes that callers look up at call time (for example
``kindicators.kindap.inner_solve``) with wrappers that open a span, and puts
the originals back on exit. No file of the library changes.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    # Peak bytes allocated while the span was open, for spans opened with alloc=True.
    peak_bytes: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Totals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    peak_bytes: int = 0


class Tracer:
    """Records nested spans; one tracer per pass.

    Peak allocations are measured only when `track_alloc` is set, because
    tracemalloc slows every allocation while it runs.
    """

    def __init__(self, track_alloc: bool = False):
        self.track_alloc = track_alloc
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str, alloc: bool = False) -> int:
        index = len(self.spans)
        span = Span(name, self._open[-1] if self._open else None)
        self.spans.append(span)
        self._open.append(index)
        if alloc and self.track_alloc:
            # Allocation spans never nest, so each one owns the tracemalloc session.
            tracemalloc.start()
            span.peak_bytes = 0
        span.start = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if span.peak_bytes is not None:
            span.peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        self._open.pop()

    @contextmanager
    def span(self, name: str, alloc: bool = False):
        index = self.begin(name, alloc)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def totals(self, children_of: int | None = None) -> dict[str, Totals]:
        """Per-name call count, inclusive time, self time and peak allocation.

        Self time is a span's duration minus the durations of its direct
        children. With `children_of` set to a span index, only that span's
        direct children are counted.
        """
        child_seconds = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_seconds[span.parent] += span.seconds
        out: dict[str, Totals] = {}
        for i, span in enumerate(self.spans):
            if children_of is not None and span.parent != children_of:
                continue
            t = out.setdefault(span.name, Totals())
            t.calls += 1
            t.seconds += span.seconds
            t.self_seconds += span.seconds - child_seconds[i]
            t.peak_bytes = max(t.peak_bytes, span.peak_bytes or 0)
        return out


@contextmanager
def rebound(tracer: Tracer, targets):
    """Trace calls through each (owner, attribute, span name) in `targets`.

    `owner` is a module or a class; the attribute is replaced by a wrapper
    that records a span and restored when the block exits.
    """
    saved = []
    try:
        for owner, attr, name in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
