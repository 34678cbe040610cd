"""Spans around the benchmark's calls into hierwave.

A span holds its name, start, end and the index of its parent span.  Spans
stay in memory and are summarised when the repetition ends.  Self time is
a span's duration minus the durations of its child spans (children of one
span never overlap: the program is single-threaded).
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._open.append(idx)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent)

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._open.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total duration and total self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            agg["calls"] += 1
            agg["total"] += end - start
            agg["self"] += end - start - child[i]
        return out


class NullTracer:
    """Same interface, no recording: used for the untraced repetitions."""

    def call(self, name: str, fn, *args):
        return fn(*args)

    @contextmanager
    def span(self, name: str):
        yield

    def summary(self) -> dict:
        return {}
