"""In-memory spans around the benchmark's own calls into zerosum.

A span holds a name, its start and end (``time.perf_counter`` seconds), the
index of its parent span (-1 for a root) and ``n``, the doubling-ladder size
the call worked on (0 for a call outside a ladder).  Spans stay in memory
until ``write`` dumps them at the end of a run.  A disabled tracer hands out
one shared no-op context manager, so untraced runs pay one attribute lookup
and one call per span site.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    n: int


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NO_SPAN = _NoSpan()


class _OpenSpan:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> None:
        self.tracer.spans[self.index].start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        tracer.spans[self.index].end = time.perf_counter()
        tracer.stack.pop()


class Tracer:
    """Records nested spans when ``enabled``; does nothing otherwise."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.stack: list[int] = []

    def span(self, name: str, n: int = 0):
        if not self.enabled:
            return _NO_SPAN
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, 0.0, 0.0, parent, n))
        index = len(self.spans) - 1
        self.stack.append(index)
        return _OpenSpan(self, index)

    def mark(self) -> int:
        """Position in the span list; spans recorded after it form one pass."""
        return len(self.spans)

    def self_times(self, begin: int, end: int | None = None) -> list[tuple[str, int, float]]:
        """(name, n, self time) for spans[begin:end].

        Self time is the span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        spans = self.spans[begin:end]
        child_time = [0.0] * len(spans)
        for sp in spans:
            if sp.parent >= begin:
                child_time[sp.parent - begin] += sp.end - sp.start
        return [
            (sp.name, sp.n, (sp.end - sp.start) - child_time[i])
            for i, sp in enumerate(spans)
        ]

    def write(self, path: Path) -> None:
        rows = [
            {"name": sp.name, "start": sp.start, "end": sp.end,
             "parent": sp.parent, "n": sp.n}
            for sp in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}) + "\n", encoding="ascii")
