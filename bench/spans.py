"""In-memory spans for the benchmark's traced runs.

A span is (name, parent, start, end) in ``perf_counter_ns`` time; spans nest
by a stack, so a span's parent is the span open when it started and all spans
of one traced run share the run's root.  Spans stay in memory until
:meth:`Tracer.write`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append([self.name, tr.stack[-1], perf_counter_ns(), 0])
        tr.stack.append(self.index)

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][3] = perf_counter_ns()
        tr.stack.pop()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack = [-1]

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def durations(self, name: str) -> list[int]:
        """Durations (ns) of every span with this name."""
        return [end - start for n, _, start, end in self.spans if n == name]

    def self_times(self) -> dict[str, int]:
        """Total self time (ns) per span name: duration minus direct children."""
        child = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, int] = defaultdict(int)
        for i, (name, _, start, end) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                [
                    {"id": i, "parent": p, "name": n, "start_ns": s, "end_ns": e}
                    for i, (n, p, s, e) in enumerate(self.spans)
                ],
                fh,
            )
