"""In-memory span recorder for the traced benchmark run.

A span is one timed call that the benchmark makes into a layer of the
program.  Each span records its name (``<layer>.<call>``), start and end
in nanoseconds, the index of its parent span (-1 for a root) and the
request id it belongs to.  Spans stay in a list while the run lasts and
are written out as JSON lines when it ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_now = time.perf_counter_ns


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else -1
        self.index = len(tr.spans)
        tr.spans.append([self.name, _now(), 0, parent, tr.request])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = _now()
        tr._stack.pop()
        return False


class Tracer:
    """Records nested spans; ``request`` tags every span opened under it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = 0

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span with this exact name."""
        return [(s[2] - s[1]) / 1e9 for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Each layer's span time minus the part its child spans cover."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s[0].split(".", 1)[0]] += (s[2] - s[1] - child[i]) / 1e9
        return dict(out)

    def children_seconds(self, parent_name: str, exclude=()) -> float:
        """Summed durations of the direct children of spans named parent_name."""
        parents = {i for i, s in enumerate(self.spans) if s[0] == parent_name}
        return sum((s[2] - s[1]) / 1e9 for s in self.spans
                   if s[3] in parents and s[0] not in exclude)

    def write(self, path: str):
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "request": request}) + "\n")

