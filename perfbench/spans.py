"""In-memory spans and counters for the traced pass.

A span records (name, start, end, parent).  Names are `layer.call`, with
the layer taken from the module being called (config, ff, curve, cover,
cft, search); spans named otherwise group the calls of one command and
count as unattributed glue.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict

LAYERS = ("config", "ff", "curve", "cover", "cft", "search")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def add(self, counter: str, amount: float = 1):
        self.counters[counter] += amount

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child_time[i]
        return dict(out)

    def layer_times(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, t in self.self_times().items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += t
        return out


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), None, parent])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr._stack.pop()
        return False
