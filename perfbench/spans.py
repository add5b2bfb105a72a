"""In-memory span recorder for the traced replay.

A span is one call into a kderates layer: name (``<layer>.<call>``), start,
end, parent span and the campaign it belongs to, plus work counts recorded
at the same boundary.  A span opened with ``peak_bytes=True`` also records
the peak memory allocated inside it, traced with ``tracemalloc`` (numpy
reports its array buffers there).  Spans stay in memory until the run ends;
``dump`` writes them out.  The recorder times its own bookkeeping so the
cost of tracing can be reported beside the numbers it produced.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.bookkeeping_s = 0.0

    @contextmanager
    def span(self, name: str, campaign: str, peak_bytes: bool = False, **counts):
        t_in = time.perf_counter()
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "campaign": campaign,
            "name": name,
            "layer": name.split(".", 1)[0],
            "counts": counts,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        if peak_bytes:
            tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
        span["start"] = time.perf_counter()
        self.bookkeeping_s += span["start"] - t_in
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            if peak_bytes:
                counts["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
                tracemalloc.stop()
            self._stack.pop()
            self.bookkeeping_s += time.perf_counter() - span["end"]

    def call(self, name: str, campaign: str, fn, *args, counts=None, peak_bytes=False, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside one span."""
        with self.span(name, campaign, peak_bytes, **(counts or {})):
            return fn(*args, **kwargs)

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the time its children cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)

    def layer_self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, t in self.self_times().items():
            out[name.split(".", 1)[0]] += t
        return dict(out)

    def count(self, name: str, key: str) -> float:
        return sum(s["counts"].get(key, 0) for s in self.spans if s["name"] == name)

    def largest(self, name: str, key: str) -> float:
        return max((s["counts"].get(key, 0) for s in self.spans if s["name"] == name), default=0)

    def root_time(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
