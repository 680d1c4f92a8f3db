"""Benchmark-owned spans around the calls into each layer.

The program is not edited: spans are recorded here, from the benchmark's own
files, around the public functions of each layer.  A span is ``(name, start,
end, parent, query)``; spans of one request share ``query``.  They stay in
memory and are written as Chrome-trace JSON when the run ends.  A layer's
self time is its span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["SpanRecorder"]


class SpanRecorder:
    """An in-memory span list with a nesting stack for same-thread spans."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.queries: List[int] = []
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int = -1,
        query: int = -1,
    ) -> int:
        """Record a finished span (concurrent requests, synthesized children)."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.queries.append(query)
        return len(self.names) - 1

    @contextmanager
    def span(self, name: str, query: int = -1) -> Iterator[int]:
        """Time the body as a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else -1
        if query < 0 and parent >= 0:
            query = self.queries[parent]
        index = self.add(name, time.perf_counter(), 0.0, parent, query)
        self._stack.append(index)
        try:
            yield index
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()

    @property
    def current(self) -> int:
        """Index of the innermost open span (-1 outside any span)."""
        return self._stack[-1] if self._stack else -1

    # ------------------------------------------------------------------
    def durations(self) -> Dict[str, float]:
        """Total seconds per span name."""
        totals: Dict[str, float] = {}
        for name, start, end in zip(self.names, self.starts, self.ends):
            totals[name] = totals.get(name, 0.0) + (end - start)
        return totals

    def counts(self) -> Dict[str, int]:
        """Number of spans per name."""
        totals: Dict[str, int] = {}
        for name in self.names:
            totals[name] = totals.get(name, 0) + 1
        return totals

    def self_times(self) -> Dict[str, float]:
        """Total self seconds per span name: duration minus child durations."""
        covered = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[index] - self.starts[index]
        totals: Dict[str, float] = {}
        for index, name in enumerate(self.names):
            own = (self.ends[index] - self.starts[index]) - covered[index]
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def write_chrome_trace(self, path: str, metadata: Optional[dict] = None) -> None:
        """Write the spans as Chrome-trace ("X" events; tid = query id)."""
        origin = min(self.starts) if self.starts else 0.0
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": max(query, 0),
                "args": {"span": index, "parent": parent, "query": query},
            }
            for index, (name, start, end, parent, query) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.queries)
            )
        ]
        document = {"traceEvents": events, "displayTimeUnit": "ms"}
        if metadata:
            document["metadata"] = metadata
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
