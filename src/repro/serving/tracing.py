"""Zero-dependency distributed tracing for the serving request path.

PR 7 gave the front door aggregate Prometheus metrics; this module answers
the per-request question those aggregates cannot: *where did this one slow
query spend its time?*  It provides a minimal span tracer — no OpenTelemetry,
no third-party packages — threaded through every layer of the request path:

* :class:`Tracer` — owns the sampling decision, a bounded in-memory ring
  buffer of finished traces, monotonically updated counters
  (:class:`TracingStats`), and the threshold-triggered slow-query log.
* :class:`TraceContext` — one sampled request.  Layers open spans with
  ``ctx.span(name, **attrs)`` (nesting tracked via an explicit parent
  stack), or :meth:`TraceContext.begin_span` / :meth:`TraceContext.end_span`
  when the start and end live in different coroutine steps (queue waits,
  batch membership).
* :class:`Span` — one timed operation: ids, parent link, wall-aligned
  monotonic start/end, free-form attributes, recording pid/tid so the
  Perfetto export lays threads out on their own tracks.

Context propagates *in* via a W3C-style ``traceparent`` header
(:func:`parse_traceparent` / :func:`format_traceparent`) and flows *out*
via :meth:`Tracer.traces` (JSON span trees for ``GET /debug/traces``),
:meth:`Tracer.perfetto` (Chrome trace-event format, loadable in Perfetto or
``chrome://tracing``), and the slow-query JSONL log.

Clocks: every timestamp is ``wall_anchor + perf_counter()`` where the anchor
is captured once per process (:func:`monotonic_wall`).  Within a process the
timeline is strictly monotonic; across processes on the same host it is
wall-aligned, so the spans of a router and its replicas line up on one
timeline without any clock-sync protocol.

When sampling is off (``sample_rate == 0`` or no tracer configured) every
hook in the hot path is a single ``is None`` check — the overhead guard in
``benchmarks/bench_tracing.py`` holds the serving benchmark to the same
throughput either way.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.serving.telemetry import StatsRecord, metric

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "TracingStats",
    "format_traceparent",
    "make_span_id",
    "make_trace_id",
    "monotonic_wall",
    "parse_traceparent",
    "validate_trace_events",
]

# Captured once per process: the wall-clock reading at one perf_counter
# origin.  perf_counter() is CLOCK_MONOTONIC on Linux (system-wide), so the
# anchor stays valid across fork; spawn re-imports and re-anchors, which is
# equally consistent because both anchors measure the same host wall clock.
_WALL_ANCHOR = time.time() - time.perf_counter()


def monotonic_wall() -> float:
    """Wall-aligned monotonic seconds (see module docstring for the scheme)."""
    return _WALL_ANCHOR + time.perf_counter()


def make_trace_id() -> str:
    """A 32-hex-char trace id (random, non-zero as required by W3C)."""
    raw = os.urandom(16).hex()
    return raw if raw != "0" * 32 else make_trace_id()


def make_span_id() -> str:
    """A 16-hex-char span id."""
    raw = os.urandom(8).hex()
    return raw if raw != "0" * 16 else make_span_id()


_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


def parse_traceparent(header: str) -> Optional[Tuple[str, str, bool]]:
    """Parse a W3C ``traceparent`` header.

    Returns ``(trace_id, parent_span_id, sampled)`` or ``None`` when the
    header is malformed — per the spec, an unparseable header is ignored
    (the request simply starts a fresh trace) rather than rejected.
    """
    if not isinstance(header, str):
        return None
    match = _TRACEPARENT_RE.match(header.strip().lower())
    if match is None:
        return None
    version, trace_id, span_id, flags = match.groups()
    if version == "ff" or trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return trace_id, span_id, bool(int(flags, 16) & 0x01)


def format_traceparent(trace_id: str, span_id: str, sampled: bool = True) -> str:
    """Render a version-00 ``traceparent`` header."""
    return f"00-{trace_id}-{span_id}-{'01' if sampled else '00'}"


class Span:
    """One timed operation inside a trace.

    ``start``/``end`` are :func:`monotonic_wall` seconds; ``end`` is ``None``
    while the span is open.  ``attributes`` is a free-form dict of
    JSON-serialisable annotations (cache hit/miss, batch size...).
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "end",
        "attributes",
        "pid",
        "tid",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        start: float,
        end: Optional[float] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = end
        self.attributes: Dict[str, Any] = attributes if attributes is not None else {}
        self.pid = os.getpid()
        self.tid = threading.get_ident()

    @property
    def duration_seconds(self) -> float:
        """Elapsed seconds, 0.0 while the span is still open."""
        if self.end is None:
            return 0.0
        return max(0.0, self.end - self.start)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration_ms": self.duration_seconds * 1e3,
            "pid": self.pid,
            "tid": self.tid,
            "attributes": dict(self.attributes),
        }


class _ScopedSpan:
    """``with ctx.span(...) as span:`` — begin on enter, end on exit."""

    __slots__ = ("_ctx", "_name", "_attributes", "span")

    def __init__(self, ctx: "TraceContext", name: str, attributes: Dict[str, Any]):
        self._ctx = ctx
        self._name = name
        self._attributes = attributes
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self._ctx.begin_span(self._name, push=True, **self._attributes)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self.span is not None
        if exc_type is not None:
            self._ctx.end_span(self.span, status="error", error=repr(exc))
        else:
            self._ctx.end_span(self.span)
        return False


class TraceContext:
    """All spans of one sampled request, plus the live nesting state.

    A context only exists when the request *is* sampled — unsampled requests
    get ``None`` and every instrumentation site gates on that, keeping the
    untraced hot path to one pointer comparison.

    Thread-safety: span begin/end are lock-guarded.  The parent *stack*
    assumes the request's operations are causally ordered (queue → batch →
    engine → stages), which holds for the serving path even as it hops
    between the event loop and executor threads.
    """

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        name: str = "request",
        parent_id: Optional[str] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._tracer = tracer
        self.trace_id = trace_id
        self._lock = threading.Lock()
        self._finished = False
        self.root = Span(
            trace_id,
            make_span_id(),
            parent_id,
            name,
            monotonic_wall(),
            attributes=dict(attributes or {}),
        )
        self.spans: List[Span] = [self.root]
        self._stack: List[Span] = [self.root]
        self._open: List[Span] = []

    # -- span lifecycle ----------------------------------------------------

    def span(self, name: str, **attributes: Any) -> _ScopedSpan:
        """Context manager opening a child span under the current position."""
        return _ScopedSpan(self, name, attributes)

    def begin_span(
        self, name: str, push: bool = False, **attributes: Any
    ) -> Span:
        """Open a span now; the caller ends it later with :meth:`end_span`.

        ``push=True`` additionally makes it the parent of subsequently
        opened spans until it ends (what ``ctx.span(...)`` does).
        """
        with self._lock:
            parent = self._stack[-1] if self._stack else self.root
            span = Span(
                self.trace_id,
                make_span_id(),
                parent.span_id,
                name,
                monotonic_wall(),
                attributes=dict(attributes),
            )
            self.spans.append(span)
            self._open.append(span)
            if push:
                self._stack.append(span)
            return span

    def end_span(self, span: Span, **attributes: Any) -> None:
        """Close ``span`` (idempotent) and merge any final attributes."""
        with self._lock:
            if span.end is not None:
                return
            span.end = monotonic_wall()
            if attributes:
                span.attributes.update(attributes)
            try:
                self._open.remove(span)
            except ValueError:  # pragma: no cover - defensive
                pass
            if span in self._stack:
                self._stack.remove(span)

    def current_span_id(self) -> str:
        """Id of the innermost open span (for outbound propagation)."""
        with self._lock:
            return (self._stack[-1] if self._stack else self.root).span_id

    # -- completion --------------------------------------------------------

    def finish(self, status: str = "ok", **attributes: Any) -> None:
        """Close the trace and hand the span tree to the tracer (idempotent).

        Any spans still open (error paths that bypassed an ``end_span``) are
        closed here and flagged ``auto_closed`` so a truncated tree is
        visible as such instead of silently losing durations.
        """
        with self._lock:
            if self._finished:
                return
            self._finished = True
            now = monotonic_wall()
            for span in self._open:
                span.end = now
                span.attributes.setdefault("auto_closed", True)
            self._open.clear()
            self._stack.clear()
            self.root.attributes.update(attributes)
            self.root.attributes["status"] = status
            self.root.end = now
        self._tracer._record(self)

    def as_dict(self) -> Dict[str, Any]:
        """The finished span tree in ``/debug/traces`` JSON shape."""
        with self._lock:
            spans = [span.as_dict() for span in self.spans]
        root = spans[0]
        return {
            "trace_id": self.trace_id,
            "root_span_id": self.root.span_id,
            "name": self.root.name,
            "status": self.root.attributes.get("status"),
            "start": root["start"],
            "duration_ms": root["duration_ms"],
            "spans": spans,
        }


@dataclass
class TracingStats(StatsRecord):
    """Monotonic tracer counters, folded into ``EngineStats``/Prometheus.

    The tracer's running counters are one of these; :meth:`Tracer.stats`
    snapshots it.
    """

    started: int = metric(
        "repro_traces_started_total", "counter", "Queries that reached the tracer's sampling decision."
    )
    sampled: int = metric(
        "repro_traces_sampled_total",
        "counter",
        "Queries selected for tracing (locally sampled or forced by traceparent).",
    )
    finished: int = metric(
        "repro_traces_finished_total", "counter", "Sampled traces finished and recorded in the ring."
    )
    spans: int = metric(
        "repro_trace_spans_total", "counter", "Spans recorded across all finished traces."
    )
    slow_traces: int = metric(
        "repro_slow_traces_total", "counter", "Finished traces over the slow-query threshold."
    )
    dropped: int = metric(
        "repro_traces_dropped_total", "counter", "Finished traces evicted from the in-memory ring."
    )
    sample_rate: float = metric(
        "repro_trace_sample_rate",
        "gauge",
        "Configured probability of tracing a query (hot-reloadable).",
        default=0.0,
    )


class Tracer:
    """Sampling, the finished-trace ring buffer, and the slow-query log.

    ``sample_rate`` is the probability an offered request is traced (0.0
    disables local sampling; an inbound ``traceparent`` with the sampled
    flag set forces tracing regardless, so an operator can always trace one
    request by hand with ``curl -H 'traceparent: ...'``).  Finished traces
    land in a ``ring_size``-bounded deque served at ``/debug/traces``;
    traces slower than ``slow_threshold_ms`` are additionally appended as
    JSONL span trees to ``slow_log_path``.
    """

    def __init__(
        self,
        sample_rate: float = 0.0,
        ring_size: int = 512,
        slow_threshold_ms: Optional[float] = None,
        slow_log_path: Optional[str] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        if ring_size < 1:
            raise ValueError(f"ring_size must be >= 1, got {ring_size}")
        if slow_threshold_ms is not None and not (
            math.isfinite(slow_threshold_ms) and slow_threshold_ms >= 0
        ):
            raise ValueError(
                f"slow_threshold_ms must be finite and >= 0, got {slow_threshold_ms}"
            )
        self._lock = threading.Lock()
        self._stats = TracingStats(sample_rate=float(sample_rate))
        self._ring: deque = deque(maxlen=int(ring_size))
        self._slow_threshold_ms = slow_threshold_ms
        self._slow_log_path = slow_log_path
        self._rng = rng if rng is not None else random.Random()

    # -- configuration -----------------------------------------------------

    @property
    def sample_rate(self) -> float:
        with self._lock:
            return self._stats.sample_rate

    def set_sample_rate(self, rate: float) -> None:
        """Hot-reload hook (``/admin/reload`` key ``trace_sample``)."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {rate}")
        with self._lock:
            self._stats.sample_rate = float(rate)

    # -- trace lifecycle ---------------------------------------------------

    def start_trace(
        self,
        name: str = "request",
        traceparent: Optional[str] = None,
        **attributes: Any,
    ) -> Optional[TraceContext]:
        """Offer a request to the tracer; ``None`` means *not sampled*.

        An inbound ``traceparent`` (if parseable) pins the trace id and links
        the root span to the external parent; its sampled flag forces
        sampling.  Otherwise the local ``sample_rate`` decides.
        """
        trace_id: Optional[str] = None
        parent_id: Optional[str] = None
        forced = False
        if traceparent is not None:
            parsed = parse_traceparent(traceparent)
            if parsed is not None:
                trace_id, parent_id, forced = parsed
        with self._lock:
            stats = self._stats
            stats.started += 1
            rate = stats.sample_rate
            sampled = forced or (rate > 0.0 and self._rng.random() < rate)
            if not sampled:
                return None
            stats.sampled += 1
        return TraceContext(
            self,
            trace_id if trace_id is not None else make_trace_id(),
            name=name,
            parent_id=parent_id,
            attributes=attributes,
        )

    def _record(self, ctx: TraceContext) -> None:
        """Called by :meth:`TraceContext.finish` — never directly."""
        tree = ctx.as_dict()
        with self._lock:
            stats = self._stats
            if len(self._ring) == self._ring.maxlen:
                stats.dropped += 1
            self._ring.append(tree)
            stats.finished += 1
            stats.spans += len(tree["spans"])
            threshold = self._slow_threshold_ms
            is_slow = threshold is not None and tree["duration_ms"] >= threshold
            if is_slow:
                stats.slow_traces += 1
        if is_slow and self._slow_log_path is not None:
            line = json.dumps(tree, separators=(",", ":"), sort_keys=False)
            with self._lock:
                with open(self._slow_log_path, "a", encoding="utf-8") as fh:
                    fh.write(line + "\n")

    # -- export ------------------------------------------------------------

    def traces(self) -> List[Dict[str, Any]]:
        """Finished span trees, oldest first (bounded by the ring size)."""
        with self._lock:
            return list(self._ring)

    def perfetto(self) -> Dict[str, Any]:
        """The ring as a Chrome trace-event document.

        Every span becomes one complete ("X") event; timestamps are rebased
        so the earliest span starts at ts=0 and converted to microseconds.
        Each pid gets process_name metadata so Perfetto labels the track.
        """
        trees = self.traces()
        events: List[Dict[str, Any]] = []
        pids: Dict[int, None] = {}
        base: Optional[float] = None
        for tree in trees:
            for span in tree["spans"]:
                if base is None or span["start"] < base:
                    base = span["start"]
        for tree in trees:
            for span in tree["spans"]:
                end = span["end"] if span["end"] is not None else span["start"]
                args = dict(span["attributes"])
                args["trace_id"] = tree["trace_id"]
                args["span_id"] = span["span_id"]
                if span["parent_id"] is not None:
                    args["parent_id"] = span["parent_id"]
                events.append(
                    {
                        "name": span["name"],
                        "cat": "serving",
                        "ph": "X",
                        "ts": (span["start"] - base) * 1e6,
                        "dur": max(0.0, end - span["start"]) * 1e6,
                        "pid": span["pid"],
                        "tid": span["tid"],
                        "args": args,
                    }
                )
                pids.setdefault(span["pid"])
        for pid in pids:
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": "serving"},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    # -- counters ----------------------------------------------------------

    def stats(self) -> TracingStats:
        with self._lock:
            return replace(self._stats)


# -- export validation -----------------------------------------------------


def validate_trace_events(doc: Any) -> int:
    """Validate a Chrome trace-event JSON document; return the event count.

    Checks the subset of the trace-event schema that Perfetto and
    ``chrome://tracing`` require to load the file: a ``traceEvents`` array
    whose members carry ``name``/``ph``/``pid``/``tid``, with complete
    ("X") events additionally carrying numeric non-negative ``ts``/``dur``.
    Raises :class:`ValueError` on the first violation — used by tests and
    the CI bench-smoke step to scrape-validate ``/debug/traces/perfetto``.
    """
    if not isinstance(doc, dict):
        raise ValueError("trace document must be a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace document must carry a 'traceEvents' array")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: events must be objects")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise ValueError(f"{where}: missing required field {key!r}")
        if not isinstance(event["name"], str):
            raise ValueError(f"{where}: 'name' must be a string")
        phase = event["ph"]
        if not isinstance(phase, str) or len(phase) != 1:
            raise ValueError(f"{where}: 'ph' must be a single-character string")
        for key in ("pid", "tid"):
            if not isinstance(event[key], int) or isinstance(event[key], bool):
                raise ValueError(f"{where}: {key!r} must be an integer")
        if phase == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ValueError(f"{where}: {key!r} must be a number")
                if value < 0:
                    raise ValueError(f"{where}: {key!r} must be >= 0")
        if "args" in event and not isinstance(event["args"], dict):
            raise ValueError(f"{where}: 'args' must be an object")
    return len(events)
