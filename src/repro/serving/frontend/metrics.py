"""Prometheus text-exposition rendering of the serving stats tree.

A server nobody can observe is a server nobody can operate.  The serving
stack already measures everything that matters — admission shed/deadline
counters and end-to-end latency percentiles
(:class:`~repro.serving.frontend.admission.AdmissionStats`), batcher
coalescing/dedup counters
(:class:`~repro.serving.frontend.batcher.BatcherStats`), engine compute
latency (:class:`~repro.serving.engine.EngineStats`), and cache counters
(:class:`~repro.serving.cache.CacheStats`) — this module just renders
one consistent snapshot of that tree in the Prometheus text exposition
format (version 0.0.4), so ``GET /metrics`` works with any standard
scraper.

Conventions follow the Prometheus guidelines: lifetime totals are
``_total`` counters, live state (in-flight queries, cache bytes) is gauges,
latency distributions are summaries with ``quantile`` labels plus ``_sum``
and ``_count``.  Cache families carry a ``cache`` label with three values —
``combined`` (everything the serving stack scored: extraction caches plus
the stage-one result cache, exactly ``EngineStats.cache``), ``result`` (the
stage-one result cache alone) and ``subgraph`` (combined minus result: the
extraction caches) — so dashboards can plot sub-graph and result-cache hit
rates independently.

:func:`parse_prometheus_text` is the matching validating parser.  It exists
so tests and the CI scrape smoke *prove* the output is well-formed instead
of eyeballing it; it is strict about the bits scrapers are strict about
(TYPE'd families, sample syntax, label escaping).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.serving.cache import CacheStats
from repro.serving.frontend.batcher import BatcherStats
from repro.serving.telemetry import LatencySnapshot

__all__ = [
    "render_prometheus",
    "parse_prometheus_text",
    "PrometheusScrape",
]

#: Prefix of every metric family this module emits.
METRIC_PREFIX = "repro"


def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    """Format a sample value (integers without a trailing ``.0``)."""
    if isinstance(value, bool):  # defensive: bools are ints in Python
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    as_float = float(value)
    if math.isinf(as_float):
        return "+Inf" if as_float > 0 else "-Inf"
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


class _Writer:
    """Accumulates HELP/TYPE headers and samples for one exposition."""

    def __init__(self) -> None:
        self._lines: List[str] = []

    def family(self, name: str, kind: str, help_text: str) -> None:
        self._lines.append(f"# HELP {name} {help_text}")
        self._lines.append(f"# TYPE {name} {kind}")

    def sample(
        self,
        name: str,
        value: float,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        if labels:
            rendered = ",".join(
                f'{key}="{_escape_label_value(str(val))}"'
                for key, val in labels.items()
            )
            self._lines.append(f"{name}{{{rendered}}} {_format_value(value)}")
        else:
            self._lines.append(f"{name} {_format_value(value)}")

    def counter(
        self,
        name: str,
        value: float,
        help_text: str,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.family(name, "counter", help_text)
        self.sample(name, value, labels)

    def gauge(
        self,
        name: str,
        value: float,
        help_text: str,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.family(name, "gauge", help_text)
        self.sample(name, value, labels)

    def summary(
        self, name: str, snapshot: LatencySnapshot, help_text: str
    ) -> None:
        """A latency summary: p50/p95/p99 quantiles plus ``_sum``/``_count``."""
        self.family(name, "summary", help_text)
        for quantile, value in (
            ("0.5", snapshot.p50_seconds),
            ("0.95", snapshot.p95_seconds),
            ("0.99", snapshot.p99_seconds),
        ):
            self.sample(name, value, {"quantile": quantile})
        self.sample(f"{name}_sum", snapshot.mean_seconds * snapshot.count)
        self.sample(f"{name}_count", snapshot.count)

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def _cache_difference(combined: CacheStats, result: CacheStats) -> CacheStats:
    """``combined - result`` counter-wise (clamped at zero, defensively)."""
    return CacheStats(
        hits=max(0, combined.hits - result.hits),
        misses=max(0, combined.misses - result.misses),
        evictions=max(0, combined.evictions - result.evictions),
        rejected=max(0, combined.rejected - result.rejected),
        expired=max(0, combined.expired - result.expired),
        current_bytes=max(0, combined.current_bytes - result.current_bytes),
        num_entries=max(0, combined.num_entries - result.num_entries),
    )


def _cache_families(writer: _Writer, caches: Dict[str, CacheStats]) -> None:
    """Emit the labelled cache families for every present cache tier."""
    p = METRIC_PREFIX
    families = [
        (f"{p}_cache_hits_total", "counter", "Cache lookups served from the cache.", lambda s: s.hits),
        (f"{p}_cache_misses_total", "counter", "Cache lookups that had to compute.", lambda s: s.misses),
        (f"{p}_cache_evictions_total", "counter", "Entries evicted under byte-budget pressure.", lambda s: s.evictions),
        (f"{p}_cache_rejected_total", "counter", "Entries larger than the whole budget, never cached.", lambda s: s.rejected),
        (f"{p}_cache_expired_total", "counter", "Entries dropped by TTL expiry.", lambda s: s.expired),
        (f"{p}_cache_bytes", "gauge", "Bytes currently retained.", lambda s: s.current_bytes),
        (f"{p}_cache_entries", "gauge", "Entries currently retained.", lambda s: s.num_entries),
        (f"{p}_cache_hit_ratio", "gauge", "Lifetime hit ratio (hits / lookups; 0 before traffic).", lambda s: s.hit_rate),
    ]
    for name, kind, help_text, getter in families:
        writer.family(name, kind, help_text)
        for tier, stats in caches.items():
            writer.sample(name, getter(stats), {"cache": tier})


def render_prometheus(
    stats: BatcherStats,
    draining: bool = False,
    info: Optional[Mapping[str, str]] = None,
) -> str:
    """Render one stats snapshot as Prometheus text exposition (0.0.4).

    Parameters
    ----------
    stats:
        A :meth:`MicroBatcher.stats` snapshot (nests admission and engine).
    draining:
        The server's drain flag (``repro_server_draining`` gauge) so
        dashboards and load balancers can see a drain in progress.
    info:
        Static labels (backend, policy, dataset...) emitted once on
        the ``repro_server_info`` gauge, the conventional info-metric
        pattern.
    """
    p = METRIC_PREFIX
    admission = stats.admission
    engine = stats.engine
    writer = _Writer()

    writer.gauge(
        f"{p}_server_info",
        1,
        "Static server configuration as labels; value is always 1.",
        dict(info) if info else {"policy": stats.policy.label},
    )
    writer.gauge(
        f"{p}_server_draining",
        1 if draining else 0,
        "1 while a graceful drain is in progress, else 0.",
    )

    # ------------------------------------------------------------------
    # Admission: the query-outcome ledger and the end-to-end latency.
    # ------------------------------------------------------------------
    writer.counter(f"{p}_queries_offered_total", admission.offered, "Queries presented to admission control.")
    writer.counter(f"{p}_queries_admitted_total", admission.admitted, "Queries admitted into the serving queue.")
    writer.counter(f"{p}_queries_shed_total", admission.shed, "Queries refused because the admission queue was full.")
    writer.counter(f"{p}_queries_completed_total", admission.completed, "Queries answered with a result.")
    writer.counter(f"{p}_queries_deadline_expired_total", admission.expired, "Admitted queries whose deadline passed before delivery.")
    writer.counter(f"{p}_queries_failed_total", admission.failed, "Admitted queries failed by an engine error.")
    writer.counter(f"{p}_queries_cancelled_total", admission.cancelled, "Admitted queries whose caller gave up.")
    writer.gauge(f"{p}_inflight_queries", admission.pending, "Admitted-but-unanswered queries right now.")
    writer.gauge(f"{p}_admission_capacity", admission.capacity, "Configured bound on in-flight queries (max_pending).")
    writer.summary(
        f"{p}_request_latency_seconds",
        admission.latency,
        "End-to-end latency of completed queries (admission to delivery).",
    )

    # ------------------------------------------------------------------
    # Batcher: coalescing and dedup effectiveness.
    # ------------------------------------------------------------------
    writer.counter(f"{p}_batches_total", stats.batches, "Engine batches the scheduler executed.")
    writer.counter(f"{p}_batched_queries_total", stats.batched_queries, "Logical queries delivered through batches (before dedup).")
    writer.counter(f"{p}_unique_queries_executed_total", stats.unique_executed, "Queries actually handed to the engine (after dedup).")
    writer.counter(f"{p}_dedup_hits_total", stats.dedup_hits, "Waiters served by another in-flight waiter's computation.")
    writer.counter(f"{p}_batcher_fast_path_hits_total", stats.fast_path_hits, "Submissions answered on the event loop from a cached finished answer (never queued or batched).")
    writer.gauge(f"{p}_mean_batch_size", stats.mean_batch_size, "Mean logical queries per executed batch.")

    # ------------------------------------------------------------------
    # Engine: compute-side counters and latency.
    # ------------------------------------------------------------------
    writer.counter(f"{p}_engine_queries_served_total", engine.queries_served, "Queries the engine computed.")
    writer.counter(f"{p}_engine_batches_total", engine.batches, "Batches the engine computed.")
    writer.counter(f"{p}_engine_busy_seconds_total", engine.wall_seconds, "Wall-clock seconds spent inside solve_batch.")
    if engine.latency is not None:
        writer.summary(
            f"{p}_engine_latency_seconds",
            engine.latency,
            "Per-query compute latency inside the engine.",
        )

    # ------------------------------------------------------------------
    # Caches: combined / subgraph / result tiers, labelled.
    # ------------------------------------------------------------------
    caches: Dict[str, CacheStats] = {}
    if engine.cache is not None:
        caches["combined"] = engine.cache
        if engine.result_cache is not None:
            caches["subgraph"] = _cache_difference(
                engine.cache, engine.result_cache
            )
            caches["result"] = engine.result_cache
        else:
            caches["subgraph"] = engine.cache
    elif engine.result_cache is not None:
        caches["combined"] = engine.result_cache
        caches["result"] = engine.result_cache
    if caches:
        _cache_families(writer, caches)

    # ------------------------------------------------------------------
    # Tracing: sampling/span counters, when a tracer is attached.
    # ------------------------------------------------------------------
    tracing = engine.tracing
    if tracing is not None:
        writer.counter(
            f"{p}_traces_started_total",
            tracing.started,
            "Queries that reached the tracer's sampling decision.",
        )
        writer.counter(
            f"{p}_traces_sampled_total",
            tracing.sampled,
            "Queries selected for tracing (locally sampled or forced by traceparent).",
        )
        writer.counter(
            f"{p}_traces_finished_total",
            tracing.finished,
            "Sampled traces finished and recorded in the ring.",
        )
        writer.counter(
            f"{p}_trace_spans_total",
            tracing.spans,
            "Spans recorded across all finished traces.",
        )
        writer.counter(
            f"{p}_slow_traces_total",
            tracing.slow_traces,
            "Finished traces over the slow-query threshold.",
        )
        writer.counter(
            f"{p}_traces_dropped_total",
            tracing.dropped,
            "Finished traces evicted from the in-memory ring.",
        )
        writer.gauge(
            f"{p}_trace_sample_rate",
            tracing.sample_rate,
            "Configured probability of tracing a query (hot-reloadable).",
        )

    return writer.render()


# ----------------------------------------------------------------------
# Parsing (for tests and scrape smokes)
# ----------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)
_VALID_TYPES = frozenset(
    {"counter", "gauge", "summary", "histogram", "untyped"}
)

#: A parsed sample key: the metric name and its sorted label pairs.
SampleKey = Tuple[str, Tuple[Tuple[str, str], ...]]


@dataclass
class PrometheusScrape:
    """A parsed exposition: family types plus every sample's value.

    ``samples`` maps ``(name, sorted label items)`` to the value;
    :meth:`value` is the ergonomic accessor tests use.
    """

    types: Dict[str, str]
    samples: Dict[SampleKey, float]

    def value(self, name: str, **labels: str) -> float:
        """The sample's value; raises ``KeyError`` when absent."""
        key = (name, tuple(sorted(labels.items())))
        return self.samples[key]

    def family_samples(self, name: str) -> Dict[SampleKey, float]:
        """Every sample of one family (including ``_sum``/``_count``)."""
        return {
            key: value
            for key, value in self.samples.items()
            if key[0] == name or key[0].startswith(f"{name}_")
        }

    def __contains__(self, name: str) -> bool:
        return any(key[0] == name for key in self.samples)


def _unescape_label_value(value: str) -> str:
    # Decoded with a left-to-right scan: chained str.replace mis-handles
    # adjacent escapes (an escaped backslash followed by a literal ``n``,
    # ``\\n``, must decode to ``\`` + ``n`` — not swallow the pair as a
    # newline escape).
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append("\n" if nxt == "n" else nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def parse_prometheus_text(text: str) -> PrometheusScrape:
    """Parse (and validate) a text exposition produced by a ``/metrics``.

    Raises ``ValueError`` on malformed lines, samples without a ``# TYPE``
    header, duplicate samples, or non-numeric values — the failure modes a
    real scraper would reject.
    """
    types: Dict[str, str] = {}
    samples: Dict[SampleKey, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) != 4 or parts[3] not in _VALID_TYPES:
                raise ValueError(f"line {lineno}: malformed TYPE line: {raw!r}")
            if parts[2] in types:
                raise ValueError(
                    f"line {lineno}: duplicate TYPE for family {parts[2]!r}"
                )
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue  # HELP and comments
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample line: {raw!r}")
        name = match.group("name")
        labels: List[Tuple[str, str]] = []
        raw_labels = match.group("labels")
        if raw_labels:
            # Consume the label block left to right; anything the label
            # grammar does not account for is a malformed line.
            remainder = raw_labels.strip()
            while remainder:
                label_match = _LABEL_RE.match(remainder)
                if label_match is None:
                    raise ValueError(
                        f"line {lineno}: malformed labels: {raw_labels!r}"
                    )
                labels.append(
                    (
                        label_match.group("key"),
                        _unescape_label_value(label_match.group("value")),
                    )
                )
                remainder = remainder[label_match.end() :].lstrip()
                if remainder.startswith(","):
                    remainder = remainder[1:].lstrip()
        try:
            if match.group("value") in ("+Inf", "-Inf", "NaN"):
                value = float(match.group("value").replace("Inf", "inf"))
            else:
                value = float(match.group("value"))
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: non-numeric value {match.group('value')!r}"
            ) from exc
        family = re.sub(r"_(sum|count|bucket)$", "", name)
        if name not in types and family not in types:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no # TYPE header"
            )
        key: SampleKey = (name, tuple(sorted(labels)))
        if key in samples:
            raise ValueError(f"line {lineno}: duplicate sample {key!r}")
        samples[key] = value
    return PrometheusScrape(types=types, samples=samples)
