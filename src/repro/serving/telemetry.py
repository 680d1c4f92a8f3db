"""Latency telemetry for the serving layer.

Long-running servers cannot afford to retain every observed latency, but
tail percentiles (p95/p99) are exactly what capacity planning needs, so the
serving layer records latencies into a :class:`LatencyHistogram` — a fixed
set of logarithmically spaced buckets from 1 µs to 1000 s.  Percentiles are
read as the upper edge of the bucket containing the requested rank, which
makes them deterministic and at most one bucket width (~12 %) above the true
value; count, sum, min and max are tracked exactly.

The histogram is thread-safe (one lock around the counters), cheap to record
into (one log10 per sample) and snapshots into the immutable
:class:`LatencySnapshot` that :class:`~repro.serving.engine.EngineStats` and
the async frontend's stats export in their ``as_dict`` reports.

Every serving counter is declared once, as a field of a stats dataclass
(:class:`StatsRecord`): :func:`metric` puts the Prometheus family it is
exported as — name, type, HELP — on the field, and :func:`derived` /
:func:`exported` mark the properties computed from the fields that reports
(and, for :func:`exported`, ``/metrics``) carry too.  ``/stats`` is
:meth:`StatsRecord.as_dict` and ``/metrics`` is
:func:`~repro.serving.frontend.metrics.render_prometheus`, both walks of the
fields, so a new counter reaches both by being declared.  The counters are
lifetime totals: a scraper takes interval rates (Prometheus ``rate()``).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "LatencySnapshot",
    "LatencyHistogram",
    "Metric",
    "StatsRecord",
    "derived",
    "exported",
    "metric",
]

#: Smallest resolvable latency (lower edge of bucket 0).
_MIN_LATENCY_SECONDS = 1e-6
#: Buckets per decade; 9 decades cover 1 µs .. 1000 s.
_BUCKETS_PER_DECADE = 20
_NUM_DECADES = 9
_NUM_BUCKETS = _BUCKETS_PER_DECADE * _NUM_DECADES


def _bucket_index(seconds: float) -> int:
    """Bucket holding ``seconds`` (clamped to the histogram's range)."""
    if seconds <= _MIN_LATENCY_SECONDS:
        return 0
    index = int(math.log10(seconds / _MIN_LATENCY_SECONDS) * _BUCKETS_PER_DECADE)
    return min(index, _NUM_BUCKETS - 1)


def _bucket_upper_edge(index: int) -> float:
    """Upper latency edge of bucket ``index``."""
    return _MIN_LATENCY_SECONDS * 10.0 ** ((index + 1) / _BUCKETS_PER_DECADE)


@dataclass(frozen=True)
class Metric:
    """The Prometheus family a stats value is exported as."""

    family: str
    kind: str  # "counter", "gauge" or "summary"
    help: str


def metric(family: str, kind: str, help: str, default: Any = 0) -> Any:
    """A stats field and the ``/metrics`` family it is exported as, declared
    together."""
    return field(default=default, metadata={"metric": Metric(family, kind, help)})


class derived(property):
    """A stats property :meth:`StatsRecord.as_dict` reports after the fields;
    with a :class:`Metric` (see :func:`exported`) ``/metrics`` exports it."""

    def __init__(self, fget: Callable[[Any], Any], metric: Optional[Metric] = None) -> None:
        super().__init__(fget)
        self.metric = metric


def exported(family: str, kind: str, help: str) -> Callable[[Callable[[Any], Any]], derived]:
    """Decorate a :class:`derived` property that ``/metrics`` exports."""
    return lambda fget: derived(fget, Metric(family, kind, help))


@lru_cache(maxsize=None)
def _reported(cls: type) -> Tuple[str, ...]:
    """What :meth:`StatsRecord.as_dict` reports of ``cls``, read once per
    class: its field names in order, then its :class:`derived` properties."""
    names = [item.name for item in fields(cls)]
    return tuple(names + [name for name, value in vars(cls).items() if isinstance(value, derived)])


class StatsRecord:
    """Base of the stats dataclasses: their one plain-dict form."""

    def as_dict(self) -> Dict[str, Any]:
        """The fields in declaration order (a nested record or policy as its
        own ``as_dict``), then the class's :class:`derived` properties."""
        report = {}
        for name in _reported(type(self)):
            value = getattr(self, name)
            report[name] = value.as_dict() if hasattr(value, "as_dict") else value
        return report


def _quantile(label: str) -> Any:
    """A percentile field of :class:`LatencySnapshot` and the ``quantile``
    label it is exported under in its summary family."""
    return field(metadata={"quantile": label})


@dataclass(frozen=True)
class LatencySnapshot(StatsRecord):
    """An immutable percentile summary of recorded latencies (seconds).

    Exported as a Prometheus summary by the field holding it: the percentile
    fields under their ``quantile`` labels, then ``_sum`` and ``_count``.
    Its ``as_dict`` key order is part of the contract — ``count``, the exact
    moments (mean/min/max), then the percentiles ascending — so serialized
    reports and JSONL logs diff cleanly across runs.

    Attributes
    ----------
    count:
        Number of recorded samples.
    mean_seconds, min_seconds, max_seconds:
        Exact moments of the samples (0.0 before any sample).
    p50_seconds, p95_seconds, p99_seconds:
        Bucketed percentile estimates — the upper edge of the bucket holding
        the rank, clamped to ``max_seconds``.
    """

    count: int
    mean_seconds: float
    min_seconds: float
    max_seconds: float
    p50_seconds: float = _quantile("0.5")
    p95_seconds: float = _quantile("0.95")
    p99_seconds: float = _quantile("0.99")


class LatencyHistogram:
    """Thread-safe log-bucketed histogram of latencies in seconds.

    ``record`` is O(1); ``percentile`` walks the fixed bucket array.  The
    histogram never allocates after construction, so a server keeps one per
    metric for its whole lifetime.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._buckets = [0] * _NUM_BUCKETS
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = 0.0

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        with self._lock:
            return self._count

    def record(self, seconds: float) -> None:
        """Record one latency sample (negative values are clamped to 0)."""
        seconds = max(0.0, float(seconds))
        with self._lock:
            self._buckets[_bucket_index(seconds)] += 1
            self._count += 1
            self._sum += seconds
            self._min = min(self._min, seconds)
            self._max = max(self._max, seconds)

    def percentile(self, quantile: float) -> float:
        """Latency at ``quantile`` in [0, 1].

        An empty histogram returns exactly ``0.0`` for every quantile —
        never ``NaN``, ``inf`` or an exception — so reporting paths can
        render a fresh histogram without special-casing.
        Out-of-range quantiles raise ``ValueError`` regardless of count.
        """
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile}")
        with self._lock:
            return self._percentile_locked(quantile)

    def _percentile_locked(self, quantile: float) -> float:
        if self._count == 0:
            return 0.0
        rank = max(1, math.ceil(quantile * self._count))
        seen = 0
        for index, bucket_count in enumerate(self._buckets):
            seen += bucket_count
            if seen >= rank:
                # The upper edge bounds every sample in the bucket; clamping
                # to the exact max keeps p99 <= max always true in reports.
                return min(_bucket_upper_edge(index), self._max)
        return self._max

    def snapshot(self) -> LatencySnapshot:
        """A consistent :class:`LatencySnapshot` of the current samples."""
        with self._lock:
            count = self._count
            return LatencySnapshot(
                count=count,
                mean_seconds=(self._sum / count) if count else 0.0,
                min_seconds=self._min if count else 0.0,
                max_seconds=self._max,
                p50_seconds=self._percentile_locked(0.50),
                p95_seconds=self._percentile_locked(0.95),
                p99_seconds=self._percentile_locked(0.99),
            )

    def __repr__(self) -> str:
        snap = self.snapshot()
        return (
            f"LatencyHistogram(count={snap.count}, "
            f"p50={snap.p50_seconds:.6f}s, p99={snap.p99_seconds:.6f}s)"
        )
