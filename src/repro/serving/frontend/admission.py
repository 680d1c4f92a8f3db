"""Admission control and latency telemetry for the async frontend.

An open-loop traffic source does not slow down when the engine falls behind,
so an online server must choose between an unbounded queue (latency grows
without limit until memory does) and **shedding**: refusing work it cannot
answer in time.  :class:`AdmissionController` implements the shedding side —
a hard bound on in-flight queries, explicit shed/deadline accounting, and an
end-to-end latency histogram — and is consulted by the micro-batching
scheduler on every submission.

The controller is deliberately engine-agnostic (it counts logical queries,
not batches) and thread-safe, because admissions happen on the event loop
while completions are recorded from executor threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Optional

from repro.serving.telemetry import (
    LatencyHistogram,
    LatencySnapshot,
    StatsRecord,
    derived,
    exported,
    metric,
)

__all__ = [
    "QueryRejectedError",
    "QueryShedError",
    "DeadlineExceededError",
    "AdmissionStats",
    "AdmissionController",
]


class QueryRejectedError(RuntimeError):
    """Base class of frontend rejections (shed, deadline)."""

    #: Wire-protocol error code of the rejection.
    code = "rejected"


class QueryShedError(QueryRejectedError):
    """The admission queue was full; the query was refused immediately."""

    code = "shed"

    def __init__(
        self,
        pending: Optional[int] = None,
        capacity: Optional[int] = None,
        message: Optional[str] = None,
    ) -> None:
        if message is None:
            message = (
                f"admission queue full ({pending}/{capacity} in flight); "
                "query shed"
            )
        super().__init__(message)
        self.pending = pending
        self.capacity = capacity


class DeadlineExceededError(QueryRejectedError):
    """The query's deadline expired before a result could be delivered."""

    code = "deadline"


@dataclass
class AdmissionStats(StatsRecord):
    """Counters of an :class:`AdmissionController`.

    The controller's running counters are one of these;
    :meth:`AdmissionController.stats` snapshots it with the latency filled in.

    Attributes
    ----------
    capacity:
        Maximum admitted-but-unanswered queries.
    pending:
        Currently in-flight queries.
    admitted, shed, completed, expired, failed, cancelled:
        Lifetime outcomes: ``admitted`` splits into ``completed`` (result
        delivered), ``expired`` (deadline), ``failed`` (engine error) and
        ``cancelled`` (caller gave up); ``shed`` queries were never admitted.
    latency:
        End-to-end latency percentiles of *completed* queries (``None`` only
        on the controller's accumulator).
    """

    capacity: int = metric(
        "repro_admission_capacity", "gauge", "Configured bound on in-flight queries (max_pending)."
    )
    pending: int = metric(
        "repro_inflight_queries", "gauge", "Admitted-but-unanswered queries right now."
    )
    admitted: int = metric(
        "repro_queries_admitted_total", "counter", "Queries admitted into the serving queue."
    )
    shed: int = metric(
        "repro_queries_shed_total",
        "counter",
        "Queries refused because the admission queue was full.",
    )
    completed: int = metric(
        "repro_queries_completed_total", "counter", "Queries answered with a result."
    )
    expired: int = metric(
        "repro_queries_deadline_expired_total",
        "counter",
        "Admitted queries whose deadline passed before delivery.",
    )
    failed: int = metric(
        "repro_queries_failed_total", "counter", "Admitted queries failed by an engine error."
    )
    cancelled: int = metric(
        "repro_queries_cancelled_total", "counter", "Admitted queries whose caller gave up."
    )
    latency: Optional[LatencySnapshot] = metric(
        "repro_request_latency_seconds",
        "summary",
        "End-to-end latency of completed queries (admission to delivery).",
        default=None,
    )

    @exported("repro_queries_offered_total", "counter", "Queries presented to admission control.")
    def offered(self) -> int:
        """Total queries presented to the controller."""
        return self.admitted + self.shed

    @derived
    def shed_rate(self) -> float:
        """Fraction of offered queries shed (0.0 before any traffic)."""
        offered = self.offered
        return self.shed / offered if offered else 0.0


class AdmissionController:
    """Bounded in-flight query count with shed accounting and latency telemetry.

    Parameters
    ----------
    max_pending:
        Hard bound on admitted-but-unanswered queries.  Submissions beyond it
        raise :class:`QueryShedError` instead of growing any queue — the
        explicit backpressure signal callers (and the TCP protocol) surface.
    """

    def __init__(self, max_pending: int = 256) -> None:
        if max_pending <= 0:
            raise ValueError(f"max_pending must be > 0, got {max_pending}")
        self._lock = threading.Lock()
        self._stats = AdmissionStats(capacity=int(max_pending))
        self._latency = LatencyHistogram()

    @property
    def max_pending(self) -> int:
        """The configured in-flight bound."""
        return self._stats.capacity

    @property
    def pending(self) -> int:
        """Currently admitted-but-unanswered queries."""
        with self._lock:
            return self._stats.pending

    def set_max_pending(self, max_pending: int) -> None:
        """Change the in-flight bound in place (the hot-reload path).

        Already-admitted queries are never revoked: shrinking below the
        current ``pending`` just sheds new arrivals until completions bring
        the count back under the new bound.
        """
        if max_pending <= 0:
            raise ValueError(f"max_pending must be > 0, got {max_pending}")
        with self._lock:
            self._stats.capacity = int(max_pending)

    # ------------------------------------------------------------------
    def try_admit(self) -> bool:
        """Admit one query if capacity allows; count a shed otherwise."""
        with self._lock:
            stats = self._stats
            if stats.pending >= stats.capacity:
                stats.shed += 1
                return False
            stats.pending += 1
            stats.admitted += 1
            return True

    def admit(self) -> None:
        """Admit one query or raise :class:`QueryShedError`."""
        if not self.try_admit():
            raise QueryShedError(self.max_pending, self.max_pending)

    def complete(self, latency_seconds: float, queued: bool = True) -> None:
        """Record a delivered result and its end-to-end latency.

        ``queued=False`` admits and completes in one step a query answered
        without ever occupying a queue slot (the batcher's fast path): it is
        never pending, so it can never be shed.
        """
        with self._lock:
            if queued:
                self._stats.pending -= 1
            else:
                self._stats.admitted += 1
            self._stats.completed += 1
        self._latency.record(latency_seconds)

    def expire(self) -> None:
        """Record a deadline expiry of an admitted query."""
        with self._lock:
            self._stats.pending -= 1
            self._stats.expired += 1

    def fail(self) -> None:
        """Record an engine failure of an admitted query."""
        with self._lock:
            self._stats.pending -= 1
            self._stats.failed += 1

    def cancel(self) -> None:
        """Record a caller-side cancellation of an admitted query."""
        with self._lock:
            self._stats.pending -= 1
            self._stats.cancelled += 1

    # ------------------------------------------------------------------
    def stats(self) -> AdmissionStats:
        """A consistent snapshot of the counters and latency percentiles."""
        with self._lock:
            return replace(self._stats, latency=self._latency.snapshot())
