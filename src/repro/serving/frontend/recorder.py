"""Workload recording and replay: production traces as repeatable benchmarks.

Synthetic workloads (Poisson arrivals over Zipf seeds) are a model; the
traffic that actually melts a server is whatever production sent last
Tuesday.  This module closes that loop:

* :class:`WorkloadRecorder` — attached to a front door (``--record PATH`` on
  the TCP and HTTP server CLIs, or ``recorder=`` on the server classes), it
  captures every *accepted* query with its arrival offset.  Rejected
  requests (bad JSON, out-of-range seeds) are not recorded — a trace must
  replay cleanly.
* :func:`save_trace` / :func:`load_trace` — one JSON object per line, so
  traces diff, concatenate and stream like any other JSONL artifact.
* :func:`replay_trace` — fires the recorded queries at their recorded
  offsets (optionally time-scaled) into a :class:`~repro.serving.frontend.
  batcher.MicroBatcher`, returning per-query outcomes exactly like the
  open-loop soak study (E15) does, so a recorded trace drops into its
  analysis unchanged.

Offsets are relative to the first recorded query (the idle time before
traffic started is not part of the workload), recorded on a monotonic
clock.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.ppr.base import PPRQuery, PPRResult
from repro.serving.frontend.admission import QueryRejectedError
from repro.serving.frontend.batcher import MicroBatcher

__all__ = [
    "TraceRecord",
    "WorkloadRecorder",
    "save_trace",
    "load_trace",
    "replay_trace",
    "replay_trace_sync",
]


@dataclass(frozen=True)
class TraceRecord:
    """One recorded query: what arrived, and when (relative to the first).

    Attributes
    ----------
    offset_seconds:
        Arrival time relative to the trace's first query (>= 0.0).
    seed, k, alpha, length:
        The query fields, post-validation.
    timeout_ms:
        The client's deadline, when it sent one (replay re-applies it).
    """

    offset_seconds: float
    seed: int
    k: int
    alpha: float
    length: int
    timeout_ms: Optional[float] = None

    def to_query(self) -> PPRQuery:
        """The replayable :class:`~repro.ppr.base.PPRQuery`."""
        return PPRQuery(
            seed=self.seed, k=self.k, alpha=self.alpha, length=self.length
        )

    def as_dict(self) -> dict:
        """Plain-dict form (one JSONL line)."""
        record = {
            "offset_seconds": self.offset_seconds,
            "seed": self.seed,
            "k": self.k,
            "alpha": self.alpha,
            "length": self.length,
        }
        if self.timeout_ms is not None:
            record["timeout_ms"] = self.timeout_ms
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "TraceRecord":
        """Parse one JSONL line's object, validating types strictly."""
        if not isinstance(record, dict):
            raise ValueError(f"trace record must be an object, got {record!r}")
        try:
            offset = float(record["offset_seconds"])
            seed = int(record["seed"])
            k = int(record["k"])
            alpha = float(record["alpha"])
            length = int(record["length"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed trace record {record!r}: {exc}") from exc
        if offset < 0:
            raise ValueError(f"offset_seconds must be >= 0, got {offset}")
        timeout_ms = record.get("timeout_ms")
        if timeout_ms is not None:
            timeout_ms = float(timeout_ms)
            if timeout_ms <= 0:
                raise ValueError(f"timeout_ms must be > 0, got {timeout_ms}")
        return cls(
            offset_seconds=offset,
            seed=seed,
            k=k,
            alpha=alpha,
            length=length,
            timeout_ms=timeout_ms,
        )


class WorkloadRecorder:
    """Thread-safe accumulator of accepted queries with arrival offsets.

    The recorder never blocks the serving path beyond one lock acquisition
    and never raises into it; it is attached to a server
    (``AsyncQueryServer(..., recorder=...)`` /
    ``HttpQueryServer(..., recorder=...)``) and saved at shutdown.

    Parameters
    ----------
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._records: List[TraceRecord] = []
        self._started_at: Optional[float] = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def records(self) -> Tuple[TraceRecord, ...]:
        """A snapshot of the recorded trace so far."""
        with self._lock:
            return tuple(self._records)

    def record_query(
        self, query: PPRQuery, timeout_ms: Optional[float] = None
    ) -> TraceRecord:
        """Record one accepted query at the current clock reading."""
        now = self._clock()
        with self._lock:
            if self._started_at is None:
                self._started_at = now
            record = TraceRecord(
                offset_seconds=now - self._started_at,
                seed=int(query.seed),
                k=int(query.k),
                alpha=float(query.alpha),
                length=int(query.length),
                timeout_ms=None if timeout_ms is None else float(timeout_ms),
            )
            self._records.append(record)
            return record

    def save(self, path) -> int:
        """Write the trace as JSONL; returns the number of records written."""
        return save_trace(self.records, path)

    def clear(self) -> None:
        """Drop every record and reset the offset origin."""
        with self._lock:
            self._records.clear()
            self._started_at = None


def save_trace(records: Sequence[TraceRecord], path) -> int:
    """Write ``records`` to ``path`` as one JSON object per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.as_dict(), sort_keys=True) + "\n")
    return len(records)


def load_trace(path) -> List[TraceRecord]:
    """Read a JSONL trace back; blank lines are ignored, bad lines raise."""
    records: List[TraceRecord] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            records.append(TraceRecord.from_dict(payload))
    return records


async def replay_trace(
    batcher: MicroBatcher,
    records: Sequence[TraceRecord],
    speed: float = 1.0,
    timeout_ms: Union[None, float, str] = "recorded",
) -> List[object]:
    """Replay a trace into a running batcher at its recorded timing.

    Parameters
    ----------
    batcher:
        A started :class:`MicroBatcher` (the replay is in-process: it
        exercises batching/admission/engine exactly like live traffic, minus
        the socket).
    speed:
        Time-scale factor: ``2.0`` replays twice as fast, ``0.5`` half
        speed.  Offsets divide by it.
    timeout_ms:
        ``"recorded"`` (default) re-applies each record's own deadline;
        a float applies one deadline to every query; ``None`` disables
        deadlines.

    Returns
    -------
    list
        Per-record outcomes in trace order: a
        :class:`~repro.ppr.base.PPRResult` for completed queries, or the
        :class:`~repro.serving.frontend.admission.QueryRejectedError`
        subclass the frontend raised (shed/deadline).  Any other exception
        propagates — a replay must not paper over engine failures.
    """
    if speed <= 0:
        raise ValueError(f"speed must be > 0, got {speed}")
    loop = asyncio.get_running_loop()
    start = loop.time()

    async def fire(record: TraceRecord) -> PPRResult:
        delay = start + record.offset_seconds / speed - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        if timeout_ms == "recorded":
            deadline = record.timeout_ms
        else:
            deadline = timeout_ms
        return await batcher.submit(record.to_query(), timeout_ms=deadline)

    tasks = [asyncio.ensure_future(fire(record)) for record in records]
    outcomes = await asyncio.gather(*tasks, return_exceptions=True)
    for outcome in outcomes:
        if isinstance(outcome, Exception) and not isinstance(
            outcome, QueryRejectedError
        ):
            raise outcome
    return list(outcomes)


def replay_trace_sync(
    engine,
    records: Sequence[TraceRecord],
    policy=None,
    admission=None,
    speed: float = 1.0,
    timeout_ms: Union[None, float, str] = "recorded",
) -> List[object]:
    """Convenience wrapper: build a batcher, replay, tear it down.

    For benchmarks and tests that hold an engine but no event loop.  The
    engine is left open (the caller owns it).
    """

    async def run() -> List[object]:
        async with MicroBatcher(engine, policy, admission) as batcher:
            return await replay_trace(
                batcher, records, speed=speed, timeout_ms=timeout_ms
            )

    return asyncio.run(run())
