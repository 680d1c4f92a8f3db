"""Micro-batching scheduler: individual async submissions → engine batches.

The engine layer (:class:`~repro.serving.engine.QueryEngine`) is optimised
for batches — backend fan-out, warm sub-graph caches, shard routing — but an
online front door receives queries one at a time.  :class:`MicroBatcher`
bridges the two: callers ``await submit(query)`` individually, and a
**work-conserving** scheduler coroutine coalesces them: whenever the engine
is free it runs everything already queued, up to ``max_batch_size``
(:class:`BatchPolicy`).  A batch closes when it is full or the queue is
empty, never on a timer, so a lone query is dispatched at once and batches
grow exactly when the engine is the bottleneck.

Three serving behaviours live here and not in the engine:

* **Deduplication** — identical in-flight queries (same frozen
  :class:`~repro.ppr.base.PPRQuery`, i.e. the same ``(seed, k, alpha,
  length)`` against the engine's fixed solver config) are computed once per
  batch and the single result fans out to every waiter.
* **Deadlines** — ``submit(query, timeout_ms=...)`` bounds the end-to-end
  wait; queries whose deadline passes while queued (or while their batch
  computed) fail with :class:`DeadlineExceededError` instead of returning a
  stale answer.
* **Admission control** — every submission passes the
  :class:`~repro.serving.frontend.admission.AdmissionController` first, so
  overload sheds loudly (:class:`QueryShedError`) instead of queueing
  unboundedly.

One kind of submission never reaches the scheduler: an untraced query whose
finished answer is already on its result-cache entry.  :meth:`MicroBatcher.submit`
asks ``engine.try_cached`` first, on the event loop, and a hit returns from
there — no queue slot (it is admitted and completed in one step, so never
pending and never shed), no batch, no executor hop; ``fast_path_hits`` counts
them.  The call is one key build and one locked dict lookup, so the loop stays
responsive, and it needs no place in the engine's update barrier: before an
update publishes the new graph it drops, strips or re-keys every cached
answer, keeping one only when the update provably cannot change it, and
batches attach answers only inside the barrier — so the fast path can only
ever return what a batch finishing at that moment would
(:meth:`~repro.serving.engine.QueryEngine.try_cached` spells it out).

Scores are bit-identical to ``engine.solve_batch`` on a serial backend:
batching composition never changes per-query computations (they are
independent), and deduplicated waiters share the one result object their
query produced.  Batches execute one at a time, in arrival order, on an
executor thread so the event loop stays responsive.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.ppr.base import PPRQuery, PPRResult
from repro.serving.engine import EngineStats, QueryEngine
from repro.serving.frontend.admission import (
    AdmissionController,
    AdmissionStats,
    DeadlineExceededError,
)
from repro.serving.tracing import Span, TraceContext

__all__ = ["BatchPolicy", "BatcherStats", "MicroBatcher"]


@dataclass(frozen=True)
class BatchPolicy:
    """How submissions coalesce into engine batches.

    Attributes
    ----------
    max_batch_size:
        Most queued queries taken into one batch (1 disables coalescing:
        every query runs alone); a batch closes early when the queue empties.
    max_wait_ms:
        **Deprecated and ignored**: it held an idle engine this long hoping
        to fill a batch, and the scheduler no longer waits.  Still validated
        and round-tripped (``label``, ``as_dict``, ``--max-wait-ms``,
        ``/config``, ``/reload``) for existing callers and run labels.
    dedup:
        Whether identical in-flight queries share one computation.
    """

    max_batch_size: int = 8
    max_wait_ms: float = 2.0
    dedup: bool = True

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ValueError(
                f"max_batch_size must be > 0, got {self.max_batch_size}"
            )
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")

    @property
    def label(self) -> str:
        """Compact form for tables and run labels (e.g. ``b8w2.0``)."""
        dedup = "" if self.dedup else "-nodedup"
        return f"b{self.max_batch_size}w{self.max_wait_ms:g}{dedup}"

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON reports."""
        return {
            "max_batch_size": self.max_batch_size,
            "max_wait_ms": self.max_wait_ms,
            "dedup": self.dedup,
        }


@dataclass(frozen=True)
class BatcherStats:
    """Scheduler counters plus the nested admission and engine stats.

    Attributes
    ----------
    policy:
        The active batching policy.
    batches:
        Engine batches executed.
    batched_queries:
        Logical queries delivered through those batches (before dedup).
    unique_executed:
        Queries actually handed to the engine (after dedup).
    dedup_hits:
        Waiters served by another waiter's computation.
    fast_path_hits:
        Submissions answered on the event loop by ``engine.try_cached``:
        never queued, never batched, so counted in none of the above.
    admission:
        The admission controller's counters (shed rate, e2e latency
        percentiles).
    engine:
        The wrapped engine's counters (compute latency percentiles, cache).
    """

    policy: BatchPolicy
    batches: int
    batched_queries: int
    unique_executed: int
    dedup_hits: int
    fast_path_hits: int
    admission: AdmissionStats
    engine: EngineStats

    @property
    def mean_batch_size(self) -> float:
        """Mean logical queries per executed batch (0.0 before any batch)."""
        return self.batched_queries / self.batches if self.batches else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON reports."""
        return {
            "policy": self.policy.as_dict(),
            "batches": self.batches,
            "batched_queries": self.batched_queries,
            "unique_executed": self.unique_executed,
            "dedup_hits": self.dedup_hits,
            "fast_path_hits": self.fast_path_hits,
            "mean_batch_size": self.mean_batch_size,
            "admission": self.admission.as_dict(),
            "engine": self.engine.as_dict(),
        }


class _Waiter:
    """One awaited submission: its query, future, deadline and arrival time."""

    __slots__ = (
        "query", "future", "deadline", "enqueued_at", "trace", "queue_span", "settled"
    )

    def __init__(
        self,
        query: PPRQuery,
        future: "asyncio.Future[PPRResult]",
        deadline: Optional[float],
        enqueued_at: float,
        trace: Optional[TraceContext] = None,
    ) -> None:
        self.query = query
        self.future = future
        self.deadline = deadline
        self.enqueued_at = enqueued_at
        self.trace = trace
        self.queue_span: Optional[Span] = None
        self.settled = False

    def end_queue_span(self, **attributes: object) -> None:
        """Close the ``admission.queue`` span of a traced waiter."""
        if self.trace is not None and self.queue_span is not None:
            self.trace.end_span(self.queue_span, **attributes)

    def expired(self, now: float, stage: str) -> Optional[DeadlineExceededError]:
        """The error to fail with if the deadline passed before ``now``."""
        if self.deadline is None or now <= self.deadline:
            return None
        return DeadlineExceededError(
            f"deadline passed {now - self.deadline:.3f}s before {stage}"
        )


class MicroBatcher:
    """Coalesce individually submitted queries into engine batches.

    Parameters
    ----------
    engine:
        The batch-serving engine answering the coalesced batches.  The
        batcher owns scheduling only; close the engine separately (it may be
        shared with offline callers).
    policy:
        Batching policy; defaults to :class:`BatchPolicy`'s defaults.
    admission:
        Admission controller bounding in-flight queries; a private
        default-capacity controller is created when not given.

    Notes
    -----
    The batcher lives on one asyncio event loop: :meth:`start` captures the
    running loop, and :meth:`submit` must be awaited on it.  Use it as an
    async context manager::

        async with MicroBatcher(engine, BatchPolicy(8)) as batcher:
            result = await batcher.submit(PPRQuery(seed=3, k=50))
    """

    def __init__(
        self,
        engine: QueryEngine,
        policy: Optional[BatchPolicy] = None,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        self._engine = engine
        self._policy = policy if policy is not None else BatchPolicy()
        self._admission = (
            admission if admission is not None else AdmissionController()
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._items: Deque[_Waiter] = deque()
        self._arrival: Optional[asyncio.Event] = None
        self._scheduler: Optional["asyncio.Task[None]"] = None
        self._closing = False
        self._batches = 0
        self._batched_queries = 0
        self._unique_executed = 0
        self._dedup_hits = 0
        self._fast_path_hits = 0

    # ------------------------------------------------------------------
    @property
    def engine(self) -> QueryEngine:
        """The wrapped engine."""
        return self._engine

    @property
    def policy(self) -> BatchPolicy:
        """The active batching policy."""
        return self._policy

    def set_policy(self, policy: BatchPolicy) -> None:
        """Swap the batching policy in place (the hot-reload path).

        The batch currently executing finishes under the policy it was
        formed with; every later batch uses the new one.  No queued or
        in-flight query is dropped — this only changes how future
        submissions coalesce.
        """
        if not isinstance(policy, BatchPolicy):
            raise TypeError(f"policy must be a BatchPolicy, got {policy!r}")
        self._policy = policy

    @property
    def admission(self) -> AdmissionController:
        """The admission controller consulted on every submission."""
        return self._admission

    @property
    def running(self) -> bool:
        """Whether submissions are accepted (not stopped, scheduler not dead)."""
        return self._scheduler is not None and not self._closing

    @property
    def queue_depth(self) -> int:
        """Waiters queued but not yet batched (bounded by admission)."""
        return len(self._items)

    # ------------------------------------------------------------------
    async def start(self) -> "MicroBatcher":
        """Start the scheduler on the running event loop."""
        if self._scheduler is not None:
            raise RuntimeError("batcher is already started")
        self._loop = asyncio.get_running_loop()
        self._arrival = asyncio.Event()
        self._closing = False
        self._scheduler = self._loop.create_task(self._run_scheduler())
        return self

    async def stop(self) -> None:
        """Drain queued submissions, then stop the scheduler (idempotent).

        Re-raises the exception a dead scheduler ended with.
        """
        if self._scheduler is None:
            return
        assert self._arrival is not None
        self._closing = True
        self._arrival.set()
        try:
            await self._scheduler
        finally:
            self._scheduler = None
            self._loop = None
            self._arrival = None

    async def __aenter__(self) -> "MicroBatcher":
        return await self.start()

    async def __aexit__(self, exc_type, exc, traceback) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    async def submit(
        self,
        query: PPRQuery,
        timeout_ms: Optional[float] = None,
        trace: Optional[TraceContext] = None,
    ) -> PPRResult:
        """Submit one query; resolves when its batch completes.

        ``trace`` (an optional sampled
        :class:`~repro.serving.tracing.TraceContext`) records the queue wait
        (``admission.queue``), batch membership and dedup fan-out
        (``batcher.batch``), and is threaded into the engine so the query's
        full span tree hangs together.  The caller finishes the context.

        Raises
        ------
        QueryShedError
            The admission queue is full (explicit backpressure).
        DeadlineExceededError
            ``timeout_ms`` elapsed before the result could be delivered.
        RuntimeError
            The batcher is not running.
        """
        if not self.running:
            raise RuntimeError("batcher is not running; use 'async with' or start()")
        loop = asyncio.get_running_loop()
        if loop is not self._loop:
            raise RuntimeError("submit() must run on the batcher's event loop")
        assert self._arrival is not None
        if trace is None:
            # Fast path: a finished answer needs no compute, so it leaves
            # from here — no queue slot, no batch, no executor hop.
            start = loop.time()
            result = self._engine.try_cached(query)
            if result is not None:
                self._fast_path_hits += 1
                self._admission.complete(loop.time() - start, queued=False)
                return result
        self._admission.admit()
        now = loop.time()
        deadline = now + timeout_ms / 1000.0 if timeout_ms is not None else None
        waiter = _Waiter(query, loop.create_future(), deadline, now, trace)
        if trace is not None:
            # Spans the admission-to-execution wait: queued behind the batch
            # the engine is executing.
            waiter.queue_span = trace.begin_span(
                "admission.queue",
                queue_depth=len(self._items),
                pending=self._admission.pending,
            )
        self._items.append(waiter)
        self._arrival.set()
        return await waiter.future

    # ------------------------------------------------------------------
    async def _run_scheduler(self) -> None:
        assert self._arrival is not None
        arrival, items = self._arrival, self._items
        batch: List[_Waiter] = []
        try:
            while True:
                while not items:
                    if self._closing:  # stop() was called and the queue is drained
                        return
                    arrival.clear()
                    await arrival.wait()
                # Work-conserving: the engine is free, so run what is queued
                # now.  Holding it to fill the batch would only add latency —
                # the engine solves members one after another, and arrivals
                # during this batch coalesce into the next.  The policy is read
                # once per batch, so set_policy() applies from the next one on.
                policy = self._policy
                batch = [
                    items.popleft()
                    for _ in range(min(len(items), policy.max_batch_size))
                ]
                await self._execute_batch(batch, policy)
        except Exception as exc:
            # Never a hang: a dead scheduler answers nobody, so everyone still
            # waiting — the batch in flight and the queue — fails with its
            # error, and ``running`` turns False so submit() refuses new work.
            self._closing = True
            for waiter in batch + list(items):
                self._settle(waiter, exc)
            items.clear()
            raise

    def _settle(self, waiter: _Waiter, outcome: object, now: float = 0.0) -> None:
        """Deliver one waiter's outcome and release its admission slot, once.

        ``outcome`` is the result or the exception to fail with; a waiter
        whose caller already gave up counts as ``cancelled`` whatever it is.
        """
        if waiter.settled:
            return
        waiter.settled = True
        if waiter.future.done():
            self._admission.cancel()
        elif isinstance(outcome, DeadlineExceededError):
            waiter.future.set_exception(outcome)
            self._admission.expire()
        elif isinstance(outcome, BaseException):
            waiter.future.set_exception(outcome)
            self._admission.fail()
        else:
            waiter.future.set_result(outcome)
            self._admission.complete(now - waiter.enqueued_at)

    async def _execute_batch(self, batch: List[_Waiter], policy: BatchPolicy) -> None:
        assert self._loop is not None
        loop = self._loop
        now = loop.time()
        # Weed out cancelled and already-expired waiters, then group the rest
        # (dedup: one group per distinct query, in first-arrival order).
        groups: List[List[_Waiter]] = []
        index: Dict[PPRQuery, List[_Waiter]] = {}
        for waiter in batch:
            gave_up = waiter.future.done()  # caller cancelled while queued
            error = waiter.expired(now, "the query was scheduled")
            if gave_up or error is not None:
                waiter.end_queue_span(status="cancelled" if gave_up else "deadline")
                self._settle(waiter, error)
                continue
            group = index.get(waiter.query) if policy.dedup else None
            if group is None:
                group = index[waiter.query] = []
                groups.append(group)
            group.append(waiter)
        if not groups:
            return

        unique = [waiters[0].query for waiters in groups]
        # Tracing: per dedup group, the first traced waiter's context rides
        # into the engine (one computation → one engine span tree); every
        # traced waiter gets a batcher.batch span, dedup passengers annotated
        # as such.  The common all-untraced case skips all of this.
        contexts: Optional[List[Optional[TraceContext]]] = None
        batch_spans: List[Tuple[_Waiter, Span]] = []
        if any(w.trace is not None for waiters in groups for w in waiters):
            contexts = []
            for waiters in groups:
                representative = next(
                    (w.trace for w in waiters if w.trace is not None), None
                )
                contexts.append(representative)
                for waiter in waiters:
                    if waiter.trace is None:
                        continue
                    waiter.end_queue_span()
                    span = waiter.trace.begin_span(
                        "batcher.batch",
                        push=waiter.trace is representative,
                        batch_size=len(batch),
                        unique=len(groups),
                        group_size=len(waiters),
                        dedup_hit=waiter.trace is not representative,
                    )
                    batch_spans.append((waiter, span))
        try:
            # Off the loop: solve_batch is CPU-bound (its own backend decides
            # the intra-batch concurrency).
            args = (unique,) if contexts is None else (unique, contexts)
            results = await loop.run_in_executor(
                None, self._engine.solve_batch, *args
            )
            if len(results) != len(unique):  # zip() below would drop the tail
                raise ValueError(
                    f"engine returned {len(results)} results for "
                    f"{len(unique)} queries"
                )
        except Exception as exc:
            for waiter, span in batch_spans:
                waiter.trace.end_span(span, status="error")
            for waiters in groups:
                for waiter in waiters:
                    self._settle(waiter, exc)
            return

        end = loop.time()
        for waiter, span in batch_spans:
            waiter.trace.end_span(span)
        self._batches += 1
        self._unique_executed += len(unique)
        for waiters, result in zip(groups, results):
            self._batched_queries += len(waiters)
            self._dedup_hits += len(waiters) - 1
            for waiter in waiters:
                error = waiter.expired(end, "the batch completed")
                self._settle(waiter, result if error is None else error, end)

    # ------------------------------------------------------------------
    def stats(self) -> BatcherStats:
        """Scheduler, admission and engine counters in one snapshot."""
        return BatcherStats(
            policy=self._policy,
            batches=self._batches,
            batched_queries=self._batched_queries,
            unique_executed=self._unique_executed,
            dedup_hits=self._dedup_hits,
            fast_path_hits=self._fast_path_hits,
            admission=self._admission.stats(),
            engine=self._engine.stats(),
        )

    def __repr__(self) -> str:
        return (
            f"MicroBatcher(policy={self._policy!r}, "
            f"running={self.running}, queue_depth={self.queue_depth})"
        )
