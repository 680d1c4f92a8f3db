"""The batched query-serving engine.

:class:`QueryEngine` is the front door for answering PPR queries at volume.
It wraps any :class:`~repro.ppr.base.PPRSolver` and adds the three things a
serving layer needs that a solver should not know about:

* **Batching** — ``solve_batch`` answers a batch of queries in one call,
  amortising backend and cache warm-up across queries.
* **Extraction reuse** — an optional :class:`~repro.serving.cache.SubgraphCache`
  is wired into the planner's stage extraction hook, so hot ego sub-graphs are
  extracted once per batch instead of once per task, and a stage's misses are
  extracted together.
* **Pluggable execution** — an :class:`~repro.serving.backends.ExecutionBackend`
  decides how the per-query jobs run (serially, on a thread pool, ...).

Solvers that expose a ``plan(query)`` method (today: MeLoPPR) are executed
through the planner/executor path, which is where the cache hook applies;
any other solver falls back to its own ``solve`` and still benefits from
batching, per-query timing and throughput accounting.

Scores are bit-identical to the sequential ``solver.solve`` loop for every
backend, with the cache enabled or disabled: queries are independent, task
order within a query is preserved by the planner, and cached extractions are
the same immutable objects a fresh extraction would produce.  The one field
that legitimately differs is measurement, not computation: wall-clock timing
always varies; the engine runs a stage in waves
(:func:`~repro.meloppr.planner.execute_stage`), so with ``track_memory`` on
``peak_memory_bytes`` is the peak of holding a wave of sub-graphs, not the
solver's one; and under a concurrent backend it reports the modelled working
set because the process-global ``tracemalloc`` cannot attribute peaks to
overlapping queries.  (Fallback solvers that measure
memory themselves stay correct too — their tracked sections serialise on
:class:`~repro.memory.tracker.MemoryTracker`'s shared lock — but pass
``track_memory=False`` at solver construction to actually run in parallel.)
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.graph.bfs import extract_wave
from repro.graph.delta import DeltaGraph, EdgeOp, normalize_edge_ops, update_reach_bound
from repro.meloppr.planner import (
    MeLoPPRPlan,
    StageExtractFn,
    StageRunner,
    execute_plan,
    execute_stage,
)
from repro.ppr.base import PPRQuery, PPRResult, PPRSolver
from repro.serving.backends import ExecutionBackend, SerialBackend
from repro.serving.cache import CacheStats, SubgraphCache
from repro.serving.result_cache import (
    UPDATE_COUNT_KEYS,
    ScoreTableCache,
    stage_one_key,
)
from repro.serving.telemetry import (
    LatencyHistogram,
    LatencySnapshot,
    StatsRecord,
    derived,
    metric,
)
from repro.serving.tracing import TraceContext, Tracer, TracingStats
from repro.utils.timing import TimingBreakdown

__all__ = ["EngineStats", "QueryEngine"]


def _merge_cache_stats(
    first: Optional[CacheStats], second: Optional[CacheStats]
) -> Optional[CacheStats]:
    """Counter-wise sum of two cache snapshots (``None`` acts as empty)."""
    if first is None:
        return second
    if second is None:
        return first
    return first + second


#: How many ``(length, k)`` config halves of the stage-one key an engine
#: keeps: ``k`` is the caller's to choose, so the memo is bounded.
_KEY_MEMO_SIZE = 64


def _replay(answer: PPRResult) -> PPRResult:
    """A caller's own copy of a finished answer: the same (frozen) ``scores``
    object and metadata values under a fresh ``metadata`` dict and an empty
    ``timing`` — nothing ran, and ``metadata["serving"]`` is per delivery."""
    return PPRResult(
        answer.query, answer.scores, TimingBreakdown(),
        answer.peak_memory_bytes, dict(answer.metadata),
    )


@dataclass
class EngineStats(StatsRecord):
    """Aggregate serving statistics of a :class:`QueryEngine`.

    The engine's running counters are one of these (its accumulator);
    :meth:`QueryEngine.stats` snapshots it with the latency percentiles and
    the cache and tracer counters filled in.  Every counter is a lifetime
    total: a reporting interval is the difference of two snapshots.

    Attributes
    ----------
    backend:
        Name of the execution backend.
    queries_served, batches:
        Totals since engine construction.
    wall_seconds:
        Wall-clock time spent inside ``solve_batch`` and serving
        ``try_cached`` answers (the denominator of :attr:`throughput_qps`).
    query_seconds:
        Sum of per-query latencies; under a parallel backend this exceeds
        ``wall_seconds``, and their ratio is the effective parallelism.
    latency:
        Bucketed per-query latency percentiles (p50/p95/p99); ``None`` only
        on the engine's internal accumulator, never in :meth:`QueryEngine.stats`
        snapshots.
    cache:
        Aggregate cache counters: the engine cache's counters summed with the
        stage-one result-cache counters — every hit the serving stack scored,
        so dashboards can read ``stats.cache.hit_rate`` either way.  ``None``
        only when caching is off entirely.
    result_cache:
        The stage-one result cache's share of those counters alone (``None``
        when cross-query result caching is off).  ``cache`` already includes
        these, so reconcile as ``cache == extraction cache + result_cache``.
    tracing:
        Snapshot of the tracer's counters — offered/sampled/finished traces,
        recorded spans, slow traces (``None`` when no tracer is attached).
    """

    backend: str
    queries_served: int = metric(
        "repro_engine_queries_served_total", "counter", "Queries the engine computed."
    )
    batches: int = metric("repro_engine_batches_total", "counter", "Batches the engine computed.")
    wall_seconds: float = metric(
        "repro_engine_busy_seconds_total",
        "counter",
        "Wall-clock seconds spent inside solve_batch.",
        default=0.0,
    )
    query_seconds: float = 0.0
    latency: Optional[LatencySnapshot] = metric(
        "repro_engine_latency_seconds",
        "summary",
        "Per-query compute latency inside the engine.",
        default=None,
    )
    cache: Optional[CacheStats] = None
    result_cache: Optional[CacheStats] = None
    tracing: Optional[TracingStats] = None

    @derived
    def throughput_qps(self) -> float:
        """Queries served per wall-clock second (0.0 before any batch)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.queries_served / self.wall_seconds

    @derived
    def mean_latency_seconds(self) -> float:
        """Mean per-query latency (0.0 before any query)."""
        if self.queries_served == 0:
            return 0.0
        return self.query_seconds / self.queries_served

    @derived
    def min_latency_seconds(self) -> float:
        """Smallest per-query latency (0.0 before any query)."""
        return 0.0 if self.latency is None else self.latency.min_seconds

    @derived
    def max_latency_seconds(self) -> float:
        """Largest per-query latency (0.0 before any query)."""
        return 0.0 if self.latency is None else self.latency.max_seconds


class QueryEngine:
    """Batched PPR query serving over a pluggable execution backend.

    Parameters
    ----------
    solver:
        The solver answering individual queries.  A solver exposing
        ``plan(query, track_memory=None)`` (MeLoPPR) runs through the
        planner/executor path and can share extractions via the cache; other
        solvers run their own ``solve``.
    backend:
        Execution strategy; defaults to :class:`SerialBackend`.
    cache:
        Optional shared ego-sub-graph cache.  Pass a configured
        :class:`SubgraphCache` to reuse extractions across queries/batches.
    result_cache:
        Optional :class:`~repro.serving.result_cache.ScoreTableCache`
        reusing folded stage-one score tables across queries: a repeated hot
        seed skips straight to its stage-two tasks with bit-identical
        scores.  Compatible with every backend.
    tracer:
        Optional :class:`~repro.serving.tracing.Tracer`.  Sampled queries
        (driven through ``solve_batch(queries, contexts=...)``) record a
        span tree — per-stage spans and cache hit/miss annotations.
        ``None`` (the default) keeps the hot path free of any tracing work
        beyond ``is None`` checks.

    Example
    -------
    >>> from repro.graph.generators import barabasi_albert_graph
    >>> from repro.meloppr import MeLoPPRSolver
    >>> from repro.ppr import PPRQuery
    >>> from repro.serving import QueryEngine, SubgraphCache
    >>> graph = barabasi_albert_graph(300, 2, rng=0)
    >>> engine = QueryEngine(MeLoPPRSolver(graph), cache=SubgraphCache())
    >>> results = engine.solve_batch([PPRQuery(seed=5, k=10), PPRQuery(seed=5, k=10)])
    >>> engine.stats().queries_served
    2
    """

    def __init__(
        self,
        solver: PPRSolver,
        backend: Optional[ExecutionBackend] = None,
        cache: Optional[SubgraphCache] = None,
        result_cache: Optional[ScoreTableCache] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._solver = solver
        self._backend = backend if backend is not None else SerialBackend()
        self._cache = cache
        self._result_cache = result_cache
        self._tracer = tracer
        self._key_memo: Dict[Tuple[int, int], Tuple[Hashable, ...]] = {}
        self._stats = EngineStats(backend=self._backend.name)
        self._latency = LatencyHistogram()
        # Serving counters are mutated by whichever thread calls solve_batch
        # (the stress suite hammers one engine from many); accumulation and
        # snapshotting serialise on this lock so a snapshot can never under-
        # or over-count a batch.
        self._stats_lock = threading.Lock()
        # Streaming edge updates swap the topology under live traffic.  The
        # swap must be atomic with respect to whole batches — a batch that
        # starts on graph G finishes on graph G — so updates take a writer
        # barrier: solve_batch registers as a reader (many at once), and
        # apply_update waits until no batch is in flight, blocks new ones,
        # swaps, then releases.  Writer-preference (readers queue behind a
        # waiting writer) keeps a busy engine from starving updates.
        self._update_lock = threading.Condition(threading.Lock())
        self._active_batches = 0
        self._updating = False
        if result_cache is not None:
            result_cache.bind(solver.graph)

    # ------------------------------------------------------------------
    @property
    def solver(self) -> PPRSolver:
        """The wrapped solver."""
        return self._solver

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend."""
        return self._backend

    @property
    def cache(self) -> Optional[SubgraphCache]:
        """The shared sub-graph cache (``None`` when disabled)."""
        return self._cache

    @property
    def result_cache(self) -> Optional[ScoreTableCache]:
        """The stage-one result cache (``None`` when disabled)."""
        return self._result_cache

    @property
    def tracer(self) -> Optional[Tracer]:
        """The attached tracer (``None`` when tracing is off)."""
        return self._tracer

    # ------------------------------------------------------------------
    def solve_batch(
        self,
        queries: Sequence[PPRQuery],
        contexts: Optional[Sequence[Optional[TraceContext]]] = None,
    ) -> List[PPRResult]:
        """Answer a batch of queries through the backend, in input order.

        ``contexts`` (optional, same length as ``queries``) carries one
        :class:`~repro.serving.tracing.TraceContext` — or ``None`` — per
        query; sampled queries record engine/stage/cache spans into
        theirs.  Omitting it (the common case) keeps the dispatch path
        byte-for-byte the pre-tracing one.
        """
        queries = list(queries)
        if not queries:
            return []
        # Register as a reader against the update barrier: the whole batch
        # runs on one topology, and a waiting writer blocks new batches.
        with self._update_lock:
            while self._updating:
                self._update_lock.wait()
            self._active_batches += 1
        try:
            start = time.perf_counter()
            if contexts is None:
                results = self._backend.map(self._solve_one, queries)
            else:
                contexts = list(contexts)
                if len(contexts) != len(queries):
                    raise ValueError(
                        f"contexts length {len(contexts)} != queries length "
                        f"{len(queries)}"
                    )
                results = self._backend.map(
                    self._solve_traced, list(zip(queries, contexts))
                )
            wall = time.perf_counter() - start
        finally:
            with self._update_lock:
                self._active_batches -= 1
                if self._active_batches == 0:
                    self._update_lock.notify_all()

        with self._stats_lock:
            self._stats.batches += 1
            self._stats.wall_seconds += wall
            self._record_served_locked(results)
        return results

    def _record_served_locked(self, results: Sequence[PPRResult]) -> None:
        """Count delivered queries and their latencies (stats lock held)."""
        stats = self._stats
        stats.queries_served += len(results)
        for result in results:
            latency = float(result.metadata["serving"]["latency_seconds"])
            stats.query_seconds += latency
            self._latency.record(latency)

    def _stage_one_key(self, query: PPRQuery) -> Tuple[Hashable, ...]:
        """:func:`stage_one_key` of ``query``, its config half built once per
        ``(length, k)``: the solver's config never changes.  Threads racing
        on the memo can only build a half twice."""
        memo = self._key_memo
        half = memo.get((query.length, query.k))
        if half is None:
            if len(memo) >= _KEY_MEMO_SIZE:
                memo.clear()
            half = memo[query.length, query.k] = stage_one_key(
                query, self._solver.config
            )
        # stage_one_key is (seed, split, alpha, capacity, selector, tolerance).
        return (int(query.seed), half[1], float(query.alpha), *half[3:])

    def try_cached(self, query: PPRQuery) -> Optional[PPRResult]:
        """Answer ``query`` from the result cache, or return ``None`` at once.

        Non-blocking and compute-free — one key build and one locked lookup —
        so an event loop may call it inline.  It serves only a finished
        answer attached to the query's own cache entry, which counts as a
        result-cache hit and as a served query (``queries_served``, latency
        histogram) but not as a batch; anything else returns ``None`` and
        touches no counter, and the caller goes through :meth:`solve_batch`.

        It takes no part in the update barrier and needs none: the lookup
        names the published graph, and the cache serves it only while bound
        to that graph, checked under the lock of the lookup itself.  Until
        :meth:`apply_update` carries the result cache (under the writer
        barrier, before the new graph is published) this returns the answer
        of the still-published graph, which is what a batch finishing at that
        moment returns too; between the carry and the publication it returns
        ``None``.  From then on it can see only survivors, and a surviving
        answer is one the update provably could not change — the answer on
        both graphs; anything else waits for a batch to compute on the new
        graph, and batches attach inside the barrier.
        """
        start = time.perf_counter()
        result_cache = self._result_cache
        if result_cache is None or not hasattr(self._solver, "plan"):
            return None
        key = self._stage_one_key(query)
        answer = result_cache.peek_answer(key, query, self._solver.graph)
        if answer is None:
            return None
        result = self._finish_result(
            _replay(answer), time.perf_counter() - start, "answer"
        )
        with self._stats_lock:
            # Served serially on the caller's thread: its latency is wall time.
            self._stats.wall_seconds += result.metadata["serving"]["latency_seconds"]
            self._record_served_locked([result])
        return result

    def apply_update(self, ops: Sequence[EdgeOp]) -> Dict[str, object]:
        """Apply a batch of edge ops to the live graph, surgically.

        The batch (``("insert"|"delete", u, v)`` tuples or the equivalent
        dicts — see :func:`repro.graph.delta.normalize_edge_ops`) is
        validated, overlaid on the current topology through a
        :class:`~repro.graph.delta.DeltaGraph`, and compacted into a fresh
        canonical CSR — bit-identical to rebuilding from scratch, so every
        fingerprint-keyed artefact behaves exactly as if the graph had been
        reloaded.  Instead of clearing the caches, the engine then
        invalidates *surgically*: the update's reach bound
        (:func:`repro.graph.delta.update_reach_bound`) says exactly which
        cached ego sub-graphs, stage-one score tables and finished answers
        the update changes, and only those are dropped or re-keyed, found
        through each cache's centre index.  Everything else survives, answers included, and the caches
        are rebound to the new graph.

        Runs under the engine's writer barrier: in-flight batches finish on
        the old graph, new batches wait for the swap (writer-preferred, so a
        busy engine cannot starve updates).  Validation failures raise
        ``ValueError`` before anything is swapped — the engine state is
        untouched.  Returns an outcome report for the admin surface.
        """
        canonical = normalize_edge_ops(ops, self._solver.graph.num_nodes)
        with self._update_lock:
            while self._updating:
                self._update_lock.wait()
            self._updating = True
            while self._active_batches:
                self._update_lock.wait()
        try:
            return self._apply_update_barriered(canonical)
        finally:
            with self._update_lock:
                self._updating = False
                self._update_lock.notify_all()

    def _apply_update_barriered(
        self, canonical: List[EdgeOp]
    ) -> Dict[str, object]:
        """The swap itself; caller holds the writer barrier."""
        old_graph = self._solver.graph
        delta = DeltaGraph(old_graph)
        # Existence validation happens here, against the live topology, and
        # is all-or-nothing per DeltaGraph.apply — a bad op raises before
        # any cache or binding is touched.
        delta.apply(canonical)
        new_graph = delta.compact()
        touched = delta.touched_nodes()
        # The bounds only need resolving out to the deepest cached artefact;
        # beyond that every entry trivially survives.  A cache another engine
        # has bound to its graph is neither counted nor touched.
        caches = [cache for cache in (self._cache, self._result_cache) if cache is not None]
        radius = max((cache.radius(old_graph) for cache in caches), default=0)
        reach = update_reach_bound(new_graph, canonical, radius)
        invalidated = {
            "subgraph_entries_dropped": 0,
            **dict.fromkeys(UPDATE_COUNT_KEYS, 0),
        }
        if self._cache is not None:
            dropped = self._cache.carry(old_graph, new_graph, reach)
            invalidated["subgraph_entries_dropped"] += dropped or 0
        if self._result_cache is not None:
            counts = self._result_cache.carry(old_graph, new_graph, reach)
            invalidated.update(zip(UPDATE_COUNT_KEYS, counts or ()))
        self._solver.rebind_graph(new_graph)
        return {
            "ops": len(canonical),
            "touched_nodes": int(touched.size),
            "radius": int(radius),
            "old_fingerprint": old_graph.fingerprint(),
            "new_fingerprint": new_graph.fingerprint(),
            "num_nodes": int(new_graph.num_nodes),
            "num_edges": int(new_graph.num_edges),
            "invalidated": invalidated,
        }

    def _solve_traced(self, job) -> PPRResult:
        """Backend-map adapter for ``(query, context)`` pairs."""
        query, ctx = job
        if ctx is None:
            return self._solve_one(query)
        with ctx.span(
            "engine.query",
            seed=int(query.seed),
            k=int(query.k),
            backend=self._backend.name,
        ):
            return self._solve_one(query, ctx)

    def _solve_one(
        self, query: PPRQuery, ctx: Optional[TraceContext] = None
    ) -> PPRResult:
        """Answer one query (runs on a backend worker)."""
        start = time.perf_counter()
        result_cache_outcome: Optional[str] = None
        plan_factory = getattr(self._solver, "plan", None)
        if plan_factory is not None:
            # Cross-query reuse: an attached answer is replayed whole, a
            # stage-one state resumes the plan past its first stage, a miss
            # installs the folded state after the first stage — and whatever
            # gets computed is attached for the next repeat of this query.
            # A result cache bound to another graph is bypassed (found None).
            result_cache = self._result_cache
            key = state = None
            if result_cache is not None:
                rc_span = (
                    None
                    if ctx is None
                    else ctx.begin_span("engine.result_cache")
                )
                key = self._stage_one_key(query)
                found = result_cache.lookup(key, query, self._solver.graph)
                if found is None:
                    result_cache = answer = None
                else:
                    state, answer = found
                    result_cache_outcome = (
                        "answer"
                        if answer is not None
                        else "miss" if state is None else "hit"
                    )
                if rc_span is not None:
                    ctx.end_span(rc_span, outcome=result_cache_outcome)
                if answer is not None:
                    return self._finish_result(
                        _replay(answer), time.perf_counter() - start, "answer"
                    )
            # tracemalloc is process-global: under a concurrent backend two
            # plans measuring at once would corrupt each other's peaks, so
            # force tracking off there (peak_memory_bytes then reports the
            # deterministic modelled working set instead).
            track_memory = False if self._backend.concurrent else None
            plan = plan_factory(query, track_memory=track_memory)
            install: Optional[Callable[[MeLoPPRPlan], None]] = None
            if state is not None:
                plan = MeLoPPRPlan.from_stage_one_table(
                    plan.graph,
                    plan.config,
                    query,
                    state,
                    track_memory=track_memory,
                )
            elif result_cache is not None:
                install = lambda done_plan: result_cache.put(
                    key, done_plan.stage_one_state(), done_plan.graph
                )
            result = self._drive_plan(plan, install=install, ctx=ctx)
            if result_cache is not None:
                # Shared from here on: freeze the scores, and keep a copy
                # whose metadata dict the first caller cannot reach.
                result.scores.freeze()
                result_cache.attach_answer(key, _replay(result), plan.graph)
        else:
            result = self._solver.solve(query)
        latency = time.perf_counter() - start
        return self._finish_result(result, latency, result_cache_outcome)

    def _stage_runner(self, ctx: Optional[TraceContext]) -> StageRunner:
        """How this engine executes one stage of a plan.

        Every path runs the wave executor over one stage hook — the cache's
        or a fresh extraction.  A traced query makes the same call inside one
        ``extract`` span per wave.
        """
        if self._cache is not None:
            extract_stage: StageExtractFn = self._cache.extract_wave
        else:
            extract_stage = extract_wave
        if ctx is not None:
            extract_stage = partial(self._extract_in_span, extract_stage, ctx)
        return partial(execute_stage, extract_stage=extract_stage)

    def _extract_in_span(
        self, extract_stage: StageExtractFn, ctx: TraceContext, graph, centers, depth
    ):
        """``extract_stage`` inside one ``extract`` span for the wave."""
        with ctx.span("extract", depth=int(depth), balls=len(centers)) as span:
            extracted = extract_stage(graph, centers, depth)
            span.attributes["cache_hits"] = int(extracted.hits.sum())
        return extracted

    def _drive_plan(
        self,
        plan: MeLoPPRPlan,
        install: Optional[Callable[[MeLoPPRPlan], None]] = None,
        ctx: Optional[TraceContext] = None,
    ) -> PPRResult:
        """Drive a plan to completion through the backend.

        The plan (folding, residual selection) always runs in the parent, in
        exactly the serial order, and every backend goes through the one
        drive loop, :func:`~repro.meloppr.planner.execute_plan`, so scores
        stay bit-identical to ``MeLoPPRSolver.solve``; what differs is how a
        stage's tasks are executed (:meth:`_stage_runner`).  ``install`` runs
        once, right after the first stage folds — the result cache's snapshot
        point.
        """
        after_stage: Optional[Callable[[MeLoPPRPlan], None]] = None
        if install is not None:
            pending = install

            def after_stage(done_plan: MeLoPPRPlan) -> None:
                nonlocal pending
                if pending is not None:
                    callback, pending = pending, None
                    callback(done_plan)

        return execute_plan(
            plan,
            run_stage=self._stage_runner(ctx),
            after_stage=after_stage,
            span=None if ctx is None else ctx.span,
        )

    def _finish_result(
        self,
        result: PPRResult,
        latency: float,
        result_cache_outcome: Optional[str] = None,
    ) -> PPRResult:
        """Stamp the serving metadata onto one query's result."""
        result.metadata["serving"] = {
            "backend": self._backend.name,
            "latency_seconds": latency,
            "cache_enabled": self._cache is not None,
            # "answer" (finished answer replayed), "hit" (stage one replayed
            # from cache), "miss" (computed and installed) or None (result
            # caching off / non-planner solver).
            "result_cache": result_cache_outcome,
        }
        return result

    # ------------------------------------------------------------------
    def stats(self) -> EngineStats:
        """Aggregate stats snapshot (includes current cache counters).

        The ``cache`` field carries the engine cache's counters with the
        stage-one result cache's counters folded in (also reported alone under
        ``result_cache``).
        """
        result_cache_stats = (
            None if self._result_cache is None else self._result_cache.stats
        )
        cache_stats = _merge_cache_stats(
            None if self._cache is None else self._cache.stats, result_cache_stats
        )
        tracing = None if self._tracer is None else self._tracer.stats()
        with self._stats_lock:
            return replace(
                self._stats,
                latency=self._latency.snapshot(),
                cache=cache_stats,
                result_cache=result_cache_stats,
                tracing=tracing,
            )

    def close(self) -> None:
        """Shut down the backend (the caches, if any, are left warm).  A
        later batch still works: every backend restarts lazily."""
        self._backend.close()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.close()
