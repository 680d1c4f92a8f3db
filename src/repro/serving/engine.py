"""The batched query-serving engine.

:class:`QueryEngine` is the front door for answering PPR queries at volume.
It wraps any :class:`~repro.ppr.base.PPRSolver` and adds the three things a
serving layer needs that a solver should not know about:

* **Batching** — ``submit`` enqueues queries and ``drain`` answers the whole
  pending batch (``solve_batch`` does both in one call), amortising backend
  and cache warm-up across queries.
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
always varies; an in-process backend runs a stage in waves
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
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.diffusion.kernels import DiffusionKernel, resolve_kernel_name
from repro.graph.delta import (
    DeltaGraph,
    EdgeOp,
    normalize_edge_ops,
    update_distance_bound,
    update_reach_bound,
)
from repro.meloppr.planner import (
    MeLoPPRPlan,
    StageRunner,
    default_extract,
    each_ball,
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
from repro.serving.sharding import RouterStats, ShardRouter
from repro.serving.telemetry import LatencyHistogram, LatencySnapshot
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


def _replay(answer: PPRResult) -> PPRResult:
    """A caller's own copy of a finished answer: the same (frozen) ``scores``
    object and metadata values under a fresh ``metadata`` dict and an empty
    ``timing`` — nothing ran, and ``metadata["serving"]`` is per delivery."""
    return replace(answer, timing=TimingBreakdown(), metadata=dict(answer.metadata))


@dataclass
class EngineStats:
    """Aggregate serving statistics of a :class:`QueryEngine`.

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
    min_latency_seconds, max_latency_seconds:
        Extremes of the per-query latencies.
    latency:
        Bucketed per-query latency percentiles (p50/p95/p99); ``None`` only
        on the engine's internal accumulator, never in :meth:`QueryEngine.stats`
        snapshots.
    cache:
        Aggregate cache counters, uniform across serving modes: the engine
        cache's counters (or the router's per-shard + fallback aggregate)
        summed with the stage-one result-cache counters and any stage-task
        backend's worker-cache counters — every hit the serving stack scored,
        so dashboards can read ``stats.cache.hit_rate`` either way.  ``None``
        only when caching is off entirely.
    result_cache:
        The stage-one result cache's share of those counters alone (engine
        level or the router's per-shard aggregate; ``None`` when cross-query
        result caching is off).  ``cache`` already includes these, so
        reconcile as ``cache == extraction caches + result_cache``.
    router:
        Snapshot of the shard-routing counters (``None`` when unsharded).
    tracing:
        Snapshot of the tracer's counters — offered/sampled/finished traces,
        recorded spans, slow traces (``None`` when no tracer is attached).
    """

    backend: str
    queries_served: int = 0
    batches: int = 0
    wall_seconds: float = 0.0
    query_seconds: float = 0.0
    min_latency_seconds: float = field(default=float("inf"))
    max_latency_seconds: float = 0.0
    latency: Optional[LatencySnapshot] = None
    cache: Optional[CacheStats] = None
    result_cache: Optional[CacheStats] = None
    router: Optional[RouterStats] = None
    tracing: Optional[TracingStats] = None

    @property
    def throughput_qps(self) -> float:
        """Queries served per wall-clock second (0.0 before any batch)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.queries_served / self.wall_seconds

    @property
    def mean_latency_seconds(self) -> float:
        """Mean per-query latency (0.0 before any query)."""
        if self.queries_served == 0:
            return 0.0
        return self.query_seconds / self.queries_served

    def reset(self) -> None:
        """Zero the accumulated counters (for per-interval reporting).

        A long-running server calls :meth:`QueryEngine.reset_stats` at each
        reporting interval instead of recreating the engine; that resets this
        accumulator and the engine's latency histogram together.
        """
        self.queries_served = 0
        self.batches = 0
        self.wall_seconds = 0.0
        self.query_seconds = 0.0
        self.min_latency_seconds = float("inf")
        self.max_latency_seconds = 0.0
        self.latency = None
        self.cache = None
        self.result_cache = None
        self.router = None
        self.tracing = None

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON reports."""
        return {
            "backend": self.backend,
            "queries_served": self.queries_served,
            "batches": self.batches,
            "wall_seconds": self.wall_seconds,
            "query_seconds": self.query_seconds,
            "throughput_qps": self.throughput_qps,
            "mean_latency_seconds": self.mean_latency_seconds,
            "min_latency_seconds": (
                0.0 if self.queries_served == 0 else self.min_latency_seconds
            ),
            "max_latency_seconds": self.max_latency_seconds,
            "latency": None if self.latency is None else self.latency.as_dict(),
            "cache": None if self.cache is None else self.cache.as_dict(),
            "result_cache": (
                None if self.result_cache is None else self.result_cache.as_dict()
            ),
            "router": None if self.router is None else self.router.as_dict(),
            "tracing": None if self.tracing is None else self.tracing.as_dict(),
        }


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
    router:
        Optional :class:`~repro.serving.sharding.ShardRouter` serving
        extractions from a partitioned host graph (one cache per shard).
        Mutually exclusive with ``cache`` — the router owns its caches.
    result_cache:
        Optional :class:`~repro.serving.result_cache.ScoreTableCache`
        reusing folded stage-one score tables across queries: a repeated hot
        seed skips straight to its stage-two tasks with bit-identical
        scores.  Mutually exclusive with ``router`` — a sharded engine keeps
        one result cache per shard, configured via
        ``ShardRouter(result_cache_bytes=...)``.  Compatible with every
        backend, including stage-task backends (the cache lives parent-side,
        so workers only ever see the stage-two tasks of a cached query).
    kernel:
        Diffusion-kernel selection for every stage task this engine runs
        (see :mod:`repro.diffusion.kernels`): a registered name, ``"auto"``
        or ``None`` for the environment default.  Resolved to a concrete
        name once, at construction — in-process backends pass it to the
        plan executor, stage-task backends ship it to their workers.  All
        kernels are bit-identical, so this is purely a speed knob and
        deliberately **not** part of any cache key.
    tracer:
        Optional :class:`~repro.serving.tracing.Tracer`.  Sampled queries
        (driven through ``solve_batch(queries, contexts=...)``) record a
        span tree — per-stage spans, cache hit/miss and shard-routing
        annotations, worker-side spans re-parented across the process-pool
        IPC boundary.  ``None`` (the default) keeps the hot path free of
        any tracing work beyond ``is None`` checks.

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
        router: Optional[ShardRouter] = None,
        result_cache: Optional[ScoreTableCache] = None,
        kernel: Union[str, DiffusionKernel, None] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if cache is not None and router is not None:
            raise ValueError(
                "pass either cache= or router=, not both: the router owns "
                "one cache per shard"
            )
        if result_cache is not None and router is not None:
            raise ValueError(
                "pass either result_cache= or router=, not both: a sharded "
                "engine keeps one result cache per shard "
                "(ShardRouter(result_cache_bytes=...))"
            )
        self._solver = solver
        self._backend = backend if backend is not None else SerialBackend()
        # Resolve eagerly: an unknown kernel name should fail at engine
        # construction, not on the first query of a serving batch.
        self._kernel = resolve_kernel_name(kernel)
        self._cache = cache
        self._router = router
        self._result_cache = result_cache
        self._tracer = tracer
        self._pending: List[PPRQuery] = []
        self._stats = EngineStats(backend=self._backend.name)
        self._latency = LatencyHistogram()
        # Serving counters are mutated by whichever thread calls solve_batch
        # (the stress suite hammers one engine from many); accumulation,
        # snapshotting and resets all serialise on this lock so per-interval
        # metrics can never under- or over-count a batch.
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
        # The result-cache key includes the host graph's structural
        # fingerprint; force the (memoised) hash now so a multi-GB graph
        # charges it to engine construction, not to the first query's
        # latency.
        if result_cache is not None:
            solver.graph.fingerprint()
        elif router is not None and router.result_caching_enabled:
            router.partition.host.fingerprint()
        # A stage-task backend (the process pool) must know what graph its
        # workers serve before the first batch: bind it to the partition when
        # sharded (workers pin to shards) or to the host graph otherwise.
        if getattr(self._backend, "executes_stage_tasks", False):
            if cache is not None:
                # The extractions happen inside the workers, so an
                # engine-level cache would never see a single lookup —
                # reject the dead combination instead of silently ignoring
                # a configured budget (mirrors the cache=/router= conflict).
                raise ValueError(
                    f"backend {self._backend.name!r} executes stage tasks in "
                    "worker processes, which cache extractions themselves — "
                    "configure the worker cache via the backend (e.g. "
                    "ProcessPoolBackend(cache_bytes=...)) instead of cache="
                )
            if router is not None:
                self._backend.bind_partition(router.partition)
            else:
                self._backend.bind_graph(solver.graph)

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
    def kernel(self) -> str:
        """Resolved diffusion-kernel name used for every stage task."""
        return self._kernel

    @property
    def cache(self) -> Optional[SubgraphCache]:
        """The shared sub-graph cache (``None`` when disabled)."""
        return self._cache

    @property
    def router(self) -> Optional[ShardRouter]:
        """The shard router (``None`` when serving the unsharded graph)."""
        return self._router

    @property
    def result_cache(self) -> Optional[ScoreTableCache]:
        """The engine-level stage-one result cache (``None`` when disabled;
        a sharded engine's per-shard result caches live on the router)."""
        return self._result_cache

    @property
    def tracer(self) -> Optional[Tracer]:
        """The attached tracer (``None`` when tracing is off)."""
        return self._tracer

    @property
    def num_pending(self) -> int:
        """Queries submitted but not yet drained."""
        return len(self._pending)

    # ------------------------------------------------------------------
    def submit(self, query: PPRQuery) -> int:
        """Enqueue one query; returns its index in the next :meth:`drain`."""
        self._pending.append(query)
        return len(self._pending) - 1

    def drain(self) -> List[PPRResult]:
        """Answer every pending query (in submission order) and clear the queue."""
        pending, self._pending = self._pending, []
        if not pending:
            return []
        return self.solve_batch(pending)

    def solve_batch(
        self,
        queries: Sequence[PPRQuery],
        contexts: Optional[Sequence[Optional[TraceContext]]] = None,
    ) -> List[PPRResult]:
        """Answer a batch of queries through the backend, in input order.

        ``contexts`` (optional, same length as ``queries``) carries one
        :class:`~repro.serving.tracing.TraceContext` — or ``None`` — per
        query; sampled queries record engine/stage/cache/worker spans into
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
            stats.min_latency_seconds = min(stats.min_latency_seconds, latency)
            stats.max_latency_seconds = max(stats.max_latency_seconds, latency)
            self._latency.record(latency)

    def _result_cache_for(self, seed: int) -> Optional[ScoreTableCache]:
        """The result cache for ``seed``: its shard's when sharded, else ours."""
        if self._router is not None:
            return self._router.result_cache_for(seed)
        return self._result_cache

    def try_cached(self, query: PPRQuery) -> Optional[PPRResult]:
        """Answer ``query`` from the result cache, or return ``None`` at once.

        Non-blocking and compute-free — one key build and one locked lookup —
        so an event loop may call it inline.  It serves only a finished
        answer attached to the query's own cache entry, which counts as a
        result-cache hit and as a served query (``queries_served``, latency
        histogram) but not as a batch; anything else returns ``None`` and
        touches no counter, and the caller goes through :meth:`solve_batch`.

        It takes no part in the update barrier and needs none.  Until
        :meth:`apply_update` migrates the result cache (under the writer
        barrier, before the new graph is published) this returns the answer
        of the still-published graph, which is what a batch finishing at that
        moment returns too.  From the migration until the publication the key
        built here still carries the old fingerprint and finds nothing — every
        old entry was dropped or re-keyed.  After it, a re-keyed entry serves
        an answer only if the update provably could not change it (it is the
        answer on both graphs); anything else waits for a batch to compute on
        the new graph, and batches attach inside the barrier.
        """
        start = time.perf_counter()
        if not hasattr(self._solver, "plan"):
            return None
        result_cache = self._result_cache_for(query.seed)
        if result_cache is None:
            return None
        key = stage_one_key(query, self._solver.config, self._solver.graph)
        answer = result_cache.peek_answer(key, query)
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
        the update changes — and its node bound which shards — and only
        those are dropped or rebuilt.  Everything else survives, answers
        included, with result-cache keys rewritten to the new fingerprint.

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
        old_fingerprint = old_graph.fingerprint()
        delta = DeltaGraph(old_graph)
        # Existence validation happens here, against the live topology, and
        # is all-or-nothing per DeltaGraph.apply — a bad op raises before
        # any cache or binding is touched.
        delta.apply(canonical)
        new_graph = delta.compact()
        new_fingerprint = new_graph.fingerprint()
        touched = delta.touched_nodes()
        # The bounds only need resolving out to the deepest cached artefact
        # (and the halo test, when sharded); beyond that every entry
        # trivially survives.
        radius = 0
        if self._cache is not None:
            radius = max(radius, self._cache.max_depth())
        if self._result_cache is not None:
            radius = max(radius, self._result_cache.max_stage_length())
        if self._router is not None:
            radius = max(radius, self._router.update_radius())
        reach = update_reach_bound(new_graph, canonical, radius)
        invalidated = {
            "shards_rebuilt": 0,
            "subgraph_entries_dropped": 0,
            "result_entries_dropped": 0,
            "result_entries_rekeyed": 0,
            "result_answers_kept": 0,
            "result_answers_stripped": 0,
        }
        if self._cache is not None:
            invalidated["subgraph_entries_dropped"] += (
                self._cache.invalidate_covering(reach)
            )
            self._cache.rebind(new_graph)
        if self._result_cache is not None:
            counts = self._result_cache.apply_update(
                old_fingerprint, new_fingerprint, reach
            )
            invalidated.update(zip(UPDATE_COUNT_KEYS, counts))
        if self._router is not None:
            # A shard is a many-centred ball: it is patched on the node bound.
            distances = update_distance_bound(old_graph, new_graph, touched, radius)
            router_outcome = self._router.apply_update(
                new_graph, old_fingerprint, new_fingerprint, distances, reach
            )
            for key, value in router_outcome.items():
                invalidated[key] += value
        self._solver.rebind_graph(new_graph)
        if getattr(self._backend, "executes_stage_tasks", False):
            # Stage-task workers hold the old shared buffers; swap their
            # binding so the next dispatch respawns against the new graph.
            if self._router is not None:
                self._backend.rebind_partition(self._router.partition)
            else:
                self._backend.rebind_graph(new_graph)
        return {
            "ops": len(canonical),
            "touched_nodes": int(touched.size),
            "radius": int(radius),
            "old_fingerprint": old_fingerprint,
            "new_fingerprint": new_fingerprint,
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
            # Cross-query reuse, all parent-side (a stage-task backend's
            # workers only ever see the stage-two tasks left to run): an
            # attached answer is replayed whole, a stage-one state resumes
            # the plan past its first stage, a miss installs the folded state
            # after the first stage — and whatever gets computed is attached
            # for the next repeat of this query.
            result_cache = self._result_cache_for(query.seed)
            key = state = None
            if result_cache is not None:
                rc_span = (
                    None
                    if ctx is None
                    else ctx.begin_span("engine.result_cache")
                )
                key = stage_one_key(query, self._solver.config, self._solver.graph)
                state, answer = result_cache.lookup(key, query)
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
                    key, done_plan.stage_one_state()
                )
            result = self._drive_plan(plan, install=install, ctx=ctx)
            if result_cache is not None:
                # Shared from here on: freeze the scores, and keep a copy
                # whose metadata dict the first caller cannot reach.
                result.scores.freeze()
                result_cache.attach_answer(key, _replay(result))
        else:
            result = self._solver.solve(query)
        latency = time.perf_counter() - start
        return self._finish_result(result, latency, result_cache_outcome)

    def _traced_extract(self, inner, ctx: TraceContext):
        """Wrap an extraction hook so each call records an ``extract`` span."""
        router = self._router

        def traced(graph, center, depth):
            with ctx.span("extract", center=int(center), depth=int(depth)) as span:
                if router is not None:
                    shard_id, fallback = router.route_info(center, depth)
                    span.attributes["shard_id"] = shard_id
                    span.attributes["halo_fallback"] = fallback
                subgraph, bfs, cache_hit = inner(graph, center, depth)
                span.attributes["cache_hit"] = bool(cache_hit)
            return subgraph, bfs, cache_hit

        return traced

    def _stage_runner(self, ctx: Optional[TraceContext]) -> StageRunner:
        """How this engine executes one stage of a plan.

        In process, the wave executor over the cache's stage hook.  A per-ball
        hook — the router's, or the traced wrapper with its one ``extract``
        span per task — is still called once per task, in task order; only
        the diffusion is shared then.  A stage-task backend runs each task's
        extraction + diffusion in a worker process, the per-ball hook being
        the parent-side fallback for tasks the workers cannot serve (sharded
        extractions beyond the halo).
        """
        if self._router is not None:
            extract = self._router.extract
        elif self._cache is not None:
            extract = self._cache.get_or_extract
        else:
            extract = None
        if getattr(self._backend, "executes_stage_tasks", False):
            return lambda plan, tasks: self._backend.run_stage_tasks(
                tasks, fallback=extract, timing=plan.timing, kernel=self._kernel, trace=ctx
            )
        if ctx is not None:
            extract_stage = each_ball(
                self._traced_extract(extract or default_extract, ctx)
            )
        elif self._cache is not None:
            extract_stage = self._cache.get_or_extract_many
        elif extract is not None:
            extract_stage = each_ball(extract)
        else:
            return partial(execute_stage, kernel=self._kernel)
        return partial(execute_stage, extract_stage=extract_stage, kernel=self._kernel)

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
            "remote_tasks": getattr(self._backend, "executes_stage_tasks", False),
            "latency_seconds": latency,
            "cache_enabled": (
                self._cache is not None
                or (self._router is not None and self._router.caching_enabled)
                or getattr(self._backend, "cache_bytes", None) is not None
            ),
            # "answer" (finished answer replayed), "hit" (stage one replayed
            # from cache), "miss" (computed and installed) or None (result
            # caching off / non-planner solver).
            "result_cache": result_cache_outcome,
            "sharded": self._router is not None,
        }
        return result

    # ------------------------------------------------------------------
    def stats(self) -> EngineStats:
        """Aggregate stats snapshot (includes current cache counters).

        The ``cache`` field is uniform across serving modes: it carries the
        engine-level cache's counters when one is configured, and the
        router's aggregated per-shard + fallback counters when sharded —
        plus, folded in, any stage-task backend's worker-cache counters and
        the stage-one result cache's counters (the latter also reported
        alone under ``result_cache``).
        """
        router_stats = None if self._router is None else self._router.stats()
        if self._cache is not None:
            cache_stats: Optional[CacheStats] = self._cache.stats
        elif router_stats is not None:
            cache_stats = router_stats.aggregate_cache()
        else:
            cache_stats = None
        # A stage-task backend caches extractions in its workers; fold those
        # counters in so ``stats.cache.hit_rate`` stays meaningful there too.
        backend_cache_stats = getattr(self._backend, "cache_stats", None)
        if backend_cache_stats is not None:
            cache_stats = _merge_cache_stats(cache_stats, backend_cache_stats())
        if self._result_cache is not None:
            result_cache_stats: Optional[CacheStats] = self._result_cache.stats
        elif router_stats is not None:
            result_cache_stats = router_stats.aggregate_result_cache()
        else:
            result_cache_stats = None
        cache_stats = _merge_cache_stats(cache_stats, result_cache_stats)
        with self._stats_lock:
            stats = self._stats
            return EngineStats(
                backend=stats.backend,
                queries_served=stats.queries_served,
                batches=stats.batches,
                wall_seconds=stats.wall_seconds,
                query_seconds=stats.query_seconds,
                min_latency_seconds=stats.min_latency_seconds,
                max_latency_seconds=stats.max_latency_seconds,
                latency=self._latency.snapshot(),
                cache=cache_stats,
                result_cache=result_cache_stats,
                router=router_stats,
                tracing=(
                    None if self._tracer is None else self._tracer.stats()
                ),
            )

    def reset_stats(self, reset_cache_stats: bool = False) -> None:
        """Zero the serving counters (for per-interval server metrics).

        Cache contents are never touched — only counters reset.  By default
        the cache/router counters keep accumulating (their hit rates describe
        the cache's whole life); pass ``reset_cache_stats=True`` to zero them
        too so every interval reports interval-local hit rates.  That resets
        **every** counter source ``stats()`` aggregates — the engine cache or
        the router's per-shard/fallback/result caches, the engine-level
        result cache, and a stage-task backend's worker caches — so an
        interval snapshot can never mix a freshly zeroed engine counter with
        a stale cache counter.  (The engine accumulator and the latency
        histogram reset under the stats lock; with traffic still in flight
        the caches quiesce at their own locks, so drain first for exact
        cross-source invariants, as the stress tests do.)
        """
        with self._stats_lock:
            self._stats.reset()
            self._latency.reset()
        # Tracing counters are serving counters, not cache counters: they
        # reset unconditionally, like the latency histogram (the trace ring
        # buffer itself is debug state and survives — see Tracer.clear()).
        if self._tracer is not None:
            self._tracer.reset_stats()
        if reset_cache_stats:
            if self._cache is not None:
                self._cache.reset_stats()
            if self._router is not None:
                self._router.reset_stats()
            if self._result_cache is not None:
                self._result_cache.reset_stats()
            backend_reset = getattr(self._backend, "reset_cache_stats", None)
            if backend_reset is not None:
                backend_reset()

    def close(self, discard_pending: bool = False) -> None:
        """Shut down the backend (the cache, if any, is left warm).

        Submitted-but-undrained queries are answers the caller still expects,
        so closing with a non-empty queue raises unless ``discard_pending``
        explicitly waives them — call :meth:`drain` first to get the results.
        The backend is released **even on that error path** (in a
        ``finally``): backends may hold OS resources (worker processes,
        shared-memory segments) that must never outlive a failed close.  A
        subsequent :meth:`drain` still works — every backend restarts lazily
        on its next dispatch.
        """
        try:
            if self._pending:
                if not discard_pending:
                    raise RuntimeError(
                        f"{len(self._pending)} submitted queries are still pending; "
                        "drain() before close(), or close(discard_pending=True) "
                        "to drop them"
                    )
                self._pending.clear()
        finally:
            self._backend.close()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        # When the body is already raising, don't mask its exception with the
        # pending-queries error — the queue is forfeit either way.
        if exc_type is not None:
            self.close(discard_pending=True)
            return
        pending = len(self._pending)
        if pending:
            # The engine reference dies with the with-block, so the backend
            # must be shut down (worker threads joined) before surfacing the
            # dropped-queries error.
            self.close(discard_pending=True)
            raise RuntimeError(
                f"{pending} submitted queries were still pending at context "
                "exit; drain() before leaving the with-block"
            )
        self.close()

    def __repr__(self) -> str:
        cache = "none" if self._cache is None else repr(self._cache)
        result_cache = (
            "none" if self._result_cache is None else repr(self._result_cache)
        )
        return (
            f"QueryEngine(solver={self._solver!r}, backend={self._backend!r}, "
            f"cache={cache}, result_cache={result_cache}, "
            f"router={self._router!r})"
        )
