"""Tests for the query engine: backend equivalence, ordering, stats."""

from __future__ import annotations

import pytest

from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.ppr.local_ppr import LocalPPRSolver
from repro.serving import (
    QueryEngine,
    SubgraphCache,
    ThreadPoolBackend,
)


@pytest.fixture()
def queries():
    """A repeated-seed batch (seeds recur so the cache has something to hit)."""
    seeds = [3, 11, 3, 27, 11, 3, 42, 27]
    return [PPRQuery(seed=seed, k=40, alpha=0.85, length=6) for seed in seeds]


@pytest.fixture()
def solver(small_ba_graph):
    return MeLoPPRSolver(small_ba_graph, MeLoPPRConfig.paper_default())


def assert_results_identical(actual, expected):
    """Same top-k nodes and scores within 1e-12, per query."""
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.query == want.query
        assert got.top_k_nodes() == want.top_k_nodes()
        scores = dict(got.scores.items())
        for node, score in want.scores.items():
            assert scores.get(node, 0.0) == pytest.approx(score, abs=1e-12)


class TestBackendEquivalence:
    """What the conformance matrix does not hold: a solver without a plan,
    run-to-run determinism and memory tracking under a thread pool."""

    def test_non_planning_solver_falls_back_to_solve(self, small_ba_graph, queries):
        solver = LocalPPRSolver(small_ba_graph, track_memory=False)
        expected = [solver.solve(query) for query in queries]
        with QueryEngine(solver, backend=ThreadPoolBackend(2)) as engine:
            results = engine.solve_batch(queries)
        assert_results_identical(results, expected)

    def test_threaded_is_deterministic(self, solver, queries):
        runs = []
        for _ in range(2):
            with QueryEngine(
                solver, backend=ThreadPoolBackend(4), cache=SubgraphCache()
            ) as engine:
                runs.append(engine.solve_batch(queries))
        for first, second in zip(*runs):
            assert first.top_k() == second.top_k()

    def test_concurrent_backend_disables_tracemalloc_tracking(self, solver, queries):
        # tracemalloc is process-global; under a concurrent backend the
        # engine must fall back to the deterministic modelled working set.
        assert solver.config.track_memory
        with QueryEngine(solver, backend=ThreadPoolBackend(4)) as engine:
            results = engine.solve_batch(queries)
        for result in results:
            assert result.peak_memory_bytes == result.metadata["modelled_bytes"]

    def test_fallback_solver_memory_tracking_is_safe_when_threaded(
        self, small_ba_graph, queries
    ):
        import tracemalloc

        # A non-planning solver that measures memory itself: its tracked
        # sections serialise on MemoryTracker's shared lock, so the peaks
        # stay meaningful and the global trace is left off afterwards.
        solver = LocalPPRSolver(small_ba_graph, track_memory=True)
        with QueryEngine(solver, backend=ThreadPoolBackend(4)) as engine:
            results = engine.solve_batch(queries)
        assert not tracemalloc.is_tracing()
        for result in results:
            assert result.peak_memory_bytes > 0

    def test_result_order_matches_query_order(self, solver, queries):
        with QueryEngine(solver, backend=ThreadPoolBackend(4)) as engine:
            results = engine.solve_batch(queries)
        assert [result.query.seed for result in results] == [
            query.seed for query in queries
        ]


class TestEmptyBatch:
    def test_solve_batch_empty(self, solver):
        assert QueryEngine(solver).solve_batch([]) == []


class TestClose:
    def test_context_manager_releases_the_backend(self, solver, queries):
        backend = ThreadPoolBackend(2)
        with QueryEngine(solver, backend=backend) as engine:
            engine.solve_batch([queries[0]])  # spin the pool up
        assert backend._executor is None

    def test_context_manager_releases_the_backend_on_error(self, solver, queries):
        backend = ThreadPoolBackend(2)
        with pytest.raises(KeyError, match="boom"):
            with QueryEngine(solver, backend=backend) as engine:
                engine.solve_batch([queries[0]])
                raise KeyError("boom")
        assert backend._executor is None

    def test_close_idempotent(self, solver):
        engine = QueryEngine(solver)
        engine.close()
        engine.close()


class TestStats:
    def test_engine_stats_populated(self, solver, queries):
        cache = SubgraphCache()
        with QueryEngine(solver, cache=cache) as engine:
            engine.solve_batch(queries)
            engine.solve_batch(queries)
            stats = engine.stats()
        assert stats.backend == "serial"
        assert stats.queries_served == 2 * len(queries)
        assert stats.batches == 2
        assert stats.wall_seconds > 0
        assert stats.throughput_qps > 0
        assert stats.mean_latency_seconds > 0
        assert stats.min_latency_seconds <= stats.max_latency_seconds
        assert stats.cache is not None and stats.cache.hits > 0
        payload = stats.as_dict()
        assert payload["queries_served"] == 2 * len(queries)
        assert payload["cache"]["hit_rate"] > 0

    def test_per_query_serving_metadata(self, solver, queries):
        with QueryEngine(solver, cache=SubgraphCache()) as engine:
            results = engine.solve_batch(queries)
        for result in results:
            serving = result.metadata["serving"]
            assert serving["backend"] == "serial"
            assert serving["latency_seconds"] >= 0
            assert serving["cache_enabled"] is True
        # Repeated seeds after the first occurrence hit the warm cache.
        assert any(result.metadata["cache_hits"] > 0 for result in results)

    def test_cache_hit_and_miss_counts_in_result_metadata(self, solver):
        query = PPRQuery(seed=3, k=20)
        with QueryEngine(solver, cache=SubgraphCache()) as engine:
            cold = engine.solve_batch([query])[0]
            warm = engine.solve_batch([query])[0]
        assert cold.metadata["cache_hits"] == 0
        assert cold.metadata["cache_misses"] == cold.metadata["num_tasks"]
        assert warm.metadata["cache_hits"] == warm.metadata["num_tasks"]
        assert warm.metadata["cache_misses"] == 0


def cache_counters(cache_stats):
    """The lifetime counters of a CacheStats (its live-size gauges left out)."""
    return (
        cache_stats.hits,
        cache_stats.misses,
        cache_stats.evictions,
        cache_stats.rejected,
        cache_stats.expired,
    )


class TestSnapshotCoversEveryCounterSource:
    """``stats()`` folds several counter sources into one snapshot — the
    engine accumulator, the sub-graph cache, the result cache and the
    tracer — and every one of them must reach it."""

    def test_snapshot_folds_the_subgraph_and_result_cache_counters(
        self, small_ba_graph, queries
    ):
        from repro.serving import ScoreTableCache

        cache, result_cache = SubgraphCache(), ScoreTableCache()
        with QueryEngine(
            MeLoPPRSolver(small_ba_graph), cache=cache, result_cache=result_cache
        ) as engine:
            engine.solve_batch(queries)
            stats = engine.stats()
        assert cache.stats.lookups and result_cache.stats.lookups
        assert stats.queries_served == len(queries)
        assert stats.result_cache == result_cache.stats
        assert stats.cache == cache.stats + result_cache.stats
        # The combined tier minus the result tier is the extraction tier.
        assert cache_counters(stats.cache - stats.result_cache) == cache_counters(
            cache.stats
        )

    def test_snapshot_carries_the_tracing_counters_and_the_ring(
        self, small_ba_graph, queries
    ):
        from repro.serving import Tracer

        tracer = Tracer(sample_rate=1.0)
        with QueryEngine(MeLoPPRSolver(small_ba_graph), tracer=tracer) as engine:
            contexts = [
                tracer.start_trace("request", seed=query.seed)
                for query in queries
            ]
            engine.solve_batch(queries, contexts)
            for ctx in contexts:
                ctx.finish(status="ok")
            stats = engine.stats()
        tracing = stats.tracing
        assert tracing is not None
        assert tracing.started == len(queries)
        assert tracing.sampled == len(queries)
        assert tracing.finished == len(queries)
        assert tracing.spans > 0
        assert tracing.slow_traces == 0
        assert tracing.dropped == 0
        assert tracing.sample_rate == 1.0
        assert len(tracer.traces()) == len(queries)

    def test_an_interval_is_the_difference_of_two_snapshots(
        self, small_ba_graph, queries
    ):
        from repro.serving import Tracer

        tracer = Tracer(sample_rate=1.0)
        cache = SubgraphCache()
        with QueryEngine(
            MeLoPPRSolver(small_ba_graph), cache=cache, tracer=tracer
        ) as engine:
            ctx = tracer.start_trace("request")
            engine.solve_batch(queries[:1], [ctx])
            ctx.finish()
            first = engine.stats()
            first_copy = (first.queries_served, first.tracing.finished,
                          cache_counters(first.cache))
            ctx = tracer.start_trace("request")
            engine.solve_batch(queries[:1], [ctx])
            ctx.finish()
            second = engine.stats()
        # A snapshot is a copy: later traffic does not move it.
        assert (first.queries_served, first.tracing.finished,
                cache_counters(first.cache)) == first_copy
        # The counters are lifetime totals, so the interval is the difference.
        assert second.queries_served - first.queries_served == 1
        assert second.tracing.started - first.tracing.started == 1
        assert second.tracing.finished - first.tracing.finished == 1
        interval = second.cache - first.cache
        assert interval.lookups > 0
        assert interval.hits == interval.lookups  # the repeat seed is warm
