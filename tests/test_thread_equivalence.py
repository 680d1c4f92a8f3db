"""Differential correctness and lifecycle of thread-pool serving.

The thread-pool backend promises that spreading a batch's queries over a
persistent pool is a pure performance choice: every score must equal —
bitwise, no tolerance — what the serial in-process path produces, with the
extraction cache off, roomy or evicting mid-batch, for any pool size.
The grid covers those axes on a fixed graph; hypothesis drives random query
mixes through one long-lived engine (the pool persists across examples,
exactly like a long-lived server).  The lifecycle tests pin what an engine
does with its pool around close, pending queries and failing batches.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.generators import barabasi_albert_graph
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.serving import (
    QueryEngine,
    ScoreTableCache,
    SubgraphCache,
    ThreadPoolBackend,
)


def exact_scores(results):
    """Per-query score dicts for bitwise comparison (no tolerance)."""
    return [dict(result.scores.items()) for result in results]


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(180, 2, rng=7, name="ba180-thread")


@pytest.fixture(scope="module")
def queries(graph):
    seeds = [0, 7, 63, 7, 120, 0]
    # Mixed lengths exercise one-stage, degenerate and multi-stage plans.
    return [
        PPRQuery(seed=seed, k=30, alpha=0.85, length=length)
        for seed, length in zip(seeds, (6, 6, 3, 1, 0, 6))
    ]


@pytest.fixture(scope="module")
def reference(graph, queries):
    solver = MeLoPPRSolver(graph)
    return exact_scores([solver.solve(query) for query in queries])


#: Extraction cache budgets: none, roomy, and one the batch keeps evicting from.
CACHE_BYTES = {"cold": None, "cached": 32 << 20, "tight": 4096}


class TestPoolGrid:
    @pytest.mark.parametrize("num_workers", [1, 2, 3])
    @pytest.mark.parametrize("budget", list(CACHE_BYTES))
    def test_bit_identical_scores(self, graph, queries, reference, num_workers, budget):
        cached = CACHE_BYTES[budget] is not None
        cache = SubgraphCache(CACHE_BYTES[budget]) if cached else None
        backend = ThreadPoolBackend(num_workers)
        with QueryEngine(MeLoPPRSolver(graph), backend=backend, cache=cache) as engine:
            results = engine.solve_batch(queries)
            stats = engine.stats()
        assert exact_scores(results) == reference
        assert stats.backend == "thread-pool"
        assert stats.queries_served == len(queries)
        assert (stats.cache is not None) is cached
        if budget == "tight":
            assert stats.cache.evictions + stats.cache.rejected > 0
        for result in results:
            serving = result.metadata["serving"]
            assert serving["backend"] == "thread-pool"
            assert serving["cache_enabled"] is cached

    def test_repeated_batches_reuse_the_pool(self, graph, queries, reference):
        backend = ThreadPoolBackend(2)
        with QueryEngine(MeLoPPRSolver(graph), backend=backend) as engine:
            first = engine.solve_batch(queries)
            executor = backend._executor
            assert executor is not None
            second = engine.solve_batch(queries)
            assert backend._executor is executor  # persistent pool, no restart
        assert backend._executor is None  # the engine closed its backend
        assert exact_scores(first) == reference
        assert exact_scores(second) == reference


class TestPropertyBased:
    """Random query mixes through one long-lived engine per class."""

    @pytest.fixture(scope="class")
    def served(self, graph):
        engine = QueryEngine(
            MeLoPPRSolver(graph), backend=ThreadPoolBackend(2), cache=SubgraphCache()
        )
        yield engine
        engine.close()

    @pytest.fixture(scope="class")
    def replayed(self, graph):
        engine = QueryEngine(
            MeLoPPRSolver(graph),
            backend=ThreadPoolBackend(2),
            cache=SubgraphCache(),
            result_cache=ScoreTableCache(),
        )
        yield engine
        engine.close()

    @pytest.fixture(scope="class")
    def serial_solver(self, graph):
        return MeLoPPRSolver(graph)

    @staticmethod
    def draw_queries(data, graph):
        seeds = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=graph.num_nodes - 1),
                min_size=1,
                max_size=5,
            )
        )
        length = data.draw(st.sampled_from([0, 1, 2, 4, 6]))
        alpha = data.draw(st.sampled_from([0.5, 0.85, 0.99]))
        k = data.draw(st.integers(min_value=1, max_value=40))
        return [PPRQuery(seed=seed, k=k, alpha=alpha, length=length) for seed in seeds]

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_random_query_mixes_bit_identical(self, served, serial_solver, graph, data):
        queries = self.draw_queries(data, graph)
        expected = exact_scores([serial_solver.solve(query) for query in queries])
        assert exact_scores(served.solve_batch(queries)) == expected

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_random_mixes_with_result_replay_bit_identical(
        self, replayed, serial_solver, graph, data
    ):
        # The stage-one result cache persists across examples, so later
        # examples replay tables earlier ones installed from other threads.
        queries = self.draw_queries(data, graph)
        expected = exact_scores([serial_solver.solve(query) for query in queries])
        assert exact_scores(replayed.solve_batch(queries)) == expected


class TestEngineLifecycle:
    def test_restart_after_close(self, graph, queries, reference):
        backend = ThreadPoolBackend(2)
        engine = QueryEngine(MeLoPPRSolver(graph), backend=backend)
        first = engine.solve_batch(queries)
        backend.close()
        assert backend._executor is None
        # The pool is lazy: the next batch starts a fresh one.
        second = engine.solve_batch(queries)
        assert backend._executor is not None
        engine.close()
        assert backend._executor is None
        assert exact_scores(first) == reference
        assert exact_scores(second) == reference

    def test_stage_errors_propagate_by_type(self, graph, queries):
        # A seed outside the graph fails inside a pool thread; the original
        # exception type reaches the caller, as on the serial path.
        bad = PPRQuery(seed=graph.num_nodes + 7, k=5)
        with QueryEngine(MeLoPPRSolver(graph), backend=ThreadPoolBackend(2)) as engine:
            with pytest.raises(ValueError, match="out of range"):
                engine.solve_batch([queries[0], bad])

    def test_failing_batch_in_context_manager_releases_the_pool(self, graph, queries):
        backend = ThreadPoolBackend(2)
        bad = PPRQuery(seed=graph.num_nodes, k=5)
        with pytest.raises(ValueError):
            with QueryEngine(MeLoPPRSolver(graph), backend=backend) as engine:
                engine.solve_batch(queries[:2])
                engine.solve_batch([bad])
        assert backend._executor is None

    def test_engine_recovers_after_a_failing_batch(self, graph, queries, reference):
        bad = PPRQuery(seed=graph.num_nodes + 1, k=5)
        with QueryEngine(
            MeLoPPRSolver(graph), backend=ThreadPoolBackend(2), cache=SubgraphCache()
        ) as engine:
            with pytest.raises(ValueError):
                engine.solve_batch([bad] + list(queries))
            results = engine.solve_batch(queries)
            assert exact_scores(results) == reference
            # Only the batch that succeeded was counted as served.
            assert engine.stats().queries_served == len(queries)

    def test_cache_stats_with_a_pool(self, graph, queries):
        with QueryEngine(
            MeLoPPRSolver(graph), backend=ThreadPoolBackend(2), cache=SubgraphCache()
        ) as engine:
            engine.solve_batch(queries)
            first = engine.stats().cache
            engine.solve_batch(queries)
            second = engine.stats().cache
            assert first is not None and first.misses > 0
            # The second pass re-extracts nothing it extracted in the first.
            assert second.misses == first.misses
            assert second.hits > first.hits

    def test_cache_disabled_reports_none(self, graph, queries):
        with QueryEngine(MeLoPPRSolver(graph), backend=ThreadPoolBackend(1)) as engine:
            results = engine.solve_batch(queries[:2])
            assert engine.stats().cache is None
            assert results[0].metadata["serving"]["cache_enabled"] is False
