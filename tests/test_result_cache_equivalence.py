"""Differential correctness: result caching is bit-identical everywhere.

The cross-query result cache promises that replaying a cached stage-one
table is a pure performance choice: every score an engine produces with the
cache enabled must equal — bitwise, no tolerance — what the uncached serial
path produces, for every backend (``serial``/``thread:N``/``async:N``/
``process:N``), with and without a :class:`~repro.serving.sharding.
ShardRouter`, on hot repeated-seed streams and on interleaved cold/hot
mixes.  This module checks that promise with an exhaustive grid, an async
frontend composition test (in-flight dedup × temporal reuse), and
hypothesis-driven property tests over random graphs and query mixes.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.generators import barabasi_albert_graph, erdos_renyi_graph
from repro.graph.partition import partition_graph
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.serving import (
    QueryEngine,
    ScoreTableCache,
    ShardRouter,
    SubgraphCache,
    make_backend,
)
from repro.serving.frontend.batcher import BatchPolicy, MicroBatcher

BACKENDS = ("serial", "thread:2", "async:2", "process:2")


def exact_scores(results):
    """Per-query score dicts for bitwise comparison (no tolerance)."""
    return [dict(result.scores.items()) for result in results]


def hot_stream(graph):
    """Repeated hot seeds interleaved with cold one-off queries, mixed k."""
    hot_a = PPRQuery(seed=3, k=25, length=6)
    hot_b = PPRQuery(seed=40, k=25, length=6)
    return [
        hot_a,
        PPRQuery(seed=7, k=25, length=6),  # cold
        hot_a,
        hot_b,
        PPRQuery(seed=3, k=10, length=6),  # hot seed, different k: own entry
        hot_b,
        PPRQuery(seed=55, k=25, length=4),  # cold, shorter walk
        hot_a,
    ]


def solve_cached(graph, queries, backend_spec, sharded):
    """Answer ``queries`` with result caching on, returning (results, stats)."""
    backend = make_backend(backend_spec)
    remote = getattr(backend, "executes_stage_tasks", False)
    if sharded:
        partition = partition_graph(graph, 3, strategy="hash", halo_depth=3)
        router = ShardRouter(partition, result_cache_bytes=16 << 20)
        engine = QueryEngine(MeLoPPRSolver(graph), backend=backend, router=router)
    else:
        engine = QueryEngine(
            MeLoPPRSolver(graph),
            backend=backend,
            cache=None if remote else SubgraphCache(),
            result_cache=ScoreTableCache(),
        )
    with engine:
        results = engine.solve_batch(queries)
        stats = engine.stats()
    return results, stats


class TestBackendRouterGrid:
    """Every backend × sharded/unsharded, bitwise identical to uncached serial."""

    @pytest.fixture(scope="class")
    def graph(self):
        return barabasi_albert_graph(160, 2, rng=13, name="rc-grid")

    @pytest.fixture(scope="class")
    def queries(self, graph):
        return hot_stream(graph)

    @pytest.fixture(scope="class")
    def reference(self, graph, queries):
        solver = MeLoPPRSolver(graph)
        return exact_scores([solver.solve(query) for query in queries])

    @pytest.mark.parametrize("sharded", [False, True], ids=["unsharded", "sharded"])
    @pytest.mark.parametrize("backend_spec", BACKENDS)
    def test_bit_identical_scores(self, graph, queries, reference, backend_spec, sharded):
        results, stats = solve_cached(graph, queries, backend_spec, sharded)
        assert exact_scores(results) == reference
        # The stream was hot, so temporal repeats must have been served from
        # the cache — on concurrent backends duplicates may race and both
        # miss, but a serial backend's hits are exact.
        assert stats.result_cache is not None
        assert stats.result_cache.lookups == len(queries)
        if backend_spec == "serial":
            assert stats.result_cache.hits == 3  # two hot_a + one hot_b repeat
        # The aggregate cache field folds the result cache in.
        assert stats.cache is not None
        assert stats.cache.hits >= stats.result_cache.hits

    def test_second_batch_is_all_hits(self, graph, queries, reference):
        backend = make_backend("serial")
        with QueryEngine(
            MeLoPPRSolver(graph),
            backend=backend,
            cache=SubgraphCache(),
            result_cache=ScoreTableCache(),
        ) as engine:
            engine.solve_batch(queries)
            first = engine.stats().result_cache
            results = engine.solve_batch(queries)
            second = engine.stats().result_cache
        assert exact_scores(results) == reference
        # Every distinct (seed, k, length) was installed by batch one.
        assert second.misses == first.misses
        assert second.hits == first.hits + len(queries)

    def test_metadata_reports_hits_and_misses(self, graph):
        hot = PPRQuery(seed=3, k=25, length=6)
        with QueryEngine(
            MeLoPPRSolver(graph), result_cache=ScoreTableCache()
        ) as engine:
            cold, warm = engine.solve_batch([hot, hot])
            same = graph.fingerprint()
            # An update out of reach of every task keeps the answer ...
            far = [99] * graph.num_nodes
            assert engine.result_cache.apply_update(same, same, far) == (0, 1, 1, 0)
            (kept,) = engine.solve_batch([hot])
            # ... one that reaches a stage-two sub-graph strips it, and the
            # surviving stage-one state resumes the plan instead.
            near = list(far)
            near[
                next(
                    record.center_node
                    for record in cold.metadata["tasks"]
                    if record.stage_index == 1 and record.center_node != hot.seed
                )
            ] = 3
            assert engine.result_cache.apply_update(same, same, near) == (0, 1, 0, 1)
            (resumed,) = engine.solve_batch([hot])
        assert cold.metadata["serving"]["result_cache"] == "miss"
        assert warm.metadata["serving"]["result_cache"] == "answer"
        assert kept.metadata["serving"]["result_cache"] == "answer"
        assert resumed.metadata["serving"]["result_cache"] == "hit"
        assert kept.scores is cold.scores
        assert warm.scores is cold.scores
        assert dict(resumed.scores.items()) == dict(cold.scores.items())


class TestFrontendComposition:
    """MicroBatcher dedup (concurrent repeats) × result cache (temporal)."""

    def test_dedup_and_result_cache_compose(self, small_ba_graph):
        hot = PPRQuery(seed=9, k=20, length=6)
        cold = PPRQuery(seed=23, k=20, length=6)
        solver = MeLoPPRSolver(small_ba_graph)
        reference = {
            query: dict(solver.solve(query).scores.items())
            for query in (hot, cold)
        }
        engine = QueryEngine(
            MeLoPPRSolver(small_ba_graph),
            cache=SubgraphCache(),
            result_cache=ScoreTableCache(),
        )

        async def run():
            policy = BatchPolicy(max_batch_size=4, max_wait_ms=5.0, dedup=True)
            async with MicroBatcher(engine, policy) as batcher:
                # Wave one: concurrent duplicates — dedup computes once.
                wave_one = await asyncio.gather(
                    batcher.submit(hot), batcher.submit(hot), batcher.submit(cold)
                )
                # Wave two: temporal repeats — the result cache serves them.
                wave_two = await asyncio.gather(
                    batcher.submit(hot), batcher.submit(cold)
                )
                return wave_one, wave_two, batcher.stats()

        try:
            wave_one, wave_two, stats = asyncio.run(run())
        finally:
            engine.close()
        for result in (wave_one[0], wave_one[1], wave_two[0]):
            assert dict(result.scores.items()) == reference[hot]
        for result in (wave_one[2], wave_two[1]):
            assert dict(result.scores.items()) == reference[cold]
        # Dedup collapsed the concurrent duplicates...
        assert stats.dedup_hits >= 1
        # ...and the result cache served the temporal ones.
        assert stats.engine.result_cache.hits >= 2


@st.composite
def graph_and_stream(draw):
    """A random small graph plus a query stream with forced repeats."""
    kind = draw(st.sampled_from(["ba", "er"]))
    rng = draw(st.integers(min_value=0, max_value=2**16))
    num_nodes = draw(st.integers(min_value=30, max_value=100))
    if kind == "ba":
        graph = barabasi_albert_graph(
            num_nodes, draw(st.integers(min_value=1, max_value=3)), rng=rng
        )
    else:
        graph = erdos_renyi_graph(
            num_nodes, draw(st.floats(min_value=0.03, max_value=0.12)), rng=rng
        )
    seeds = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_nodes - 1),
            min_size=1,
            max_size=3,
        )
    )
    length = draw(st.sampled_from([1, 4, 6]))
    queries = [PPRQuery(seed=seed, k=20, length=length) for seed in seeds]
    # Force temporal repeats: replay the stream twice in one batch.
    return graph, queries + queries


class TestPropertyBased:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=graph_and_stream(), sharded=st.booleans())
    def test_random_streams_bit_identical(self, data, sharded):
        graph, queries = data
        solver = MeLoPPRSolver(graph)
        reference = exact_scores([solver.solve(query) for query in queries])
        results, stats = solve_cached(graph, queries, "serial", sharded)
        assert exact_scores(results) == reference
        # The replayed half of the stream must have hit.
        assert stats.result_cache.hits >= len(queries) // 2
