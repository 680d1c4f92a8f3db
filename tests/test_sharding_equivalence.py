"""Differential correctness: sharded serving is bit-identical to unsharded.

The sharding subsystem promises that routing extractions to halo-extended
shard sub-graphs is a pure locality layer: every score a shard-routed
:class:`~repro.serving.engine.QueryEngine` produces must equal — bitwise, no
tolerance — what the unsharded :class:`~repro.serving.backends.SerialBackend`
path produces.  This module checks that promise two ways: an exhaustive grid
over partitioners × shard counts × cache on/off, and hypothesis-driven
property tests over random BA/ER graphs and query mixes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.bfs import extract_ego_subgraph
from repro.graph.generators import barabasi_albert_graph, erdos_renyi_graph
from repro.graph.partition import PARTITIONERS, partition_graph
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.serving import QueryEngine, ShardRouter, ThreadPoolBackend

SHARD_COUNTS = (1, 2, 4, 7)


def exact_scores(results):
    """Per-query score dicts for bitwise comparison (no tolerance)."""
    return [dict(result.scores.items()) for result in results]


def solve_sharded(graph, queries, num_shards, strategy, cached, halo_depth=3, backend=None):
    """Answer ``queries`` through a shard-routed engine."""
    partition = partition_graph(
        graph, num_shards, strategy=strategy, halo_depth=halo_depth
    )
    router = ShardRouter(partition, cache_bytes=(64 << 20) if cached else None)
    with QueryEngine(MeLoPPRSolver(graph), backend=backend, router=router) as engine:
        return engine.solve_batch(queries), engine.stats()


class TestPartitionerGrid:
    """Every partitioner × shard count × cache setting, bitwise identical."""

    @pytest.fixture(scope="class")
    def graph(self):
        return barabasi_albert_graph(150, 2, rng=11, name="ba150")

    @pytest.fixture(scope="class")
    def queries(self):
        seeds = [0, 7, 42, 7, 99]
        return [PPRQuery(seed=seed, k=30, alpha=0.85, length=6) for seed in seeds]

    @pytest.fixture(scope="class")
    def reference(self, graph, queries):
        solver = MeLoPPRSolver(graph)
        return exact_scores([solver.solve(query) for query in queries])

    @pytest.mark.parametrize("cached", [False, True], ids=["cold", "cached"])
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("strategy", sorted(PARTITIONERS))
    def test_bit_identical_scores(self, graph, queries, reference, strategy, num_shards, cached):
        results, stats = solve_sharded(graph, queries, num_shards, strategy, cached)
        assert exact_scores(results) == reference
        router_stats = stats.router
        assert router_stats.total_extractions > 0
        # halo depth 3 covers the paper stage split — everything shard-local.
        assert router_stats.fallback_rate == 0.0
        if cached:
            # The repeated seed (7) must have hit some shard's cache.
            assert router_stats.hit_rate > 0.0

    @pytest.mark.parametrize("strategy", sorted(PARTITIONERS))
    def test_bit_identical_under_fallback(self, graph, queries, reference, strategy):
        # Halo depth 1 < stage length 3: every extraction falls back to the
        # host graph, and the answers still must not move.
        results, stats = solve_sharded(
            graph, queries, 4, strategy, cached=True, halo_depth=1
        )
        assert exact_scores(results) == reference
        assert stats.router.fallback_rate == 1.0

    def test_bit_identical_threaded(self, graph, queries, reference):
        results, _ = solve_sharded(
            graph, queries, 4, "hash", cached=True, backend=ThreadPoolBackend(4)
        )
        assert exact_scores(results) == reference


class TestShardLocalExtraction:
    """The router's extractions equal host-graph extractions, array for array."""

    def test_extraction_arrays_identical(self, small_ba_graph):
        partition = partition_graph(small_ba_graph, 3, strategy="degree", halo_depth=3)
        router = ShardRouter(partition)
        for center in range(0, small_ba_graph.num_nodes, 17):
            for depth in (0, 1, 2, 3):
                expected_sub, expected_bfs = extract_ego_subgraph(
                    small_ba_graph, center, depth
                )
                got_sub, got_bfs, hit = router.extract_wave(small_ba_graph, [center], depth).triples()[0]
                assert not hit
                assert np.array_equal(got_sub.graph.indptr, expected_sub.graph.indptr)
                assert np.array_equal(got_sub.graph.indices, expected_sub.graph.indices)
                assert np.array_equal(got_sub.global_ids, expected_sub.global_ids)
                assert got_sub.graph.name == expected_sub.graph.name
                assert np.array_equal(got_bfs.nodes, expected_bfs.nodes)
                assert np.array_equal(got_bfs.levels, expected_bfs.levels)
                assert got_bfs.edges_scanned == expected_bfs.edges_scanned
                assert got_bfs.source == expected_bfs.source


@st.composite
def graph_and_queries(draw):
    """A random small BA or ER graph plus a query mix over it."""
    kind = draw(st.sampled_from(["ba", "er"]))
    rng = draw(st.integers(min_value=0, max_value=2**16))
    num_nodes = draw(st.integers(min_value=30, max_value=120))
    if kind == "ba":
        attachment = draw(st.integers(min_value=1, max_value=3))
        graph = barabasi_albert_graph(num_nodes, attachment, rng=rng)
    else:
        probability = draw(st.floats(min_value=0.02, max_value=0.12))
        graph = erdos_renyi_graph(num_nodes, probability, rng=rng)
    seeds = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_nodes - 1),
            min_size=1,
            max_size=4,
        )
    )
    length = draw(st.sampled_from([2, 4, 6]))
    queries = [PPRQuery(seed=seed, k=20, alpha=0.85, length=length) for seed in seeds]
    return graph, queries


class TestPropertyBased:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        data=graph_and_queries(),
        num_shards=st.sampled_from(SHARD_COUNTS),
        strategy=st.sampled_from(sorted(PARTITIONERS)),
        cached=st.booleans(),
    )
    def test_random_graphs_bit_identical(self, data, num_shards, strategy, cached):
        graph, queries = data
        solver = MeLoPPRSolver(graph)
        reference = exact_scores([solver.solve(query) for query in queries])
        results, _ = solve_sharded(graph, queries, num_shards, strategy, cached)
        assert exact_scores(results) == reference

    @settings(max_examples=8, deadline=None)
    @given(
        num_shards=st.sampled_from(SHARD_COUNTS),
        strategy=st.sampled_from(sorted(PARTITIONERS)),
        halo_depth=st.integers(min_value=0, max_value=4),
    )
    def test_any_halo_depth_bit_identical(self, num_shards, strategy, halo_depth):
        # Fixed graph/queries; vary the partition shape including halos too
        # shallow for the stage depth (forcing the fallback path).
        graph = barabasi_albert_graph(80, 2, rng=5)
        queries = [PPRQuery(seed=seed, k=20, length=6) for seed in (3, 40, 3)]
        solver = MeLoPPRSolver(graph)
        reference = exact_scores([solver.solve(query) for query in queries])
        results, _ = solve_sharded(
            graph, queries, num_shards, strategy, cached=True, halo_depth=halo_depth
        )
        assert exact_scores(results) == reference
