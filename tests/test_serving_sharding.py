"""Tests for the shard router: routing, per-shard caches, stats, engine wiring."""

from __future__ import annotations

import pytest

from repro.graph.partition import partition_graph
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.serving import QueryEngine, ShardRouter, SubgraphCache


@pytest.fixture()
def partition(small_ba_graph):
    return partition_graph(small_ba_graph, 3, strategy="hash", halo_depth=3)


@pytest.fixture()
def router(partition):
    return ShardRouter(partition)


class TestRouting:
    def test_local_extraction_counted_per_owning_shard(self, small_ba_graph, partition, router):
        center = 7
        shard_id = partition.shard_of(center)
        router.extract(small_ba_graph, center, 2)
        stats = router.stats()
        assert stats.shards[shard_id].local_extractions == 1
        assert stats.local_extractions == 1
        assert stats.fallback_extractions == 0
        assert stats.fallback_rate == 0.0

    def test_deep_extraction_falls_back(self, small_ba_graph, partition, router):
        center = 7
        shard_id = partition.shard_of(center)
        router.extract(small_ba_graph, center, partition.halo_depth + 1)
        stats = router.stats()
        assert stats.shards[shard_id].fallback_extractions == 1
        assert stats.local_extractions == 0
        assert stats.fallback_rate == 1.0

    def test_repeat_extraction_hits_shard_cache(self, small_ba_graph, partition, router):
        center = 11
        shard_id = partition.shard_of(center)
        _, _, first_hit = router.extract(small_ba_graph, center, 2)
        _, _, second_hit = router.extract(small_ba_graph, center, 2)
        assert not first_hit and second_hit
        cache = router.cache_for(shard_id)
        assert cache is not None
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        # Other shards' caches were never touched.
        for other in range(partition.num_shards):
            if other != shard_id:
                assert router.cache_for(other).stats.lookups == 0

    def test_fallback_extraction_uses_fallback_cache(self, small_ba_graph, router):
        depth = router.partition.halo_depth + 1
        _, _, first_hit = router.extract(small_ba_graph, 7, depth)
        _, _, second_hit = router.extract(small_ba_graph, 7, depth)
        assert not first_hit and second_hit
        stats = router.stats()
        assert stats.fallback_cache is not None
        assert stats.fallback_cache.hits == 1

    def test_cache_disabled(self, small_ba_graph, partition):
        router = ShardRouter(partition, cache_bytes=None)
        assert not router.caching_enabled
        _, _, first_hit = router.extract(small_ba_graph, 7, 2)
        _, _, second_hit = router.extract(small_ba_graph, 7, 2)
        assert not first_hit and not second_hit
        stats = router.stats()
        assert stats.hit_rate == 0.0
        assert all(shard.cache is None for shard in stats.shards)

    def test_foreign_graph_rejected(self, router, small_citation_graph):
        with pytest.raises(ValueError):
            router.extract(small_citation_graph, 0, 2)

    def test_invalid_center_rejected(self, small_ba_graph, router):
        with pytest.raises(ValueError):
            router.extract(small_ba_graph, -1, 2)
        with pytest.raises(ValueError):
            router.extract(small_ba_graph, small_ba_graph.num_nodes, 2)

    def test_callable_alias(self, small_ba_graph, router):
        subgraph, bfs, hit = router(small_ba_graph, 3, 1)
        assert subgraph.contains_global(3)
        assert bfs.source == 3
        assert not hit


class TestRouterStats:
    def test_as_dict_shape(self, small_ba_graph, router):
        router.extract(small_ba_graph, 5, 2)
        router.extract(small_ba_graph, 5, router.partition.halo_depth + 2)
        payload = router.stats().as_dict()
        assert payload["num_shards"] == 3
        assert payload["local_extractions"] == 1
        assert payload["fallback_extractions"] == 1
        assert payload["fallback_rate"] == 0.5
        assert 0.0 <= payload["hit_rate"] <= 1.0
        assert len(payload["per_shard_hit_rates"]) == 3
        assert payload["halo_overhead_bytes"] >= 0
        assert len(payload["shards"]) == 3
        for shard in payload["shards"]:
            assert shard["cache"] is not None

    def test_validate_passes_after_traffic(self, small_ba_graph, router):
        for center in range(0, small_ba_graph.num_nodes, 9):
            router.extract(small_ba_graph, center, 2)
        router.validate()


class TestEngineIntegration:
    def test_router_and_cache_mutually_exclusive(self, small_ba_graph, router):
        solver = MeLoPPRSolver(small_ba_graph)
        with pytest.raises(ValueError):
            QueryEngine(solver, cache=SubgraphCache(), router=router)

    def test_engine_stats_carry_router_snapshot(self, small_ba_graph, router):
        solver = MeLoPPRSolver(small_ba_graph)
        queries = [PPRQuery(seed=seed, k=20) for seed in (3, 3, 9)]
        with QueryEngine(solver, router=router) as engine:
            assert engine.router is router
            engine.solve_batch(queries)
            stats = engine.stats()
        assert stats.router is not None
        assert stats.router.total_extractions > 0
        payload = stats.as_dict()
        assert payload["router"]["num_shards"] == 3

    def test_serving_metadata_reports_sharding(self, small_ba_graph, router):
        solver = MeLoPPRSolver(small_ba_graph)
        with QueryEngine(solver, router=router) as engine:
            (result,) = engine.solve_batch([PPRQuery(seed=3, k=20)])
        serving = result.metadata["serving"]
        assert serving["sharded"] is True
        assert serving["cache_enabled"] is True

    def test_unsharded_metadata_unchanged(self, small_ba_graph):
        solver = MeLoPPRSolver(small_ba_graph)
        with QueryEngine(solver) as engine:
            (result,) = engine.solve_batch([PPRQuery(seed=3, k=20)])
        serving = result.metadata["serving"]
        assert serving["sharded"] is False
        assert serving["cache_enabled"] is False


class TestRouterLiveUpdate:
    def test_update_radius_covers_caches_and_halo(self, small_ba_graph, partition):
        router = ShardRouter(partition, result_cache_bytes=1 << 20)
        assert router.update_radius() == partition.halo_depth
        # A deeper cached extraction raises the radius above the halo depth.
        router.extract(small_ba_graph, 7, partition.halo_depth + 2)
        assert router.update_radius() == partition.halo_depth + 2

    def test_apply_update_patches_and_invalidates(self, small_ba_graph, partition):
        import numpy as np
        from repro.graph.csr import CSRGraph
        from repro.graph.delta import (
            DeltaGraph,
            update_distance_bound,
            update_reach_bound,
        )

        router = ShardRouter(partition, result_cache_bytes=1 << 20)
        for center in (3, 7, 11):
            router.extract(small_ba_graph, center, 2)
        delta = DeltaGraph(small_ba_graph)
        u, v = next(iter(small_ba_graph.iter_edges()))
        delta.delete_edge(u, v)
        new_graph = delta.compact()
        radius = router.update_radius()
        distances = update_distance_bound(
            small_ba_graph, new_graph, delta.touched_nodes(), radius
        )
        counts = router.apply_update(
            new_graph,
            small_ba_graph.fingerprint(),
            new_graph.fingerprint(),
            distances,
            update_reach_bound(new_graph, [("delete", u, v)], radius),
        )
        assert router.partition.host is new_graph
        assert counts["shards_rebuilt"] >= 1
        # Every patched shard really lost the deleted edge.
        for shard in router.partition.shards:
            members = set(shard.subgraph.global_ids.tolist())
            if u in members and v in members:
                assert not shard.subgraph.graph.has_edge(
                    shard.subgraph.to_local(u), shard.subgraph.to_local(v)
                )
        # Extractions against the new host serve without a foreign-graph error.
        router.extract(new_graph, 3, 2)
