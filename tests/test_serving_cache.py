"""Tests for the byte-budgeted LRU ego-sub-graph cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion.diffusion import graph_diffusion, seed_vector
from repro.graph.bfs import extract_ego_subgraph
from repro.serving.cache import SubgraphCache, _entry_nbytes


def _entry_size(graph, center, depth) -> int:
    subgraph, bfs = extract_ego_subgraph(graph, center, depth)
    return _entry_nbytes(subgraph, bfs)


class TestHitMissAccounting:
    def test_miss_then_hit(self, small_ba_graph):
        cache = SubgraphCache(max_bytes=1 << 20)
        _, _, hit = cache.get_or_extract(small_ba_graph, 5, 2)
        assert not hit
        _, _, hit = cache.get_or_extract(small_ba_graph, 5, 2)
        assert hit
        stats = cache.stats
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.lookups == 2
        assert stats.hit_rate == pytest.approx(0.5)
        assert stats.num_entries == 1
        assert stats.current_bytes > 0

    def test_distinct_keys_do_not_collide(self, small_ba_graph):
        cache = SubgraphCache(max_bytes=1 << 20)
        cache.get_or_extract(small_ba_graph, 5, 2)
        _, _, hit = cache.get_or_extract(small_ba_graph, 5, 3)
        assert not hit  # same center, different depth
        _, _, hit = cache.get_or_extract(small_ba_graph, 6, 2)
        assert not hit  # different center, same depth
        assert cache.stats.misses == 3

    def test_stats_as_dict_round_trip(self, small_ba_graph):
        cache = SubgraphCache(max_bytes=1 << 20)
        cache.get_or_extract(small_ba_graph, 1, 2)
        cache.get_or_extract(small_ba_graph, 1, 2)
        payload = cache.stats.as_dict()
        assert payload["hits"] == 1
        assert payload["misses"] == 1
        assert payload["hit_rate"] == pytest.approx(0.5)

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            SubgraphCache(max_bytes=0)


class TestByteBudgetEviction:
    def test_lru_eviction_order(self, small_ba_graph):
        # Depth-0 entries all have the same size (a single node, no edges);
        # budget exactly two of them so inserting a third evicts the LRU one.
        size = _entry_size(small_ba_graph, 0, 0)
        assert size == _entry_size(small_ba_graph, 1, 0)
        cache = SubgraphCache(max_bytes=2 * size + size // 2)
        cache.get_or_extract(small_ba_graph, 0, 0)
        cache.get_or_extract(small_ba_graph, 1, 0)
        # Touch 0 so 1 becomes the LRU victim.
        cache.get_or_extract(small_ba_graph, 0, 0)
        cache.get_or_extract(small_ba_graph, 2, 0)
        assert (0, 0) in cache
        assert (1, 0) not in cache
        assert (2, 0) in cache
        assert cache.stats.evictions == 1

    def test_budget_is_respected(self, small_ba_graph):
        budget = 2 * _entry_size(small_ba_graph, 0, 2)
        cache = SubgraphCache(max_bytes=budget)
        for center in range(25):
            cache.get_or_extract(small_ba_graph, center, 2)
        assert cache.stats.current_bytes <= budget

    def test_oversized_entry_is_not_cached(self, small_ba_graph):
        cache = SubgraphCache(max_bytes=64)  # smaller than any extraction
        subgraph, bfs, hit = cache.get_or_extract(small_ba_graph, 0, 2)
        assert not hit
        assert subgraph.num_nodes > 0
        stats = cache.stats
        assert stats.num_entries == 0
        assert stats.rejected == 1
        # A second lookup misses again (nothing was retained).
        _, _, hit = cache.get_or_extract(small_ba_graph, 0, 2)
        assert not hit

    def test_clear_keeps_counters(self, small_ba_graph):
        cache = SubgraphCache(max_bytes=1 << 20)
        cache.get_or_extract(small_ba_graph, 0, 2)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 1
        assert cache.stats.current_bytes == 0

    def test_cache_binds_to_one_graph(self, small_ba_graph, small_citation_graph):
        cache = SubgraphCache(max_bytes=1 << 20)
        cache.get_or_extract(small_ba_graph, 0, 2)
        with pytest.raises(ValueError, match="bound to graph"):
            cache.get_or_extract(small_citation_graph, 0, 2)
        # clear() resets the binding.
        cache.clear()
        _, _, hit = cache.get_or_extract(small_citation_graph, 0, 2)
        assert not hit


class TestCachedExtractionCorrectness:
    def test_cached_equals_fresh(self, small_citation_graph):
        cache = SubgraphCache(max_bytes=1 << 22)
        fresh_sub, fresh_bfs = extract_ego_subgraph(small_citation_graph, 11, 3)
        cache.get_or_extract(small_citation_graph, 11, 3)
        cached_sub, cached_bfs, hit = cache.get_or_extract(small_citation_graph, 11, 3)
        assert hit
        np.testing.assert_array_equal(cached_sub.global_ids, fresh_sub.global_ids)
        np.testing.assert_array_equal(cached_sub.graph.indptr, fresh_sub.graph.indptr)
        np.testing.assert_array_equal(cached_sub.graph.indices, fresh_sub.graph.indices)
        np.testing.assert_array_equal(cached_bfs.nodes, fresh_bfs.nodes)
        assert cached_bfs.edges_scanned == fresh_bfs.edges_scanned

    def test_diffusion_on_cached_subgraph_matches(self, small_citation_graph):
        cache = SubgraphCache(max_bytes=1 << 22)
        fresh_sub, _ = extract_ego_subgraph(small_citation_graph, 7, 3)
        cache.get_or_extract(small_citation_graph, 7, 3)
        cached_sub, _, hit = cache.get_or_extract(small_citation_graph, 7, 3)
        assert hit
        fresh = graph_diffusion(
            fresh_sub.graph, seed_vector(fresh_sub.num_nodes, fresh_sub.to_local(7)), 3, 0.85
        )
        cached = graph_diffusion(
            cached_sub.graph,
            seed_vector(cached_sub.num_nodes, cached_sub.to_local(7)),
            3,
            0.85,
        )
        np.testing.assert_array_equal(cached.accumulated, fresh.accumulated)
        np.testing.assert_array_equal(cached.residual, fresh.residual)


class TestStageForm:
    """``get_or_extract_many``: look all up, extract the misses together."""

    def test_hits_and_misses_are_counted_per_centre(self, small_ba_graph):
        cache = SubgraphCache()
        warm, _, _ = cache.get_or_extract(small_ba_graph, 5, 2)
        triples = cache.get_or_extract_many(small_ba_graph, [3, 5, 9], 2)
        assert [hit for _, _, hit in triples] == [False, True, False]
        assert triples[1][0] is warm
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.num_entries) == (1, 3, 3)
        again = cache.get_or_extract_many(small_ba_graph, [9, 3], 2)
        assert [hit for _, _, hit in again] == [True, True]
        assert again[0][0] is triples[2][0] and again[1][0] is triples[0][0]
        assert cache.get_or_extract_many(small_ba_graph, [], 2) == []
        cache.validate()

    def test_sub_graphs_equal_the_per_ball_form(self, small_citation_graph):
        centers = [11, 7, 200, 11]
        stage = SubgraphCache().get_or_extract_many(small_citation_graph, centers, 3)
        for center, (subgraph, bfs, _) in zip(centers, stage):
            expected, expected_bfs, _ = SubgraphCache().get_or_extract(
                small_citation_graph, center, 3
            )
            np.testing.assert_array_equal(subgraph.global_ids, expected.global_ids)
            np.testing.assert_array_equal(subgraph.graph.indptr, expected.graph.indptr)
            np.testing.assert_array_equal(subgraph.graph.indices, expected.graph.indices)
            assert bfs.edges_scanned == expected_bfs.edges_scanned
            assert _entry_nbytes(subgraph, bfs) == _entry_nbytes(expected, expected_bfs)

    def test_budget_below_one_stage_still_serves_the_stage(self, small_ba_graph):
        centers = [0, 1, 2, 3, 4, 5]
        budget = 2 * max(_entry_size(small_ba_graph, center, 2) for center in centers)
        cache = SubgraphCache(max_bytes=budget)
        triples = cache.get_or_extract_many(small_ba_graph, centers, 2)
        assert [subgraph.to_global(0) for subgraph, _, _ in triples] == centers
        stats = cache.stats
        assert stats.misses == 6 and stats.evictions >= 4
        assert stats.current_bytes <= budget
        cache.validate()

    def test_binding_is_checked(self, small_ba_graph, small_citation_graph):
        cache = SubgraphCache()
        cache.get_or_extract_many(small_ba_graph, [0], 2)
        with pytest.raises(ValueError):
            cache.get_or_extract_many(small_citation_graph, [0], 2)
        assert cache.stats.lookups == 1


class TestSurgicalInvalidation:
    def test_max_depth_tracks_retained_entries(self, small_ba_graph):
        cache = SubgraphCache()
        assert cache.max_depth() == 0
        cache.get_or_extract(small_ba_graph, 3, 2)
        cache.get_or_extract(small_ba_graph, 5, 4)
        assert cache.max_depth() == 4

    def test_invalidate_covering_drops_exactly_in_reach(self, small_ba_graph):
        cache = SubgraphCache()
        cache.get_or_extract(small_ba_graph, 3, 2)
        cache.get_or_extract(small_ba_graph, 5, 4)
        distances = np.full(small_ba_graph.num_nodes, 99, dtype=np.int64)
        distances[3] = 3  # outside its depth-2 ball
        distances[5] = 4  # exactly on the depth-4 boundary: must drop
        assert cache.invalidate_covering(distances) == 1
        assert (3, 2) in cache and (5, 4) not in cache
        # Drops are invalidations, not evictions, and the bytes are freed.
        stats = cache.stats
        assert stats.evictions == 0
        cache.validate()

    def test_rebind_keeps_survivors_warm(self, small_ba_graph):
        from repro.graph.csr import CSRGraph

        cache = SubgraphCache()
        subgraph, bfs, hit = cache.get_or_extract(small_ba_graph, 3, 2)
        rebuilt = CSRGraph.from_edges(
            small_ba_graph.num_nodes,
            list(small_ba_graph.iter_edges()),
            name=small_ba_graph.name,
        )
        cache.rebind(rebuilt)
        again, _, hit = cache.get_or_extract(rebuilt, 3, 2)
        assert hit
        assert again is subgraph
        assert cache.stats.hits == 1
        # The binding genuinely moved: the old host is now foreign.
        with pytest.raises(ValueError):
            cache.get_or_extract(small_ba_graph, 7, 2)
