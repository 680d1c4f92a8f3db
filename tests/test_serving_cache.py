"""Tests for the byte-budgeted LRU ego-ball cache."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import repro.serving.cache as cache_module
from repro.diffusion.diffusion import graph_diffusion, seed_vector, stage_diffusion
from repro.graph.bfs import extract_ego_subgraph, extract_wave
from repro.graph.csr import CSRGraph
from repro.graph.generators import barabasi_albert_graph
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.serving.cache import SubgraphCache, _entry_nbytes
from repro.serving.engine import QueryEngine


def _entry_size(graph, center, depth) -> int:
    (ball,) = extract_wave(graph, [center], depth).split()
    return _entry_nbytes(ball)


def assert_ball_is_the_spec(graph, ball, center: int, depth: int) -> None:
    """A one-ball wave equals ``extract_ego_subgraph`` for its centre: nodes,
    levels, degrees, ``edges_scanned``, and its diffusion ``graph_diffusion``'s
    on the sub-graph, bit for bit."""
    subgraph, bfs = extract_ego_subgraph(graph, center, depth)
    assert ball.bounds.tolist() == [0, subgraph.num_nodes]
    assert ball.nodes.tolist() == bfs.nodes.tolist()
    assert ball.levels.tolist() == bfs.levels.tolist()
    assert ball.degrees.tolist() == subgraph.graph.degrees().tolist()
    assert ball.edges_scanned.tolist() == [bfs.edges_scanned]
    accumulated, residual, (propagations,) = stage_diffusion(
        ball.targets, ball.sources, ball.degrees, ball.bounds, [0], depth
    )
    expected = graph_diffusion(subgraph.graph, seed_vector(subgraph.num_nodes, 0), depth)
    assert np.array_equal(accumulated, expected.accumulated)
    assert np.array_equal(residual, expected.residual)
    assert propagations == expected.propagations


class TestHitMissAccounting:
    def test_miss_then_hit(self, small_ba_graph):
        cache = SubgraphCache(max_bytes=1 << 20)
        (hit,) = cache.extract_wave(small_ba_graph, [5], 2).hits
        assert not hit
        (hit,) = cache.extract_wave(small_ba_graph, [5], 2).hits
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
        cache.extract_wave(small_ba_graph, [5], 2)
        (hit,) = cache.extract_wave(small_ba_graph, [5], 3).hits
        assert not hit  # same center, different depth
        (hit,) = cache.extract_wave(small_ba_graph, [6], 2).hits
        assert not hit  # different center, same depth
        assert cache.stats.misses == 3

    def test_stats_as_dict_round_trip(self, small_ba_graph):
        cache = SubgraphCache(max_bytes=1 << 20)
        cache.extract_wave(small_ba_graph, [1], 2)
        cache.extract_wave(small_ba_graph, [1], 2)
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
        cache.extract_wave(small_ba_graph, [0], 0)
        cache.extract_wave(small_ba_graph, [1], 0)
        # Touch 0 so 1 becomes the LRU victim.
        cache.extract_wave(small_ba_graph, [0], 0)
        cache.extract_wave(small_ba_graph, [2], 0)
        assert (0, 0) in cache
        assert (1, 0) not in cache
        assert (2, 0) in cache
        assert cache.stats.evictions == 1

    def test_budget_is_respected(self, small_ba_graph):
        budget = 2 * _entry_size(small_ba_graph, 0, 2)
        cache = SubgraphCache(max_bytes=budget)
        for center in range(25):
            cache.extract_wave(small_ba_graph, [center], 2)
        assert cache.stats.current_bytes <= budget

    def test_oversized_entry_is_not_cached(self, small_ba_graph):
        cache = SubgraphCache(max_bytes=64)  # smaller than any extraction
        wave = cache.extract_wave(small_ba_graph, [0], 2)
        assert not wave.hits[0]
        assert wave.nodes.size > 0
        stats = cache.stats
        assert stats.num_entries == 0
        assert stats.rejected == 1
        # A second lookup misses again (nothing was retained).
        (hit,) = cache.extract_wave(small_ba_graph, [0], 2).hits
        assert not hit

    def test_cache_binds_to_one_graph(self, small_ba_graph, small_citation_graph):
        cache = SubgraphCache(max_bytes=1 << 20)
        cache.extract_wave(small_ba_graph, [0], 2)
        before = cache.stats
        (hit,) = cache.extract_wave(small_citation_graph, [0], 2).hits
        assert not hit and cache.stats == before and cache.graph is small_ba_graph
        # bind() moves the binding (and drops the other topology's entries).
        cache.bind(small_citation_graph)
        assert cache.stats.num_entries == 0
        cache.extract_wave(small_citation_graph, [0], 2)
        assert cache.graph is small_citation_graph and cache.stats.misses == 2

    def test_an_entry_holds_no_more_than_its_csr_form(self, small_ba_graph):
        # What a ball cost as a relabelled CSR sub-graph with its id map and
        # BFS arrays: an upper bound on what it costs as a one-ball wave, down
        # to a whole component read before the last level.
        def csr_bytes(graph, center, depth):
            subgraph, bfs = extract_ego_subgraph(graph, center, depth)
            ids = subgraph.global_ids.nbytes + bfs.nodes.nbytes + bfs.levels.nbytes
            return subgraph.graph.nbytes() + ids + 16 * subgraph.num_nodes

        clique = CSRGraph.from_edges(8, list(itertools.combinations(range(8), 2)), name="K8")
        for graph, centers in ((small_ba_graph, (0, 5, 150)), (clique, (0, 7))):
            for depth in range(4):
                for center in centers:
                    assert _entry_size(graph, center, depth) <= csr_bytes(graph, center, depth)


class TestCachedExtractionCorrectness:
    def test_a_kept_ball_is_the_spec_and_frozen(self, small_citation_graph):
        cache = SubgraphCache(max_bytes=1 << 22)
        cache.extract_wave(small_citation_graph, [11], 3)
        ball = cache.get(11, 3)
        assert_ball_is_the_spec(small_citation_graph, ball, 11, 3)
        assert ball.targets.dtype == np.int32
        for array in (ball.targets, ball.degrees, ball.nodes, ball.levels):
            assert array.base is None and not array.flags.writeable
        assert cache.stats.current_bytes == _entry_nbytes(ball)

    def test_a_hit_diffuses_like_the_fresh_ball(self, small_citation_graph):
        cache = SubgraphCache(max_bytes=1 << 22)
        fresh = cache.extract_wave(small_citation_graph, [7], 3)
        cached = cache.extract_wave(small_citation_graph, [7], 3)
        assert cached.hits.tolist() == [True]
        assert_ball_is_the_spec(small_citation_graph, cached, 7, 3)
        scores = [
            stage_diffusion(wave.targets, wave.sources, wave.degrees, wave.bounds, [0], 3)
            for wave in (fresh, cached)
        ]
        for ours, theirs in zip(*scores):
            assert np.array_equal(ours, theirs)


class TestStageForm:
    """``extract_wave``: look all up, extract the misses together."""

    def test_hits_and_misses_are_counted_per_centre(self, small_ba_graph):
        cache = SubgraphCache()
        cache.extract_wave(small_ba_graph, [5], 2)
        warm = cache.get(5, 2)
        wave = cache.extract_wave(small_ba_graph, [3, 5, 9], 2)
        assert wave.hits.tolist() == [False, True, False]
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.num_entries) == (2, 3, 3)
        assert cache.get(5, 2) is warm
        balls = [cache.get(center, 2) for center in (3, 9)]
        again = cache.extract_wave(small_ba_graph, [9, 3], 2)
        assert again.hits.tolist() == [True, True]
        assert [cache.get(center, 2) for center in (3, 9)] == balls
        empty = cache.extract_wave(small_ba_graph, [], 2)
        assert empty.hits.size == 0 and empty.bounds.tolist() == [0]
        cache.validate()

    def test_every_ball_of_a_restacked_stage_is_the_spec(self, small_citation_graph):
        centers = [11, 7, 200, 11]
        cache = SubgraphCache()
        cache.extract_wave(small_citation_graph, [7], 3)
        stage = cache.extract_wave(small_citation_graph, centers, 3)
        assert stage.hits.tolist() == [False, True, False, False]
        for center, ball in zip(centers, stage.split()):
            assert_ball_is_the_spec(small_citation_graph, ball, center, 3)
            assert _entry_nbytes(ball) == _entry_nbytes(cache.get(center, 3))

    def test_budget_below_one_stage_still_serves_the_stage(self, small_ba_graph):
        centers = [0, 1, 2, 3, 4, 5]
        budget = 2 * max(_entry_size(small_ba_graph, center, 2) for center in centers)
        cache = SubgraphCache(max_bytes=budget)
        wave = cache.extract_wave(small_ba_graph, centers, 2)
        assert wave.nodes[wave.bounds[:-1]].tolist() == centers
        stats = cache.stats
        assert stats.misses == 6 and stats.evictions >= 4
        assert stats.current_bytes <= budget
        cache.validate()

    def test_binding_is_checked(self, small_ba_graph, small_citation_graph):
        # For another graph the stage is extracted uncached: the fresh
        # extraction, array for array, with no lookup, insert or recency.
        cache = SubgraphCache()
        cache.extract_wave(small_ba_graph, [0, 3], 2)
        entries = list(cache._entries)
        centers = [3, 0, 40, 3]
        served = cache.extract_wave(small_citation_graph, centers, 2)
        fresh = extract_wave(small_citation_graph, centers, 2)
        for field in ("targets", "degrees", "nodes", "levels", "bounds", "edges_scanned", "hits"):
            assert np.array_equal(getattr(served, field), getattr(fresh, field)), field
        assert cache.stats.lookups == 2 and list(cache._entries) == entries
        cache.validate()


class TestSurgicalInvalidation:
    def test_radius_tracks_retained_entries(self, small_ba_graph):
        other = barabasi_albert_graph(small_ba_graph.num_nodes, 2, rng=99)
        cache = SubgraphCache()
        assert cache.radius(small_ba_graph) == 0
        cache.extract_wave(small_ba_graph, [3], 2)
        cache.extract_wave(small_ba_graph, [5], 4)
        assert cache.radius(small_ba_graph) == 4
        # A cache bound to another graph needs no reach for this one.
        assert cache.radius(other) == 0

    def test_carry_drops_exactly_in_reach(self, small_ba_graph):
        cache = SubgraphCache()
        cache.extract_wave(small_ba_graph, [3], 2)
        cache.extract_wave(small_ba_graph, [5], 4)
        distances = np.full(small_ba_graph.num_nodes, 99, dtype=np.int64)
        distances[3] = 3  # outside its depth-2 ball
        distances[5] = 4  # exactly on the depth-4 boundary: must drop
        assert cache.carry(small_ba_graph, small_ba_graph, distances) == 1
        assert (3, 2) in cache and (5, 4) not in cache
        # Drops are invalidations, not evictions, and the bytes are freed.
        stats = cache.stats
        assert stats.evictions == 0
        cache.validate()

    def test_carry_leaves_a_cache_bound_to_another_graph_alone(self, small_ba_graph):
        from repro.graph.delta import DeltaGraph, update_reach_bound

        def update(graph):
            ops = [("delete", 3, int(graph.neighbors(3)[0]))]
            delta = DeltaGraph(graph)
            delta.apply(ops)
            updated = delta.compact()
            return updated, update_reach_bound(updated, ops, 2)

        other = barabasi_albert_graph(small_ba_graph.num_nodes, 2, rng=99)
        cache = SubgraphCache()
        cache.extract_wave(other, [3], 2)
        updated, reach = update(small_ba_graph)
        assert cache.carry(small_ba_graph, updated, reach) is None
        assert (3, 2) in cache and cache.graph is other
        # An update of its own graph drops the ball and moves the binding.
        updated, reach = update(other)
        assert cache.carry(other, updated, reach) == 1
        assert (3, 2) not in cache and cache.graph is updated
        cache.validate()

    def test_binding_a_rebuild_keeps_survivors_warm(self, small_ba_graph):
        cache = SubgraphCache()
        cache.extract_wave(small_ba_graph, [3], 2)
        kept = cache.get(3, 2)
        rebuilt = CSRGraph.from_edges(
            small_ba_graph.num_nodes,
            list(small_ba_graph.iter_edges()),
            name=small_ba_graph.name,
        )
        cache.bind(rebuilt)
        (hit,) = cache.extract_wave(rebuilt, [3], 2).hits
        assert hit
        assert cache.get(3, 2) is kept
        assert cache.stats.hits == 3
        # The binding genuinely moved: the old host is now bypassed.
        (hit,) = cache.extract_wave(small_ba_graph, [3], 2).hits
        assert not hit and cache.stats.hits == 3 and (7, 2) not in cache

    def test_an_insert_names_its_graph(self, small_ba_graph, monkeypatch):
        # An unbound cache binds to the first stage's graph and keeps its
        # balls; balls extracted while the binding moved to another graph
        # are refused.
        other = barabasi_albert_graph(small_ba_graph.num_nodes, 2, rng=99, name="other")
        cache = SubgraphCache()
        cache.extract_wave(small_ba_graph, [3], 2)
        assert (3, 2) in cache and cache.graph is small_ba_graph
        far = np.full(small_ba_graph.num_nodes, 99, dtype=np.int64)

        def extract_then_update(graph, centers, depth):
            wave = extract_wave(graph, centers, depth)
            assert cache.carry(small_ba_graph, other, far) == 0
            return wave

        monkeypatch.setattr(cache_module, "extract_wave", extract_then_update)
        cache.extract_wave(small_ba_graph, [5], 2)
        assert cache.graph is other
        assert (5, 2) not in cache and cache.stats.rejected == 0
        cache.validate()

    def test_an_engine_bypasses_the_cache_another_engine_updated(self):
        # Two engines on one graph share the cache.  B's update moves the
        # binding to B's updated graph; A, still on the old one, must serve
        # its own graph's answer uncached and move no entry and no counter.
        graph = barabasi_albert_graph(150, 2, rng=4, name="host")
        config = MeLoPPRConfig(track_memory=False)
        query = PPRQuery(seed=9, k=20, length=6)
        edge = ("delete", 9, int(graph.neighbors(9)[0]))
        shared = SubgraphCache()
        first = QueryEngine(MeLoPPRSolver(graph, config), cache=shared)
        second = QueryEngine(MeLoPPRSolver(graph, config), cache=shared)
        with first, second:
            first.solve_batch([query])
            second.apply_update([edge])
            assert shared.graph is second.solver.graph
            before, entries = shared.stats, list(shared._entries)
            (served,) = first.solve_batch([query])
            assert shared.stats == before and list(shared._entries) == entries
        reference = MeLoPPRSolver(graph, config).solve(query)
        assert dict(served.scores.items()) == dict(reference.scores.items())
        shared.validate()

    def test_an_update_between_lookup_and_insert_keeps_no_stale_ball(self, monkeypatch):
        # Two engines on one graph share the cache.  B's update waits only
        # for B's batches, so it can land while A's wave is between its
        # lookups and its inserts: the balls A extracted on the old graph
        # must not be kept under the new binding, where B would hit them.
        graph = barabasi_albert_graph(150, 2, rng=4, name="host")
        config = MeLoPPRConfig(stage_lengths=(3,), track_memory=False)
        query = PPRQuery(seed=9, k=20, length=3)  # one stage: one wave
        edge = ("delete", 9, int(graph.neighbors(9)[0]))
        shared = SubgraphCache()
        first = QueryEngine(MeLoPPRSolver(graph, config), cache=shared)
        second = QueryEngine(MeLoPPRSolver(graph, config), cache=shared)

        def update_first(*args):
            monkeypatch.setattr(cache_module, "extract_wave", extract_wave)
            second.apply_update([edge])
            return extract_wave(*args)

        monkeypatch.setattr(cache_module, "extract_wave", update_first)
        with first, second:
            first.solve_batch([query])
            assert len(shared) == 0 and shared.graph is second.solver.graph
            (served,) = second.solve_batch([query])
        reference = MeLoPPRSolver(second.solver.graph, config).solve(query)
        assert dict(served.scores.items()) == dict(reference.scores.items())
        shared.validate()
