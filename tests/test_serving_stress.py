"""Concurrency stress tests: the serving caches and engine under contention.

Many threads hammer a cache (:class:`SubgraphCache` or the cross-query
:class:`ScoreTableCache`) with a byte budget small enough
that entries are constantly evicted, which is where LRU bookkeeping bugs
(double-counted bytes, lost evictions, counter drift) live.  After the storm
the cache's invariants must hold exactly: ``current_bytes`` equals the sum
of the retained entries' sizes, the budget is respected, and
``hits + misses`` equals the number of lookups the threads actually
performed.  The engine-level storms additionally reconcile
``EngineStats`` — queries served, batches, latency samples and the merged
cache counters must account for every operation with no under- or
over-count.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.graph.bfs import extract_ego_subgraph, extract_wave
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.serving import QueryEngine, ScoreTableCache, SubgraphCache
from repro.serving.result_cache import _entry_nbytes as result_entry_nbytes

NUM_THREADS = 8
OPS_PER_THREAD = 60
JOIN_TIMEOUT_SECONDS = 60.0


def run_threads(worker):
    """Run ``worker(thread_index)`` on NUM_THREADS threads; fail on deadlock."""
    errors = []

    def wrapped(index):
        try:
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - surfaced to the test
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(index,), daemon=True)
        for index in range(NUM_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT_SECONDS)
    stuck = [thread for thread in threads if thread.is_alive()]
    assert not stuck, f"{len(stuck)} threads still running — deadlock"
    assert not errors, f"worker raised: {errors[0]!r}"


def tiny_budget(graph, centers, depth=2, entries=2):
    """A byte budget that fits only ~``entries`` of the given extractions."""
    from repro.serving.cache import _entry_nbytes

    sizes = [_entry_nbytes(extract_wave(graph, [center], depth).split()[0]) for center in centers]
    return max(max(sizes), entries * (sum(sizes) // len(sizes)))


def assert_ball(ball, center, expected) -> None:
    """A one-ball wave is ``extract_ego_subgraph``'s ball for ``center``."""
    subgraph, bfs = expected
    assert ball.nodes[0] == center
    assert np.array_equal(ball.nodes, bfs.nodes)
    assert np.array_equal(ball.levels, bfs.levels)
    assert np.array_equal(ball.degrees, subgraph.graph.degrees())
    assert ball.edges_scanned.tolist() == [bfs.edges_scanned]


class TestSubgraphCacheStress:
    def test_thrashing_cache_keeps_invariants(self, small_ba_graph):
        centers = list(range(0, small_ba_graph.num_nodes, 7))
        cache = SubgraphCache(max_bytes=tiny_budget(small_ba_graph, centers))

        def worker(index):
            for step in range(OPS_PER_THREAD):
                center = centers[(index * 31 + step * 7) % len(centers)]
                wave = cache.extract_wave(small_ba_graph, [center], 2)
                assert wave.nodes[0] == center

        run_threads(worker)

        cache.validate()
        stats = cache.stats
        # Every extract_wave centre performs exactly one counted lookup.
        assert stats.hits + stats.misses == stats.lookups
        assert stats.lookups == NUM_THREADS * OPS_PER_THREAD
        # The tiny budget must have forced real evictions (the stress point).
        assert stats.evictions > 0
        assert stats.current_bytes <= cache.max_bytes
        assert stats.num_entries == len(cache)

    def test_mixed_get_put_thrashing(self, small_ba_graph):
        centers = list(range(0, small_ba_graph.num_nodes, 11))
        cache = SubgraphCache(max_bytes=tiny_budget(small_ba_graph, centers))
        lookups = [0] * NUM_THREADS

        def worker(index):
            for step in range(OPS_PER_THREAD):
                center = centers[(index + step * 13) % len(centers)]
                if step % 3 == 0:
                    cache.extract_wave(small_ba_graph, [center], 2)  # inserts a miss
                else:
                    cache.get(center, 2)
                lookups[index] += 1

        run_threads(worker)

        cache.validate()
        stats = cache.stats
        assert stats.hits + stats.misses == sum(lookups)
        assert stats.current_bytes <= cache.max_bytes

    def test_concurrent_results_stay_correct(self, small_ba_graph):
        cache = SubgraphCache(max_bytes=64 << 20)
        centers = list(range(0, small_ba_graph.num_nodes, 23))
        expected = {
            center: extract_ego_subgraph(small_ba_graph, center, 2)
            for center in centers
        }

        def worker(index):
            for step in range(OPS_PER_THREAD // 2):
                center = centers[(index + step) % len(centers)]
                wave = cache.extract_wave(small_ba_graph, [center], 2)
                assert_ball(wave, center, expected[center])

        run_threads(worker)
        cache.validate()

    def test_mixed_depth_waves_under_contention(self, small_ba_graph):
        # Whole stages at once — several centres, a repeat, depths 1 to 3 —
        # through a budget too small for one stage: the waves each thread
        # gets back stay correct while other threads evict their balls.
        centers = list(range(0, small_ba_graph.num_nodes, 9))
        depths = (1, 2, 2, 3)
        expected = {
            (center, depth): extract_ego_subgraph(small_ba_graph, center, depth)
            for center in centers
            for depth in depths
        }
        cache = SubgraphCache(max_bytes=tiny_budget(small_ba_graph, centers))
        lookups = [0] * NUM_THREADS

        def worker(index):
            for step in range(OPS_PER_THREAD // 4):
                start = (index * 5 + step * 3) % len(centers)
                wave = centers[start : start + 4] + centers[start : start + 1]
                depth = depths[(index + step) % len(depths)]
                balls = cache.extract_wave(small_ba_graph, wave, depth).split()
                lookups[index] += len(wave)
                assert len(balls) == len(wave)
                for center, ball in zip(wave, balls):
                    assert_ball(ball, center, expected[(center, depth)])

        run_threads(worker)

        cache.validate()
        stats = cache.stats
        assert stats.lookups == sum(lookups)
        assert stats.evictions + stats.rejected > 0
        assert stats.current_bytes <= cache.max_bytes


class TestCacheValidate:
    def test_validate_detects_corruption(self, small_ba_graph):
        cache = SubgraphCache(max_bytes=64 << 20)
        cache.extract_wave(small_ba_graph, [0], 2)
        cache._current_bytes += 1  # simulate bookkeeping drift
        with pytest.raises(AssertionError):
            cache.validate()


def zipf_seeds(num_candidates, num_draws, skew=1.1, rng=7):
    """A Zipf-skewed hot-seed stream over ``num_candidates`` seeds."""
    ranks = np.arange(1, num_candidates + 1, dtype=np.float64)
    probabilities = ranks**-skew
    probabilities /= probabilities.sum()
    generator = np.random.default_rng(rng)
    return generator.choice(num_candidates, size=num_draws, p=probabilities)


class TestScoreTableCacheStress:
    """Threads hammer one engine's result cache while it evicts constantly."""

    def test_zipf_hammer_under_tiny_budget(self, small_ba_graph):
        # Budget ~2 entries: the Zipf tail forces constant eviction while
        # the hot head keeps re-installing — the LRU bookkeeping stress point.
        probe_cache = ScoreTableCache()
        probe_engine = QueryEngine(
            MeLoPPRSolver(small_ba_graph), result_cache=probe_cache
        )
        probe_engine.solve_batch([PPRQuery(seed=0, k=20, length=6)])
        probe_engine.close()
        (entry,) = probe_cache._entries.values()
        budget = 2 * result_entry_nbytes(entry[0])

        cache = ScoreTableCache(max_bytes=budget)
        engine = QueryEngine(
            MeLoPPRSolver(small_ba_graph),
            cache=SubgraphCache(),
            result_cache=cache,
        )
        centers = list(range(0, small_ba_graph.num_nodes, 7))
        streams = [
            zipf_seeds(len(centers), OPS_PER_THREAD, rng=100 + index)
            for index in range(NUM_THREADS)
        ]

        def worker(index):
            for pick in streams[index]:
                query = PPRQuery(seed=centers[int(pick)], k=20, length=6)
                (result,) = engine.solve_batch([query])
                assert result.metadata["serving"]["result_cache"] in (
                    "answer",
                    "hit",
                    "miss",
                )

        try:
            run_threads(worker)
        finally:
            engine.close()

        cache.validate()
        stats = engine.stats()
        total_ops = NUM_THREADS * OPS_PER_THREAD
        # No under/over-count anywhere: every query consulted the cache
        # exactly once, and the engine accumulator saw every batch.
        assert stats.queries_served == total_ops
        assert stats.batches == total_ops
        rc = stats.result_cache
        assert rc.hits + rc.misses == rc.lookups == total_ops
        # The tiny budget must have forced real evictions (the stress point).
        assert rc.evictions > 0
        assert rc.current_bytes <= cache.max_bytes
        # The engine-level aggregate folds sub-graph + result counters; the
        # totals must reconcile exactly once the engine is quiesced.
        subgraph_stats = engine.cache.stats
        assert stats.cache.hits == subgraph_stats.hits + rc.hits
        assert stats.cache.misses == subgraph_stats.misses + rc.misses

    def test_direct_put_get_thrash_keeps_invariants(self, small_ba_graph):
        # Container-level storm: concurrent put/get/carry on shared states
        # with a budget of ~2 entries; each carry's reach drops one seed's
        # entry and keeps the binding.
        solver = MeLoPPRSolver(small_ba_graph)
        centers = list(range(0, small_ba_graph.num_nodes, 11))
        from repro.meloppr.planner import execute_stage_task
        from repro.serving import stage_one_cache_key

        entries = {}
        for center in centers:
            plan = solver.plan(PPRQuery(seed=center, k=20), track_memory=False)
            key = stage_one_cache_key(plan)
            plan.complete_stage(
                execute_stage_task(plan.graph, task, timing=plan.timing)
                for task in plan.pending_tasks
            )
            entries[center] = (key, plan.stage_one_state())
            plan.close()
        budget = 2 * max(
            result_entry_nbytes(state) for _, state in entries.values()
        )
        cache = ScoreTableCache(max_bytes=budget)
        lookups = [0] * NUM_THREADS
        reach = {}
        for center in centers:
            reach[center] = np.full(small_ba_graph.num_nodes, 99, dtype=np.int64)
            reach[center][center] = 0

        def worker(index):
            for step in range(OPS_PER_THREAD):
                center = centers[(index * 31 + step * 7) % len(centers)]
                key, state = entries[center]
                if step % 3 == 0:
                    cache.put(key, state, small_ba_graph)
                elif step % 7 == 0:
                    cache.carry(small_ba_graph, small_ba_graph, reach[center])
                else:
                    cache.get(key)
                    lookups[index] += 1

        run_threads(worker)
        cache.validate()
        stats = cache.stats
        assert stats.hits + stats.misses == sum(lookups)
        assert stats.current_bytes <= budget


class TestEngineStatsConcurrency:
    """solve_batch from many threads must never drop or double a counter."""

    def test_concurrent_batches_count_exactly(self, small_ba_graph):
        engine = QueryEngine(
            MeLoPPRSolver(small_ba_graph),
            cache=SubgraphCache(),
            result_cache=ScoreTableCache(),
        )
        batch = [PPRQuery(seed=seed, k=15, length=6) for seed in (3, 9, 3)]

        def worker(index):
            for _ in range(OPS_PER_THREAD // 4):
                engine.solve_batch(batch)

        try:
            run_threads(worker)
        finally:
            engine.close()
        stats = engine.stats()
        batches = NUM_THREADS * (OPS_PER_THREAD // 4)
        assert stats.batches == batches
        assert stats.queries_served == batches * len(batch)
        assert stats.latency.count == batches * len(batch)
        assert stats.result_cache.lookups == batches * len(batch)
