"""Unit tests for the cross-query stage-one result cache.

Covers the :class:`~repro.serving.result_cache.ScoreTableCache` container
semantics (byte-budgeted LRU, TTL expiry, explicit invalidation, byte
accounting), the planner's snapshot/resume pair, the score-table
snapshot round trip, and — the invalidation regressions — the guarantee
that a rebuilt or different graph can never be served a stale table
(structural fingerprints in the key).
"""

from __future__ import annotations

import pytest

from repro.graph.generators import barabasi_albert_graph
from repro.meloppr.aggregation import GlobalScoreTable
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.planner import MeLoPPRPlan, execute_plan, execute_stage_task
from repro.meloppr.selection import CountSelector, RatioSelector
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.serving import QueryEngine, ScoreTableCache, ShardRouter, stage_one_cache_key
from repro.graph.partition import partition_graph
from repro.serving.result_cache import _entry_nbytes


def make_state(graph, seed=3, k=20, length=6, config=None):
    """Run one query's stage one and return (plan key, captured state)."""
    solver = MeLoPPRSolver(graph, config)
    plan = solver.plan(PPRQuery(seed=seed, k=k, length=length), track_memory=False)
    key = stage_one_cache_key(plan)
    plan.complete_stage(
        execute_stage_task(plan.graph, task, timing=plan.timing)
        for task in plan.pending_tasks
    )
    state = plan.stage_one_state()
    plan.close()
    return key, state


class TestScoreTableCacheContainer:
    def test_put_get_round_trip(self, small_ba_graph):
        cache = ScoreTableCache()
        key, state = make_state(small_ba_graph)
        assert cache.get(key) is None
        assert cache.put(key, state)
        assert cache.get(key) is state
        assert key in cache
        assert len(cache) == 1
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 1
        assert stats.current_bytes == _entry_nbytes(state)

    def test_lru_eviction_under_byte_budget(self, small_ba_graph):
        states = [make_state(small_ba_graph, seed=seed) for seed in (1, 2, 3)]
        sizes = [_entry_nbytes(state) for _, state in states]
        # Budget fits the two largest entries but not all three.
        budget = max(sizes[0] + sizes[1], sizes[1] + sizes[2], sizes[0] + sizes[2])
        cache = ScoreTableCache(max_bytes=budget)
        for key, state in states:
            cache.put(key, state)
        cache.validate()
        stats = cache.stats
        assert stats.evictions >= 1
        assert stats.current_bytes <= budget
        # The most recently inserted entry must have survived.
        assert cache.get(states[-1][0]) is states[-1][1]

    def test_oversized_entry_rejected(self, small_ba_graph):
        key, state = make_state(small_ba_graph)
        cache = ScoreTableCache(max_bytes=_entry_nbytes(state) - 1)
        assert not cache.put(key, state)
        assert cache.stats.rejected == 1
        assert len(cache) == 0

    def test_reinsert_replaces_without_double_count(self, small_ba_graph):
        cache = ScoreTableCache()
        key, state = make_state(small_ba_graph)
        cache.put(key, state)
        cache.put(key, state)
        cache.validate()
        assert len(cache) == 1
        assert cache.stats.current_bytes == _entry_nbytes(state)

    def test_ttl_expiry_counts_as_miss(self, small_ba_graph):
        now = [0.0]
        cache = ScoreTableCache(ttl_seconds=10.0, clock=lambda: now[0])
        key, state = make_state(small_ba_graph)
        cache.put(key, state)
        now[0] = 5.0
        assert cache.get(key) is state
        now[0] = 15.1  # 10s past the insert
        assert cache.get(key) is None
        stats = cache.stats
        assert stats.expired == 1
        assert stats.misses == 1 and stats.hits == 1
        assert stats.num_entries == 0 and stats.current_bytes == 0
        cache.validate()

    def test_put_reclaims_expired_before_evicting_live(self, small_ba_graph):
        now = [0.0]
        states = [make_state(small_ba_graph, seed=seed) for seed in (1, 2, 3)]
        budget = 3 * max(_entry_nbytes(state) for _, state in states)
        cache = ScoreTableCache(max_bytes=budget, ttl_seconds=10.0, clock=lambda: now[0])
        cache.put(*states[0])
        now[0] = 11.0  # first entry is dead but unswept
        assert len(cache) == 1  # the dead bytes still sit in the budget
        cache.put(*states[1])  # ...until put() sweeps them
        cache.validate()
        stats = cache.stats
        # The dead entry was reclaimed as 'expired', not blamed on the budget.
        assert stats.expired == 1
        assert stats.evictions == 0
        assert stats.num_entries == 1
        assert cache.get(states[1][0]) is states[1][1]

    def test_explicit_invalidation(self, small_ba_graph):
        cache = ScoreTableCache()
        key, state = make_state(small_ba_graph)
        cache.put(key, state)
        assert cache.invalidate(key)
        assert not cache.invalidate(key)
        assert cache.get(key) is None
        # Invalidation is not an eviction — live state just shrank.
        assert cache.stats.evictions == 0
        cache.validate()

    def test_reset_stats_keeps_entries_like_subgraph_cache(self, small_ba_graph):
        cache = ScoreTableCache()
        key, state = make_state(small_ba_graph)
        cache.put(key, state)
        cache.get(key)
        cache.get(("missing",))
        cache.reset_stats()
        stats = cache.stats
        assert stats.hits == stats.misses == stats.evictions == 0
        assert stats.rejected == stats.expired == 0
        # Live state survives, exactly like SubgraphCache.reset_stats().
        assert stats.num_entries == 1
        assert stats.current_bytes == _entry_nbytes(state)
        assert cache.get(key) is state

    def test_clear_drops_entries_keeps_counters(self, small_ba_graph):
        cache = ScoreTableCache()
        key, state = make_state(small_ba_graph)
        cache.put(key, state)
        cache.get(key)
        cache.clear()
        stats = cache.stats
        assert stats.num_entries == 0 and stats.current_bytes == 0
        assert stats.hits == 1  # history survives, like SubgraphCache.clear()
        cache.validate()

    def test_validate_detects_corruption(self, small_ba_graph):
        cache = ScoreTableCache()
        key, state = make_state(small_ba_graph)
        cache.put(key, state)
        cache._current_bytes += 1  # simulate bookkeeping drift
        with pytest.raises(AssertionError):
            cache.validate()

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ScoreTableCache(max_bytes=0)
        with pytest.raises(ValueError):
            ScoreTableCache(ttl_seconds=0.0)

    def test_repr_mentions_budget_and_ttl(self, small_ba_graph):
        cache = ScoreTableCache(max_bytes=1 << 20, ttl_seconds=2.5)
        text = repr(cache)
        assert "1048576" in text and "2.5s" in text


class TestStageOneCacheKey:
    @pytest.fixture(scope="class")
    def graph(self):
        return barabasi_albert_graph(120, 2, rng=9, name="key-graph")

    def key_for(self, graph, **kwargs):
        config = kwargs.pop("config", None)
        solver = MeLoPPRSolver(graph, config)
        return stage_one_cache_key(
            solver.plan(PPRQuery(**kwargs), track_memory=False)
        )

    def test_same_query_same_key(self, graph):
        assert self.key_for(graph, seed=3, k=20) == self.key_for(graph, seed=3, k=20)

    def test_k_changes_the_key(self, graph):
        # Different k bounds the score table differently — folds diverge.
        assert self.key_for(graph, seed=3, k=20) != self.key_for(graph, seed=3, k=40)

    def test_alpha_length_and_seed_change_the_key(self, graph):
        base = self.key_for(graph, seed=3, k=20)
        assert self.key_for(graph, seed=4, k=20) != base
        assert self.key_for(graph, seed=3, k=20, alpha=0.9) != base
        assert self.key_for(graph, seed=3, k=20, length=4) != base

    def test_selector_changes_the_key(self, graph):
        ratio = MeLoPPRConfig(selector=RatioSelector(0.02), track_memory=False)
        count = MeLoPPRConfig(selector=CountSelector(4), track_memory=False)
        assert self.key_for(graph, config=ratio, seed=3, k=20) != self.key_for(
            graph, config=count, seed=3, k=20
        )

    def test_selector_parameters_change_the_key_without_custom_repr(self, graph):
        # Regression: a user selector subclass with knobs but no __repr__
        # override reprs as "Custom()" for every parameterisation — the key
        # must still tell the instances apart (it reads the instance dict).
        from repro.meloppr.selection import NextStageSelector

        class TopFraction(NextStageSelector):
            def __init__(self, fraction):
                self.fraction = fraction

            def select(self, nodes, residuals):
                ordered = self._order_by_residual(nodes, residuals)
                keep = max(1, int(len(ordered) * self.fraction))
                return ordered[:keep]

        narrow = MeLoPPRConfig(selector=TopFraction(0.01), track_memory=False)
        wide = MeLoPPRConfig(selector=TopFraction(0.5), track_memory=False)
        assert repr(narrow.selector) == repr(wide.selector)  # the trap
        assert self.key_for(graph, config=narrow, seed=3, k=20) != self.key_for(
            graph, config=wide, seed=3, k=20
        )
        # Equal parameters still share the key (reuse across rebuilt configs).
        twin = MeLoPPRConfig(selector=TopFraction(0.01), track_memory=False)
        assert self.key_for(graph, config=narrow, seed=3, k=20) == self.key_for(
            graph, config=twin, seed=3, k=20
        )

    def test_array_valued_selector_knobs_do_not_collide(self, graph):
        # numpy elides large arrays in repr, so two masks differing only in
        # the elided middle would repr identically — the key must digest the
        # raw bytes instead.
        import numpy as np

        from repro.meloppr.selection import NextStageSelector

        class MaskSelector(NextStageSelector):
            def __init__(self, mask):
                self.mask = mask

            def select(self, nodes, residuals):
                return self._order_by_residual(nodes, residuals)

        mask_a = np.zeros(5000)
        mask_b = np.zeros(5000)
        mask_b[2500] = 1.0  # elided from repr
        assert repr(mask_a) == repr(mask_b)  # the trap
        config_a = MeLoPPRConfig(selector=MaskSelector(mask_a), track_memory=False)
        config_b = MeLoPPRConfig(selector=MaskSelector(mask_b), track_memory=False)
        assert self.key_for(graph, config=config_a, seed=3, k=20) != self.key_for(
            graph, config=config_b, seed=3, k=20
        )

    def test_rebuilt_identical_graph_shares_the_key(self, graph):
        rebuilt = barabasi_albert_graph(120, 2, rng=9, name="rebuilt-elsewhere")
        assert graph.fingerprint() == rebuilt.fingerprint()
        assert self.key_for(graph, seed=3, k=20) == self.key_for(
            rebuilt, seed=3, k=20
        )

    def test_different_topology_changes_the_key(self, graph):
        other = barabasi_albert_graph(120, 2, rng=10, name="key-graph")
        assert graph.fingerprint() != other.fingerprint()
        assert self.key_for(graph, seed=3, k=20) != self.key_for(other, seed=3, k=20)


class TestScoreTableSnapshot:
    def test_round_trip_preserves_future_behaviour(self):
        table = GlobalScoreTable(capacity=4)
        for node, score in ((1, 0.5), (2, 0.25), (3, 0.125), (4, 0.4), (5, 0.3)):
            table.add(node, score)  # forces an eviction
        twin = GlobalScoreTable.from_snapshot(table.snapshot())
        assert twin.top_k(4) == table.top_k(4)
        assert twin.total_updates == table.total_updates
        assert twin.total_evictions == table.total_evictions
        # Identical subsequent folds produce identical tables.
        for target in (table, twin):
            target.add(6, 0.6)
            target.add(2, 0.01)
        assert twin.top_k(4) == table.top_k(4)
        assert dict(twin.to_sparse_vector().items()) == dict(
            table.to_sparse_vector().items()
        )

    def test_resurrecting_table_snapshot_keeps_evicted_ledger(self):
        table = GlobalScoreTable(capacity=2, evictions_are_final=False)
        table.add(1, 0.5)
        table.add(2, 0.4)
        table.add(3, 0.6)  # evicts node 2 into the ledger
        twin = GlobalScoreTable.from_snapshot(table.snapshot())
        # Re-adding enough mass resurrects node 2 with its ledger total
        # (0.4 + 0.5) in both tables — proof the ledger was restored.
        table.add(2, 0.5)
        twin.add(2, 0.5)
        assert twin.get(2) == table.get(2) == pytest.approx(0.9)


class TestPlanResume:
    @pytest.fixture(scope="class")
    def graph(self):
        return barabasi_albert_graph(150, 2, rng=4, name="resume-graph")

    def test_resumed_plan_is_bit_identical(self, graph):
        query = PPRQuery(seed=7, k=25, length=6)
        solver = MeLoPPRSolver(graph)
        reference = dict(solver.solve(query).scores.items())
        _, state = make_state(graph, seed=7, k=25, length=6)
        resumed = MeLoPPRPlan.from_stage_one_table(
            graph, solver.config, query, state, track_memory=False
        )
        assert resumed.resumed
        # Pending work is stage two only.
        assert all(task.stage_index == 1 for task in resumed.pending_tasks)
        result = execute_plan(resumed)
        assert dict(result.scores.items()) == reference
        # Stage-one records were restored, so the work ledger is complete.
        assert result.metadata["num_tasks"] == len(
            solver.solve(query).metadata["tasks"]
        )

    def test_single_stage_state_resumes_to_done(self, graph):
        query = PPRQuery(seed=5, k=10, length=1)  # collapses to one stage
        solver = MeLoPPRSolver(graph)
        reference = dict(solver.solve(query).scores.items())
        _, state = make_state(graph, seed=5, k=10, length=1)
        assert state.done
        resumed = MeLoPPRPlan.from_stage_one_table(
            graph, solver.config, query, state, track_memory=False
        )
        assert resumed.done
        assert dict(resumed.finish().scores.items()) == reference

    def test_state_mismatches_are_rejected(self, graph):
        config = MeLoPPRConfig(track_memory=False)
        _, state = make_state(graph, seed=7, k=25, length=6, config=config)
        with pytest.raises(ValueError, match="stage split"):
            MeLoPPRPlan.from_stage_one_table(
                graph, config, PPRQuery(seed=7, k=25, length=4), state
            )
        with pytest.raises(ValueError, match="alpha"):
            MeLoPPRPlan.from_stage_one_table(
                graph, config, PPRQuery(seed=7, k=25, length=6, alpha=0.7), state
            )
        with pytest.raises(ValueError, match="capacity"):
            MeLoPPRPlan.from_stage_one_table(
                graph, config, PPRQuery(seed=7, k=50, length=6), state
            )

    def test_snapshot_timing_is_enforced(self, graph):
        solver = MeLoPPRSolver(graph)
        plan = solver.plan(PPRQuery(seed=3, k=20), track_memory=False)
        with pytest.raises(RuntimeError, match="first stage"):
            plan.stage_one_state()  # nothing folded yet
        result_plan = solver.plan(PPRQuery(seed=3, k=20), track_memory=False)
        execute_plan(result_plan)
        with pytest.raises(RuntimeError, match="first stage"):
            result_plan.stage_one_state()  # both stages folded
        plan.close()

    def test_resumed_plan_refuses_to_snapshot(self, graph):
        solver = MeLoPPRSolver(graph)
        query = PPRQuery(seed=7, k=25, length=6)
        _, state = make_state(graph, seed=7, k=25, length=6)
        resumed = MeLoPPRPlan.from_stage_one_table(
            graph, solver.config, query, state, track_memory=False
        )
        with pytest.raises(RuntimeError, match="resumed"):
            resumed.stage_one_state()
        resumed.close()


class TestInvalidationRegressions:
    """A different graph fingerprint must never serve a stale table."""

    def test_rebuilt_different_graph_never_hits(self):
        first = barabasi_albert_graph(150, 2, rng=4, name="host")
        # Same name, same size, different topology — the dangerous rebuild.
        second = barabasi_albert_graph(150, 2, rng=5, name="host")
        shared = ScoreTableCache()
        query = PPRQuery(seed=9, k=20, length=6)
        with QueryEngine(MeLoPPRSolver(first), result_cache=shared) as engine:
            engine.solve_batch([query, query])
        assert shared.stats.hits == 1
        reference = dict(MeLoPPRSolver(second).solve(query).scores.items())
        with QueryEngine(MeLoPPRSolver(second), result_cache=shared) as engine:
            (result,) = engine.solve_batch([query])
        # The rebuilt graph missed (fresh fingerprint) and got its own answer.
        assert shared.stats.hits == 1
        assert shared.stats.misses >= 2
        assert dict(result.scores.items()) == reference

    def test_repartitioned_router_never_serves_stale(self, small_ba_graph):
        query = PPRQuery(seed=11, k=20, length=6)
        reference = dict(MeLoPPRSolver(small_ba_graph).solve(query).scores.items())
        partition = partition_graph(small_ba_graph, 3, strategy="hash", halo_depth=3)
        router = ShardRouter(partition, result_cache_bytes=1 << 20)
        with QueryEngine(MeLoPPRSolver(small_ba_graph), router=router) as engine:
            engine.solve_batch([query, query])
            stats = engine.stats()
        assert stats.result_cache.hits == 1
        # Repartitioning rebuilds the router; the graph (and its fingerprint)
        # are unchanged, so the *new* router's cold caches simply miss, and
        # clearing the old router's result caches is the explicit path.
        router.clear_result_caches()
        assert all(
            router.result_cache_for(seed).stats.num_entries == 0
            for seed in range(small_ba_graph.num_nodes)
        )
        repartition = partition_graph(
            small_ba_graph, 4, strategy="degree", halo_depth=3
        )
        rerouter = ShardRouter(repartition, result_cache_bytes=1 << 20)
        with QueryEngine(MeLoPPRSolver(small_ba_graph), router=rerouter) as engine:
            (result,) = engine.solve_batch([query])
            stats = engine.stats()
        assert stats.result_cache.hits == 0
        assert dict(result.scores.items()) == reference

    def test_engine_rejects_result_cache_with_router(self, small_ba_graph):
        partition = partition_graph(small_ba_graph, 2, strategy="hash", halo_depth=3)
        router = ShardRouter(partition)
        with pytest.raises(ValueError, match="result_cache"):
            QueryEngine(
                MeLoPPRSolver(small_ba_graph),
                router=router,
                result_cache=ScoreTableCache(),
            )


class FakeClock:
    """Injected monotonic clock for deterministic TTL tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTTLBudgetPinning:
    """Expired entries must free their bytes on every probe path.

    Regression: ``__contains__`` used to answer ``False`` for a TTL-expired
    entry while leaving it (and its bytes) in the table, and ``put``/
    ``resize`` evicted *live* LRU entries under budget pressure while dead
    ones kept pinning the budget.
    """

    def test_contains_frees_expired_bytes(self, small_ba_graph):
        clock = FakeClock()
        cache = ScoreTableCache(ttl_seconds=10.0, clock=clock)
        key, state = make_state(small_ba_graph)
        cache.put(key, state)
        assert key in cache
        assert cache.stats.current_bytes == _entry_nbytes(state)
        clock.advance(10.0)
        assert key not in cache
        stats = cache.stats
        assert stats.current_bytes == 0
        assert len(cache) == 0
        assert stats.expired == 1
        # Membership probes are not lookups: hit/miss counters untouched.
        assert stats.hits == 0 and stats.misses == 0
        cache.validate()

    def test_put_sweeps_expired_before_evicting_live(self, small_ba_graph):
        clock = FakeClock()
        states = [make_state(small_ba_graph, seed=seed) for seed in (1, 2, 3)]
        budget = sum(_entry_nbytes(state) for _, state in states)
        cache = ScoreTableCache(max_bytes=budget, ttl_seconds=5.0, clock=clock)
        for key, state in states[:2]:
            cache.put(key, state)
        clock.advance(5.0)  # both stored entries are now dead
        assert cache.put(*states[2])
        stats = cache.stats
        # The dead bytes were reclaimed as expiry, never as eviction.
        assert stats.expired == 2
        assert stats.evictions == 0
        assert len(cache) == 1
        assert stats.current_bytes == _entry_nbytes(states[2][1])
        assert cache.get(states[2][0]) is states[2][1]
        cache.validate()

    def test_resize_sweeps_expired_before_evicting_live(self, small_ba_graph):
        clock = FakeClock()
        old_key, old_state = make_state(small_ba_graph, seed=1)
        live_key, live_state = make_state(small_ba_graph, seed=2)
        cache = ScoreTableCache(ttl_seconds=5.0, clock=clock)
        cache.put(old_key, old_state)
        clock.advance(5.0)
        cache.put(live_key, live_state)
        # Shrink to exactly the live entry: the dead entry's bytes must not
        # force the live one out.
        assert cache.resize(_entry_nbytes(live_state)) == 0
        stats = cache.stats
        assert stats.expired == 1
        assert stats.evictions == 0
        assert cache.get(live_key) is live_state
        cache.validate()

    def test_get_expired_is_miss_and_frees(self, small_ba_graph):
        clock = FakeClock()
        cache = ScoreTableCache(ttl_seconds=2.0, clock=clock)
        key, state = make_state(small_ba_graph)
        cache.put(key, state)
        clock.advance(2.0)
        assert cache.get(key) is None
        stats = cache.stats
        assert stats.expired == 1 and stats.misses == 1
        assert stats.current_bytes == 0
        cache.validate()


class TestApplyUpdateMigration:
    """Surgical cross-topology migration: drop in-reach, rekey the rest."""

    def setup_entries(self, graph, seeds=(1, 2, 3)):
        cache = ScoreTableCache()
        keys = {}
        for seed in seeds:
            key, state = make_state(graph, seed=seed)
            assert cache.put(key, state)
            keys[seed] = (key, state)
        return cache, keys

    def test_drop_in_reach_rekey_the_rest(self, small_ba_graph):
        import numpy as np

        cache, keys = self.setup_entries(small_ba_graph)
        old_fp = small_ba_graph.fingerprint()
        stage_one = int(keys[1][0][1][0])
        # Seed 2 is within its stage-one reach of the update; 1 and 3 are not.
        distances = np.full(
            small_ba_graph.num_nodes, stage_one + 1, dtype=np.int64
        )
        distances[2] = stage_one
        # (dropped, re-keyed, answers kept, answers stripped): none attached.
        assert cache.apply_update(old_fp, "newfp", distances) == (1, 2, 0, 0)
        assert len(cache) == 2
        # Dropped entries are invalidations, not evictions.
        assert cache.stats.evictions == 0
        # Survivors answer under the new fingerprint, never the old one.
        for seed in (1, 3):
            old_key, state = keys[seed]
            assert old_key not in cache
            assert cache.get(old_key[:-1] + ("newfp",)) is state
        assert keys[2][0] not in cache
        cache.validate()

    def test_rekey_preserves_lru_order(self, small_ba_graph):
        import numpy as np

        cache, keys = self.setup_entries(small_ba_graph)
        budget = cache.stats.current_bytes
        old_fp = small_ba_graph.fingerprint()
        distances = np.full(small_ba_graph.num_nodes, 99, dtype=np.int64)
        assert cache.apply_update(old_fp, "newfp", distances) == (0, 3, 0, 0)
        assert cache.stats.current_bytes == budget
        # Shrinking to two entries must evict the *least recent* survivor
        # (seed 1): rekeying preserved insertion/recency order.
        cache.resize(budget - 1)
        assert keys[1][0][:-1] + ("newfp",) not in cache
        assert keys[2][0][:-1] + ("newfp",) in cache
        assert keys[3][0][:-1] + ("newfp",) in cache
        cache.validate()

    def test_foreign_fingerprints_untouched(self, small_ba_graph):
        import numpy as np

        other = barabasi_albert_graph(
            small_ba_graph.num_nodes, 2, rng=99, name="other"
        )
        cache = ScoreTableCache()
        host_key, host_state = make_state(small_ba_graph, seed=4)
        other_key, other_state = make_state(other, seed=4)
        cache.put(host_key, host_state)
        cache.put(other_key, other_state)
        distances = np.zeros(small_ba_graph.num_nodes, dtype=np.int64)
        counts = cache.apply_update(small_ba_graph.fingerprint(), "newfp", distances)
        # The host entry is in reach (distance 0) and drops; the other
        # graph's entry carries a different fingerprint and is left alone.
        assert counts == (1, 0, 0, 0)
        assert cache.get(other_key) is other_state
        cache.validate()
