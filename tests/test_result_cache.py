"""Unit tests for the cross-query stage-one result cache.

Covers the :class:`~repro.serving.result_cache.ScoreTableCache` container
semantics (byte-budgeted LRU, TTL expiry, byte accounting), the planner's snapshot/resume pair, the score-table
snapshot round trip, and — the invalidation regressions — the guarantee
that a rebuilt or different graph can never be served a stale table
(binding a cache to a different topology clears it).
"""

from __future__ import annotations

import pytest

from repro.graph.generators import barabasi_albert_graph
from repro.meloppr.aggregation import GlobalScoreTable
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.planner import MeLoPPRPlan, execute_plan, execute_stage_task
from repro.meloppr.selection import AllSelector, CountSelector, RatioSelector
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.serving import QueryEngine, ScoreTableCache, stage_one_cache_key
from repro.serving.backends import make_backend
from repro.serving.tracing import Tracer
from repro.serving.result_cache import _entry_nbytes, stage_one_key


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
        assert cache.put(key, state, small_ba_graph)
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
            cache.put(key, state, small_ba_graph)
        cache.validate()
        stats = cache.stats
        assert stats.evictions >= 1
        assert stats.current_bytes <= budget
        # The most recently inserted entry must have survived.
        assert cache.get(states[-1][0]) is states[-1][1]

    def test_oversized_entry_rejected(self, small_ba_graph):
        key, state = make_state(small_ba_graph)
        cache = ScoreTableCache(max_bytes=_entry_nbytes(state) - 1)
        assert not cache.put(key, state, small_ba_graph)
        assert cache.stats.rejected == 1
        assert len(cache) == 0

    def test_reinsert_replaces_without_double_count(self, small_ba_graph):
        cache = ScoreTableCache()
        key, state = make_state(small_ba_graph)
        cache.put(key, state, small_ba_graph)
        cache.put(key, state, small_ba_graph)
        cache.validate()
        assert len(cache) == 1
        assert cache.stats.current_bytes == _entry_nbytes(state)

    def test_ttl_expiry_counts_as_miss(self, small_ba_graph):
        now = [0.0]
        cache = ScoreTableCache(ttl_seconds=10.0, clock=lambda: now[0])
        key, state = make_state(small_ba_graph)
        cache.put(key, state, small_ba_graph)
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
        cache.put(*states[0], small_ba_graph)
        now[0] = 11.0  # first entry is dead but unswept
        assert len(cache) == 1  # the dead bytes still sit in the budget
        cache.put(*states[1], small_ba_graph)  # ...until put() sweeps them
        cache.validate()
        stats = cache.stats
        # The dead entry was reclaimed as 'expired', not blamed on the budget.
        assert stats.expired == 1
        assert stats.evictions == 0
        assert stats.num_entries == 1
        assert cache.get(states[1][0]) is states[1][1]

    def test_stats_snapshot_stays_put_and_keeps_live_state(self, small_ba_graph):
        cache = ScoreTableCache()
        key, state = make_state(small_ba_graph)
        cache.put(key, state, small_ba_graph)
        cache.get(key)
        first = cache.stats
        cache.get(key)
        cache.get(("missing",))
        # A snapshot is a copy, like SubgraphCache.stats: later lookups
        # do not move it, and the interval is the difference of two.
        assert (first.hits, first.misses) == (1, 0)
        interval = cache.stats - first
        assert (interval.hits, interval.misses) == (1, 1)
        assert interval.evictions == interval.rejected == interval.expired == 0
        stats = cache.stats
        assert stats.num_entries == 1
        assert stats.current_bytes == _entry_nbytes(state)
        assert cache.get(key) is state

    def test_validate_detects_corruption(self, small_ba_graph):
        cache = ScoreTableCache()
        key, state = make_state(small_ba_graph)
        cache.put(key, state, small_ba_graph)
        cache._current_bytes += 1  # simulate bookkeeping drift
        with pytest.raises(AssertionError):
            cache.validate()

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ScoreTableCache(max_bytes=0)

    @pytest.mark.parametrize(
        "ttl", [0.0, -1.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_ttl_must_be_finite_and_positive(self, ttl):
        # A NaN TTL never expires an entry; an infinite one means "no TTL",
        # which is spelled ttl_seconds=None.
        with pytest.raises(ValueError, match="ttl_seconds"):
            ScoreTableCache(ttl_seconds=ttl)


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

    def test_every_selector_parameter_changes_the_key(self, graph):
        # The key holds a built-in selector's repr, which names every
        # parameter exactly: each variant keys apart, equal ones share.
        selectors = [
            RatioSelector(0.02),
            RatioSelector(0.02, minimum=2),
            RatioSelector(0.020000000000000004),
            RatioSelector(0.1),
            CountSelector(4),
            CountSelector(5),
            AllSelector(),
        ]
        configs = [MeLoPPRConfig(selector=selector, track_memory=False) for selector in selectors]
        keys = [self.key_for(graph, config=config, seed=3, k=20) for config in configs]
        assert len(set(keys)) == len(selectors)
        twin = MeLoPPRConfig(selector=RatioSelector(0.02, minimum=2), track_memory=False)
        assert self.key_for(graph, config=twin, seed=3, k=20) == keys[1]

    def test_rebuilt_identical_graph_shares_the_key(self, graph):
        rebuilt = barabasi_albert_graph(120, 2, rng=9, name="rebuilt-elsewhere")
        assert graph.fingerprint() == rebuilt.fingerprint()
        assert self.key_for(graph, seed=3, k=20) == self.key_for(
            rebuilt, seed=3, k=20
        )

    def test_binding_to_a_different_topology_clears(self, graph):
        other = barabasi_albert_graph(120, 2, rng=10, name="key-graph")
        assert graph.fingerprint() != other.fingerprint()
        cache = ScoreTableCache()
        cache.bind(graph)
        key, state = make_state(graph)
        assert cache.put(key, state, graph)
        # The same topology, rebuilt: the entry stays.
        cache.bind(barabasi_albert_graph(120, 2, rng=9, name="rebuilt"))
        assert cache.get(key) is state
        cache.bind(other)
        assert len(cache) == 0 and cache.graph is other
        assert cache.get(key) is None
        cache.validate()


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


class TestOutcomeMetadata:
    def test_metadata_reports_hits_and_misses(self):
        graph = barabasi_albert_graph(160, 2, rng=13, name="rc-grid")
        hot = PPRQuery(seed=3, k=25, length=6)
        with QueryEngine(
            MeLoPPRSolver(graph), result_cache=ScoreTableCache()
        ) as engine:
            cold, warm = engine.solve_batch([hot, hot])
            # An update out of reach of every task keeps the answer ...
            far = [99] * graph.num_nodes
            assert engine.result_cache.carry(graph, graph, far) == (0, 1, 1, 0)
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
            assert engine.result_cache.carry(graph, graph, near) == (0, 1, 0, 1)
            (resumed,) = engine.solve_batch([hot])
        assert cold.metadata["serving"]["result_cache"] == "miss"
        assert warm.metadata["serving"]["result_cache"] == "answer"
        assert kept.metadata["serving"]["result_cache"] == "answer"
        assert resumed.metadata["serving"]["result_cache"] == "hit"
        assert kept.scores is cold.scores
        assert warm.scores is cold.scores
        assert dict(resumed.scores.items()) == dict(cold.scores.items())


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

    def test_engine_bypasses_a_cache_bound_to_another_graph(self):
        # Keys carry no graph identity: once a second engine binds the shared
        # cache to its topology, the first must stop using it, never serve
        # the second graph's answer.
        first = barabasi_albert_graph(150, 2, rng=4, name="host")
        second = barabasi_albert_graph(150, 2, rng=5, name="host")
        shared = ScoreTableCache()
        query = PPRQuery(seed=9, k=20, length=6)
        with QueryEngine(MeLoPPRSolver(first), result_cache=shared) as stale:
            with QueryEngine(MeLoPPRSolver(second), result_cache=shared) as fresh:
                fresh.solve_batch([query, query])
            assert stale.try_cached(query) is None
            (result,) = stale.solve_batch([query])
        assert result.metadata["serving"]["result_cache"] is None
        reference = MeLoPPRSolver(first).solve(query)
        assert dict(result.scores.items()) == dict(reference.scores.items())

    def test_update_leaves_a_cache_bound_to_another_graph_alone(self):
        # The second engine bound the shared cache last.  An update on the
        # first must neither count nor touch its entries nor move the binding:
        # the first engine keeps bypassing it, the second keeps hitting it.
        first = barabasi_albert_graph(150, 2, rng=4, name="host")
        second = barabasi_albert_graph(150, 2, rng=5, name="host")
        shared = ScoreTableCache()
        query = PPRQuery(seed=9, k=20, length=6)
        with QueryEngine(MeLoPPRSolver(first), result_cache=shared) as stale:
            with QueryEngine(MeLoPPRSolver(second), result_cache=shared) as fresh:
                fresh.solve_batch([query, query])
                entries = len(shared)
                edge = ("delete", 9, int(first.neighbors(9)[0]))
                outcome = stale.apply_update([edge])
                assert outcome["radius"] == 0
                assert set(outcome["invalidated"].values()) == {0}
                assert len(shared) == entries
                assert shared.graph is fresh.solver.graph
                assert stale.try_cached(query) is None
                (result,) = stale.solve_batch([query])
                (again,) = fresh.solve_batch([query])
            updated = stale.solver.graph
        assert result.metadata["serving"]["result_cache"] is None
        assert again.metadata["serving"]["result_cache"] == "answer"
        reference = MeLoPPRSolver(updated).solve(query)
        assert dict(result.scores.items()) == dict(reference.scores.items())


    def test_an_insert_names_its_graph(self, small_ba_graph):
        # A state or answer computed on a graph the cache is no longer bound
        # to is refused; one computed on its own graph is kept.
        other = barabasi_albert_graph(small_ba_graph.num_nodes, 2, rng=99, name="other")
        key, state = make_state(small_ba_graph)
        answer = MeLoPPRSolver(small_ba_graph).solve(PPRQuery(seed=3, k=20, length=6))
        cache = ScoreTableCache()
        cache.bind(small_ba_graph)
        assert not cache.put(key, state, other)
        assert len(cache) == 0 and cache.stats.rejected == 0
        assert cache.put(key, state, small_ba_graph)
        assert not cache.attach_answer(key, answer, other)
        assert cache.lookup(key, answer.query, small_ba_graph) == (state, None)
        assert cache.attach_answer(key, answer, small_ba_graph)
        assert cache.lookup(key, answer.query, small_ba_graph) == (state, answer)
        cache.validate()

    def test_a_read_names_its_graph(self, small_ba_graph):
        # For another graph a read finds nothing and touches nothing: no
        # counter, no recency, no TTL sweep.
        other = barabasi_albert_graph(small_ba_graph.num_nodes, 2, rng=99, name="other")
        clock = FakeClock()
        cache = ScoreTableCache(ttl_seconds=10.0, clock=clock)
        (first, state), (second, bare) = (make_state(small_ba_graph, seed=s) for s in (3, 5))
        answer = MeLoPPRSolver(small_ba_graph).solve(PPRQuery(seed=3, k=20, length=6))
        assert cache.put(first, state, small_ba_graph)
        assert cache.attach_answer(first, answer, small_ba_graph)
        assert cache.put(second, bare, small_ba_graph)
        before, order = cache.stats, list(cache._entries)
        clock.advance(11.0)
        assert cache.lookup(first, answer.query, other) is None
        assert cache.peek_answer(first, answer.query, other) is None
        assert cache.stats == before and list(cache._entries) == order
        # On its own graph the same reads find the entry expired.
        assert cache.peek_answer(first, answer.query, small_ba_graph) is None
        assert cache.lookup(second, answer.query, small_ba_graph) == (None, None)
        assert cache.stats.expired == 2 and len(cache) == 0
        cache.validate()

    def test_radius_names_its_graph(self, small_ba_graph):
        other = barabasi_albert_graph(small_ba_graph.num_nodes, 2, rng=99, name="other")
        key, state = make_state(small_ba_graph)
        cache = ScoreTableCache()
        assert cache.put(key, state, small_ba_graph)
        assert cache.radius(small_ba_graph) == key[1][0]
        assert cache.radius(other) == 0
        assert cache.graph is small_ba_graph

    def test_a_traced_query_bypassing_another_graphs_cache_reports_no_outcome(self):
        first = barabasi_albert_graph(150, 2, rng=4, name="host")
        second = barabasi_albert_graph(150, 2, rng=5, name="host")
        shared = ScoreTableCache()
        query = PPRQuery(seed=9, k=20, length=6)
        tracer = Tracer(sample_rate=1.0)
        with QueryEngine(MeLoPPRSolver(first), result_cache=shared, tracer=tracer) as stale:
            with QueryEngine(MeLoPPRSolver(second), result_cache=shared) as fresh:
                fresh.solve_batch([query])
            entries, stats = len(shared), shared.stats
            ctx = tracer.start_trace("request")
            (result,) = stale.solve_batch([query], [ctx])
            ctx.finish()
        assert result.metadata["serving"]["result_cache"] is None
        (span,) = [s for s in tracer.traces()[0]["spans"] if s["name"] == "engine.result_cache"]
        assert span["attributes"]["outcome"] is None
        # Nothing was counted, and nothing of the first graph was inserted.
        assert len(shared) == entries and shared.stats == stats

    def test_an_update_between_lookup_and_put_keeps_no_stale_state(self, monkeypatch):
        # Two engines on one graph share the cache.  B's update waits only
        # for B's batches, so it can land while A's query is between its
        # lookup and its put: what A folded on the old graph must not be kept
        # under the new binding, where B would replay it as its answer.
        graph = barabasi_albert_graph(150, 2, rng=4, name="host")
        shared = ScoreTableCache()
        query = PPRQuery(seed=9, k=20, length=6)
        edge = ("delete", 9, int(graph.neighbors(9)[0]))
        snapshot = MeLoPPRPlan.stage_one_state
        with QueryEngine(MeLoPPRSolver(graph), result_cache=shared) as first, QueryEngine(
            MeLoPPRSolver(graph), result_cache=shared
        ) as second:

            def update_first(plan):
                monkeypatch.setattr(MeLoPPRPlan, "stage_one_state", snapshot)
                second.apply_update([edge])
                return snapshot(plan)

            monkeypatch.setattr(MeLoPPRPlan, "stage_one_state", update_first)
            first.solve_batch([query])
            assert len(shared) == 0 and shared.graph is second.solver.graph
            (served,) = second.solve_batch([query])
            updated = second.solver.graph
        assert served.metadata["serving"]["result_cache"] == "miss"
        reference = MeLoPPRSolver(updated).solve(query)
        assert dict(served.scores.items()) == dict(reference.scores.items())

    def interleave_before(self, monkeypatch, method, second, edge, query):
        """Wrap ``ScoreTableCache.<method>`` so that its next call first
        runs ``second``'s update of ``edge`` and one ``second`` query, then
        reads: the read lands after the other engine moved the binding."""
        read = getattr(ScoreTableCache, method)

        def update_first(cache, *args):
            monkeypatch.setattr(ScoreTableCache, method, read)
            second.apply_update([edge])
            second.solve_batch([query])
            return read(cache, *args)

        monkeypatch.setattr(ScoreTableCache, method, update_first)

    @pytest.mark.parametrize("backend", ["serial", "thread:2"])
    def test_an_update_before_the_lookup_serves_no_stale_answer(self, monkeypatch, backend):
        # Two engines on one graph share the cache.  B's update (and a B
        # query, which attaches B's answer on the updated graph) can land
        # just before A's lookup: A must answer on its own graph, not replay
        # B's answer.
        graph = barabasi_albert_graph(150, 2, rng=4, name="host")
        shared = ScoreTableCache()
        query = PPRQuery(seed=9, k=20, length=6)
        edge = ("delete", 9, int(graph.neighbors(9)[0]))
        with QueryEngine(
            MeLoPPRSolver(graph), backend=make_backend(backend), result_cache=shared
        ) as first, QueryEngine(MeLoPPRSolver(graph), result_cache=shared) as second:
            self.interleave_before(monkeypatch, "lookup", second, edge, query)
            (result,) = first.solve_batch([query])
            assert shared.graph is second.solver.graph
        assert result.metadata["serving"]["result_cache"] is None
        reference = MeLoPPRSolver(graph).solve(query)
        assert dict(result.scores.items()) == dict(reference.scores.items())

    def test_an_update_before_try_cached_serves_no_stale_answer(self, monkeypatch):
        # The same interleaving on the non-blocking door: A's peek must not
        # hand out the answer B attached on the updated graph.
        graph = barabasi_albert_graph(150, 2, rng=4, name="host")
        shared = ScoreTableCache()
        query = PPRQuery(seed=9, k=20, length=6)
        edge = ("delete", 9, int(graph.neighbors(9)[0]))
        with QueryEngine(MeLoPPRSolver(graph), result_cache=shared) as first, QueryEngine(
            MeLoPPRSolver(graph), result_cache=shared
        ) as second:
            self.interleave_before(monkeypatch, "peek_answer", second, edge, query)
            assert first.try_cached(query) is None
            key = stage_one_key(query, second.solver.config)
            assert shared.peek_answer(key, query, second.solver.graph) is not None


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
        cache.put(key, state, small_ba_graph)
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
            cache.put(key, state, small_ba_graph)
        clock.advance(5.0)  # both stored entries are now dead
        assert cache.put(*states[2], small_ba_graph)
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
        cache.put(old_key, old_state, small_ba_graph)
        clock.advance(5.0)
        cache.put(live_key, live_state, small_ba_graph)
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
        cache.put(key, state, small_ba_graph)
        clock.advance(2.0)
        assert cache.get(key) is None
        stats = cache.stats
        assert stats.expired == 1 and stats.misses == 1
        assert stats.current_bytes == 0
        cache.validate()


class TestApplyUpdateMigration:
    """Surgical cross-topology migration: drop in-reach, carry the rest."""

    def setup_entries(self, graph, seeds=(1, 2, 3)):
        cache = ScoreTableCache()
        keys = {}
        for seed in seeds:
            key, state = make_state(graph, seed=seed)
            assert cache.put(key, state, graph)
            keys[seed] = (key, state)
        return cache, keys

    def test_drop_in_reach_rekey_the_rest(self, small_ba_graph):
        import numpy as np

        cache, keys = self.setup_entries(small_ba_graph)
        stage_one = int(keys[1][0][1][0])
        # Seed 2 is within its stage-one reach of the update; 1 and 3 are not.
        distances = np.full(
            small_ba_graph.num_nodes, stage_one + 1, dtype=np.int64
        )
        distances[2] = stage_one
        # (dropped, carried, answers kept, answers stripped): none attached.
        assert cache.carry(small_ba_graph, small_ba_graph, distances) == (1, 2, 0, 0)
        assert len(cache) == 2
        # Dropped entries are invalidations, not evictions.
        assert cache.stats.evictions == 0
        # Survivors answer under their unchanged keys.
        for seed in (1, 3):
            key, state = keys[seed]
            assert cache.get(key) is state
        assert keys[2][0] not in cache
        cache.validate()

    def test_rekey_preserves_lru_order(self, small_ba_graph):
        import numpy as np

        cache, keys = self.setup_entries(small_ba_graph)
        budget = cache.stats.current_bytes
        distances = np.full(small_ba_graph.num_nodes, 99, dtype=np.int64)
        assert cache.carry(small_ba_graph, small_ba_graph, distances) == (0, 3, 0, 0)
        assert cache.stats.current_bytes == budget
        # Shrinking to two entries must evict the *least recent* survivor
        # (seed 1): the update preserved insertion/recency order.
        cache.resize(budget - 1)
        assert keys[1][0] not in cache
        assert keys[2][0] in cache
        assert keys[3][0] in cache
        cache.validate()

    def test_binding_to_a_foreign_graph_clears(self, small_ba_graph):
        other = barabasi_albert_graph(
            small_ba_graph.num_nodes, 2, rng=99, name="other"
        )
        import numpy as np

        cache, keys = self.setup_entries(small_ba_graph)
        cache.bind(small_ba_graph)
        # Carrying across an update out of every entry's reach keeps
        # everything; binding to a foreign topology (a reload) drops
        # everything, counters kept.
        far = np.full(small_ba_graph.num_nodes, 99, dtype=np.int64)
        assert cache.carry(small_ba_graph, other, far) == (0, 3, 0, 0)
        assert len(cache) == 3 and cache.graph is other
        cache.bind(small_ba_graph)
        assert len(cache) == 0 and cache.stats.current_bytes == 0
        assert all(cache.get(key) is None for key, _ in keys.values())
        cache.validate()
