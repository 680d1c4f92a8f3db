"""Tests for the transport-agnostic live ops: hot reload and its plumbing.

:func:`apply_reload` is the single validation/application path behind both
``POST /admin/reload`` and the TCP ``reload`` op; these tests pin its
all-or-nothing contract and the live-object plumbing it relies on
(``AdmissionController.set_max_pending``, ``MicroBatcher.set_policy``,
cache ``resize``).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.serving import QueryEngine, SubgraphCache, Tracer
from repro.serving.frontend import (
    AdmissionController,
    BatchPolicy,
    MicroBatcher,
    RELOADABLE_KEYS,
    apply_reload,
    frontend_config,
)
from repro.serving.result_cache import ScoreTableCache


@pytest.fixture()
def config():
    return MeLoPPRConfig(stage_lengths=(3, 3), track_memory=False)


def make_batcher(small_ba_graph, config, **engine_kwargs):
    engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config), **engine_kwargs)
    return MicroBatcher(
        engine,
        BatchPolicy(max_batch_size=4),
        AdmissionController(max_pending=16),
    )


class TestApplyReload:
    def test_full_reload(self, small_ba_graph, config):
        batcher = make_batcher(
            small_ba_graph, config,
            cache=SubgraphCache(), result_cache=ScoreTableCache(),
            tracer=Tracer(sample_rate=0.5),
        )
        with batcher.engine:
            outcome = apply_reload(
                batcher,
                {
                    "max_pending": 64,
                    "max_batch_size": 32,
                    "dedup": False,
                    "cache_bytes": 5_000_000,
                    "result_cache_bytes": 2_000_000,
                    "trace_sample": 0.25,
                },
            )
            assert sorted(outcome["applied"]) == sorted(RELOADABLE_KEYS)
            assert batcher.admission.max_pending == 64
            assert batcher.policy.max_batch_size == 32
            assert batcher.policy.dedup is False
            assert batcher.engine.cache.max_bytes == 5_000_000
            assert batcher.engine.result_cache.max_bytes == 2_000_000
            assert batcher.engine.tracer.sample_rate == 0.25
            assert outcome["config"] == frontend_config(batcher)
            assert outcome["config"]["cache_bytes"] == 5_000_000
            assert outcome["config"]["trace_sample"] == 0.25

    def test_empty_reload_is_a_no_op(self, small_ba_graph, config):
        batcher = make_batcher(small_ba_graph, config)
        with batcher.engine:
            before = frontend_config(batcher)
            outcome = apply_reload(batcher, {})
            assert outcome["applied"] == []
            assert outcome["evicted"] == {}
            assert frontend_config(batcher) == before

    @pytest.mark.parametrize("unknown", [{"turbo": True}, {"max_wait_ms": 1.0}])
    def test_unknown_key_rejected_with_catalogue(
        self, small_ba_graph, config, unknown
    ):
        batcher = make_batcher(small_ba_graph, config)
        with batcher.engine:
            before = frontend_config(batcher)
            with pytest.raises(ValueError, match="unknown reload key"):
                apply_reload(batcher, {"max_pending": 8, **unknown})
            assert frontend_config(batcher) == before

    def test_non_dict_config_rejected(self, small_ba_graph, config):
        batcher = make_batcher(small_ba_graph, config)
        with batcher.engine:
            with pytest.raises(ValueError, match="object"):
                apply_reload(batcher, [1, 2, 3])

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"max_pending": 0}, "max_pending"),
            ({"max_pending": True}, "max_pending"),
            ({"max_pending": 2.5}, "max_pending"),
            ({"max_batch_size": -1}, "max_batch_size"),
            ({"dedup": 1}, "dedup"),
            ({"cache_bytes": 0}, "cache_bytes"),
            ({"result_cache_bytes": -1}, "result_cache_bytes"),
            ({"trace_sample": -0.1}, "trace_sample"),
            ({"trace_sample": 1.5}, "trace_sample"),
            ({"trace_sample": "often"}, "trace_sample"),
            ({"trace_sample": True}, "trace_sample"),
        ],
    )
    def test_invalid_values_rejected(
        self, small_ba_graph, config, overrides, fragment
    ):
        batcher = make_batcher(
            small_ba_graph, config,
            cache=SubgraphCache(), result_cache=ScoreTableCache(),
            tracer=Tracer(sample_rate=0.5),
        )
        with batcher.engine:
            with pytest.raises(ValueError, match=fragment):
                apply_reload(batcher, overrides)

    def test_all_or_nothing(self, small_ba_graph, config):
        """One bad field means not even the good fields apply."""
        batcher = make_batcher(small_ba_graph, config)
        with batcher.engine:
            before = frontend_config(batcher)
            with pytest.raises(ValueError):
                apply_reload(
                    batcher, {"max_pending": 99, "max_batch_size": -1}
                )
            assert frontend_config(batcher) == before

    def test_resizing_absent_caches_is_an_error(self, small_ba_graph, config):
        batcher = make_batcher(small_ba_graph, config)  # no caches
        with batcher.engine:
            with pytest.raises(ValueError, match="no sub-graph cache"):
                apply_reload(batcher, {"cache_bytes": 1 << 20})
            with pytest.raises(ValueError, match="no stage-one result"):
                apply_reload(batcher, {"result_cache_bytes": 1 << 20})

    def test_trace_sample_without_tracer_is_an_error(
        self, small_ba_graph, config
    ):
        batcher = make_batcher(small_ba_graph, config)  # no tracer
        with batcher.engine:
            with pytest.raises(ValueError, match="no tracer"):
                apply_reload(batcher, {"trace_sample": 0.5})

    def test_shrink_evicts_and_reports_counts(self, small_ba_graph, config):
        batcher = make_batcher(
            small_ba_graph, config,
            cache=SubgraphCache(), result_cache=ScoreTableCache(),
        )
        engine = batcher.engine
        with engine:
            engine.solve_batch([PPRQuery(seed=s, k=20) for s in (3, 7, 11, 19)])
            assert engine.cache.stats.num_entries > 0
            outcome = apply_reload(
                batcher, {"cache_bytes": 1024, "result_cache_bytes": 1024}
            )
            assert outcome["evicted"]["cache"] >= 1
            assert outcome["evicted"]["result_cache"] >= 1
            assert engine.cache.stats.current_bytes <= 1024
            # Shrinking budgets evicts entries, never poisons correctness:
            # the same queries still answer (recomputed on miss).
            results = engine.solve_batch([PPRQuery(seed=3, k=20)])
            assert len(results) == 1

    def test_growing_keeps_entries_warm(self, small_ba_graph, config):
        batcher = make_batcher(small_ba_graph, config, cache=SubgraphCache())
        engine = batcher.engine
        with engine:
            engine.solve_batch([PPRQuery(seed=3, k=20)])
            entries_before = engine.cache.stats.num_entries
            outcome = apply_reload(batcher, {"cache_bytes": 1 << 30})
            assert outcome["evicted"].get("cache", 0) == 0
            assert engine.cache.stats.num_entries == entries_before

    def test_frontend_config_reports_none_for_absent_caches(
        self, small_ba_graph, config
    ):
        batcher = make_batcher(small_ba_graph, config)
        with batcher.engine:
            cfg = frontend_config(batcher)
            assert cfg["cache_bytes"] is None
            assert cfg["result_cache_bytes"] is None


class TestLivePlumbing:
    def test_set_max_pending_validation(self):
        admission = AdmissionController(max_pending=4)
        admission.set_max_pending(8)
        assert admission.max_pending == 8
        with pytest.raises(ValueError):
            admission.set_max_pending(0)
        with pytest.raises(ValueError):
            admission.set_max_pending(-1)
        assert admission.max_pending == 8

    def test_raising_max_pending_admits_more(self, small_ba_graph, config):
        """A raised bound takes effect for the very next query."""
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        admission = AdmissionController(max_pending=1)

        async def run():
            async with MicroBatcher(engine, None, admission) as batcher:
                await batcher.submit(PPRQuery(seed=3, k=10))
                admission.set_max_pending(32)
                results = await asyncio.gather(
                    *(
                        batcher.submit(PPRQuery(seed=s, k=10))
                        for s in range(8)
                    )
                )
                return results

        with engine:
            results = asyncio.run(run())
        assert len(results) == 8  # none shed under the raised bound

    def test_set_policy_swaps_for_next_batch(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with MicroBatcher(
                engine, BatchPolicy(max_batch_size=2)
            ) as batcher:
                await batcher.submit(PPRQuery(seed=3, k=10))
                batcher.set_policy(BatchPolicy(max_batch_size=64))
                assert batcher.policy.max_batch_size == 64
                # Traffic after the swap runs under the new policy.
                await asyncio.gather(
                    *(batcher.submit(PPRQuery(seed=s, k=10)) for s in range(6))
                )
                return batcher.stats()

        with engine:
            stats = asyncio.run(run())
        assert stats.admission.completed == 7

    def test_cache_resize_validation(self):
        cache = SubgraphCache()
        with pytest.raises(ValueError):
            cache.resize(0)
        result_cache = ScoreTableCache()
        with pytest.raises(ValueError):
            result_cache.resize(-5)


class TestApplyGraphUpdate:
    """The transport-agnostic path behind ``POST /admin/update`` and the
    TCP ``update`` op."""

    def test_applies_through_the_engine(self, small_ba_graph, config):
        from repro.graph.csr import CSRGraph
        from repro.serving.frontend import apply_graph_update

        batcher = make_batcher(small_ba_graph, config, cache=SubgraphCache())
        u, v = 0, int(small_ba_graph.neighbors(0)[0])
        canonical = (min(u, v), max(u, v))
        remaining = [
            edge for edge in small_ba_graph.iter_edges() if edge != canonical
        ]
        rebuilt = CSRGraph.from_edges(small_ba_graph.num_nodes, remaining)
        outcome = apply_graph_update(batcher, [["delete", u, v]])
        assert outcome["ops"] == 1
        assert outcome["new_fingerprint"] == rebuilt.fingerprint()
        assert batcher.engine.solver.graph.fingerprint() == rebuilt.fingerprint()

    def test_rejects_non_list_payload(self, small_ba_graph, config):
        from repro.serving.frontend import apply_graph_update

        batcher = make_batcher(small_ba_graph, config)
        fingerprint = batcher.engine.solver.graph.fingerprint()
        for bad in ({"op": "insert", "u": 0, "v": 1}, "insert", 7, None):
            with pytest.raises(ValueError, match="JSON array"):
                apply_graph_update(batcher, bad)
        with pytest.raises(ValueError, match="at least one"):
            apply_graph_update(batcher, [])
        assert batcher.engine.solver.graph.fingerprint() == fingerprint
