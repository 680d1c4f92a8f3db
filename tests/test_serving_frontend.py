"""Tests for the async serving frontend.

The load-bearing property is the differential one: scores served through
``ThreadPoolBackend × MicroBatcher`` — dedup on and off — must be
**bit-identical** to ``QueryEngine.solve_batch``
on a ``SerialBackend``.  Around it: dedup fan-out accounting, per-query
deadlines, admission-control shedding under overload (the queue must never
grow past its bound), and the latency telemetry exported through
``EngineStats``.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.diffusion.sparse_vector import SparseScoreVector
from repro.experiments.workloads import make_open_loop_workload
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery, PPRResult, PPRSolver
from repro.serving import (
    LatencyHistogram,
    QueryEngine,
    ScoreTableCache,
    SerialBackend,
    SubgraphCache,
    ThreadPoolBackend,
)
from repro.serving.frontend import (
    AdmissionController,
    BatchPolicy,
    DeadlineExceededError,
    MicroBatcher,
    QueryShedError,
)


@pytest.fixture()
def config():
    """Paper-shaped solver config with memory tracking off (fast tests)."""
    return MeLoPPRConfig(stage_lengths=(3, 3), track_memory=False)


@pytest.fixture()
def queries():
    """A repeated-seed batch (duplicates give dedup and caches work)."""
    seeds = [3, 11, 3, 27, 11, 3, 42, 27]
    return [PPRQuery(seed=seed, k=40, alpha=0.85, length=6) for seed in seeds]


@pytest.fixture()
def reference_scores(small_ba_graph, config, queries):
    """Exact score dicts from the serial engine — the comparison target."""
    with QueryEngine(
        MeLoPPRSolver(small_ba_graph, config), backend=SerialBackend()
    ) as engine:
        return [dict(r.scores.items()) for r in engine.solve_batch(queries)]


class SleepySolver(PPRSolver):
    """A stub solver with a controllable service time (no ``plan`` method)."""

    name = "sleepy"

    def __init__(self, graph, delay_seconds: float = 0.05) -> None:
        super().__init__(graph)
        self.delay_seconds = delay_seconds

    def solve(self, query: PPRQuery) -> PPRResult:
        time.sleep(self.delay_seconds)
        return PPRResult(query=query, scores=SparseScoreVector({query.seed: 1.0}))


class ExplodingSolver(PPRSolver):
    """A stub solver whose every query fails."""

    name = "exploding"

    def solve(self, query: PPRQuery) -> PPRResult:
        raise RuntimeError(f"no answer for seed {query.seed}")


def submit_all(batcher: MicroBatcher, queries, timeout_ms=None):
    """Gather all submissions concurrently (exceptions as outcomes)."""
    return asyncio.gather(
        *(batcher.submit(query, timeout_ms=timeout_ms) for query in queries),
        return_exceptions=True,
    )


class TestThreadBackendEquivalence:
    def test_scores_bit_identical_to_serial(
        self, small_ba_graph, config, queries, reference_scores
    ):
        with QueryEngine(
            MeLoPPRSolver(small_ba_graph, config), backend=ThreadPoolBackend(4)
        ) as engine:
            results = engine.solve_batch(queries)
        assert [dict(r.scores.items()) for r in results] == reference_scores

    def test_with_cache_and_repeat_batches(self, small_ba_graph, config, queries, reference_scores):
        with QueryEngine(
            MeLoPPRSolver(small_ba_graph, config),
            backend=ThreadPoolBackend(4),
            cache=SubgraphCache(),
        ) as engine:
            cold = engine.solve_batch(queries)
            warm = engine.solve_batch(queries)
        assert [dict(r.scores.items()) for r in cold] == reference_scores
        assert [dict(r.scores.items()) for r in warm] == reference_scores


class TestMicroBatcherDifferential:
    """The acceptance-criteria matrix, bit-identical in every cell.

    dedup × result replay × backend × arrival pattern: ``burst`` submits
    everything in one loop pass (full batches only); ``staggered`` spreads the
    arrivals over time, so the work-conserving scheduler forms batches of
    whatever happens to be queued each time the engine frees up.  ``replay``
    puts a result cache behind the batcher, so repeats that land in later
    batches are answered from it.
    """

    @pytest.mark.parametrize("dedup", [True, False], ids=["dedup", "nodedup"])
    @pytest.mark.parametrize("replay", [False, True], ids=["plain", "replay"])
    @pytest.mark.parametrize("concurrent", [False, True], ids=["serial", "thread4"])
    @pytest.mark.parametrize("staggered", [False, True], ids=["burst", "staggered"])
    def test_bit_identical_scores(
        self,
        small_ba_graph,
        config,
        queries,
        reference_scores,
        dedup,
        replay,
        concurrent,
        staggered,
    ):
        backend = ThreadPoolBackend(4) if concurrent else SerialBackend()
        engine = QueryEngine(
            MeLoPPRSolver(small_ba_graph, config),
            backend=backend,
            cache=SubgraphCache(),
            result_cache=ScoreTableCache() if replay else None,
        )
        policy = BatchPolicy(max_batch_size=4, dedup=dedup)

        async def run():
            async with MicroBatcher(engine, policy) as batcher:
                if not staggered:
                    return await submit_all(batcher, queries), batcher.stats()
                tasks = []
                for query in queries:
                    tasks.append(asyncio.ensure_future(batcher.submit(query)))
                    await asyncio.sleep(0.002)
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                return outcomes, batcher.stats()

        with engine:
            outcomes, stats = asyncio.run(run())
            replayed = engine.stats().result_cache
        for outcome in outcomes:
            assert isinstance(outcome, PPRResult), outcome
        assert [dict(r.scores.items()) for r in outcomes] == reference_scores
        assert stats.batched_queries + stats.fast_path_hits == len(queries)
        # Seed 3 recurs after its first batch has installed its answer: the
        # repeat is replayed on the event loop or inside a later batch.
        from_cache = stats.fast_path_hits + (replayed.hits if replayed is not None else 0)
        assert (from_cache > 0) is replay
        if staggered:
            # The first arrival found the engine idle and went out alone.
            assert stats.batches >= 3

    def test_single_query_policy_matches_reference(
        self, small_ba_graph, config, queries, reference_scores
    ):
        # max_batch_size=1: no coalescing at all, still identical.
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        policy = BatchPolicy(max_batch_size=1)

        async def run():
            async with MicroBatcher(engine, policy) as batcher:
                return await submit_all(batcher, queries)

        with engine:
            outcomes = asyncio.run(run())
        assert [dict(r.scores.items()) for r in outcomes] == reference_scores


class TestOpenLoopArrivals:
    """Poisson-timed arrivals, as production traffic comes in, still answer
    bit-identically: batches form from whatever happens to be queued."""

    @pytest.mark.parametrize(
        "policy",
        [BatchPolicy(max_batch_size=1), BatchPolicy(max_batch_size=8)],
        ids=["single", "batch8"],
    )
    def test_poisson_arrivals_match_the_serial_engine(self, small_ba_graph, config, policy):
        workload = make_open_loop_workload(
            "ba200", num_seeds=4, num_arrivals=24, k=40, rng=33, graph=small_ba_graph
        )
        with QueryEngine(MeLoPPRSolver(small_ba_graph, config)) as engine:
            reference = [dict(r.scores.items()) for r in engine.solve_batch(list(workload.queries))]
        engine = QueryEngine(
            MeLoPPRSolver(small_ba_graph, config),
            backend=ThreadPoolBackend(2),
            cache=SubgraphCache(),
        )

        async def run():
            loop = asyncio.get_running_loop()
            async with MicroBatcher(engine, policy) as batcher:
                start = loop.time()

                async def fire(query, at):
                    await asyncio.sleep(max(0.0, start + at / 1000.0 - loop.time()))
                    return await batcher.submit(query)

                outcomes = await asyncio.gather(
                    *(
                        fire(query, at)
                        for query, at in zip(workload.queries, workload.arrival_seconds)
                    ),
                    return_exceptions=True,
                )
                return outcomes, batcher.stats()

        with engine:
            outcomes, stats = asyncio.run(run())
        for outcome in outcomes:
            assert isinstance(outcome, PPRResult), outcome
        assert [dict(r.scores.items()) for r in outcomes] == reference
        assert stats.admission.completed == len(workload.queries)
        assert stats.admission.shed == 0


class TestDedup:
    def test_identical_inflight_queries_share_one_computation(self, small_ba_graph):
        solver = SleepySolver(small_ba_graph, delay_seconds=0.01)
        engine = QueryEngine(solver)
        query = PPRQuery(seed=5, k=10)

        async def run():
            async with MicroBatcher(
                engine, BatchPolicy(max_batch_size=16)
            ) as batcher:
                results = await submit_all(batcher, [query] * 6)
                return results, batcher.stats()

        with engine:
            results, stats = asyncio.run(run())
        # One engine execution fanned out to every waiter.
        assert stats.unique_executed == 1
        assert stats.dedup_hits == 5
        assert stats.batched_queries == 6
        first = results[0]
        assert all(result is first for result in results)

    def test_dedup_disabled_computes_every_waiter(self, small_ba_graph):
        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.0))
        query = PPRQuery(seed=5, k=10)

        async def run():
            async with MicroBatcher(
                engine,
                BatchPolicy(max_batch_size=16, dedup=False),
            ) as batcher:
                await submit_all(batcher, [query] * 6)
                return batcher.stats()

        with engine:
            stats = asyncio.run(run())
        assert stats.unique_executed == 6
        assert stats.dedup_hits == 0

    def test_identical_queries_queued_behind_busy_engine_computed_once(
        self, small_ba_graph
    ):
        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.05))
        policy = BatchPolicy(max_batch_size=16)

        async def run():
            async with MicroBatcher(engine, policy) as batcher:
                blocker = asyncio.ensure_future(
                    batcher.submit(PPRQuery(seed=1, k=10))
                )
                await asyncio.sleep(0.01)  # the blocker's batch is executing
                results = await submit_all(batcher, [PPRQuery(seed=2, k=10)] * 6)
                await blocker
                return results, batcher.stats()

        with engine:
            results, stats = asyncio.run(run())
        # They coalesced for free while the engine was busy: one batch, one
        # computation, fanned out.
        assert stats.batches == 2
        assert stats.unique_executed == 2
        assert stats.dedup_hits == 5
        assert all(result is results[0] for result in results)

    def test_distinct_queries_are_not_deduplicated(self, small_ba_graph):
        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.0))
        queries = [PPRQuery(seed=5, k=10), PPRQuery(seed=5, k=11)]

        async def run():
            async with MicroBatcher(
                engine, BatchPolicy(max_batch_size=4)
            ) as batcher:
                await submit_all(batcher, queries)
                return batcher.stats()

        with engine:
            stats = asyncio.run(run())
        assert stats.unique_executed == 2


class RecordingEngine(QueryEngine):
    """A real engine that records the size of every batch it is handed."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.batch_sizes = []

    def solve_batch(self, queries, *args, **kwargs):
        self.batch_sizes.append(len(queries))
        return super().solve_batch(queries, *args, **kwargs)


class TestWorkConservingScheduler:
    """A batch closes when it is full or the queue is empty, never on a timer."""

    def test_lone_query_on_idle_engine_is_dispatched_at_once(self, small_ba_graph):
        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.0))

        async def run():
            async with MicroBatcher(engine) as batcher:
                loop = asyncio.get_running_loop()
                start = loop.time()
                await batcher.submit(PPRQuery(seed=1, k=10))
                return loop.time() - start

        with engine:
            waited = asyncio.run(run())
        assert waited < 0.2  # the default policy holds nothing back

    def test_batches_grow_only_while_the_engine_is_busy(self, small_ba_graph):
        engine = RecordingEngine(SleepySolver(small_ba_graph, delay_seconds=0.05))
        policy = BatchPolicy(max_batch_size=4)

        async def run():
            async with MicroBatcher(engine, policy) as batcher:
                first = asyncio.ensure_future(
                    batcher.submit(PPRQuery(seed=0, k=10))
                )
                await asyncio.sleep(0.01)  # the first one is executing, alone
                outcomes = await submit_all(
                    batcher, [PPRQuery(seed=seed, k=10) for seed in range(1, 6)]
                )
                return [await first, *outcomes], batcher.stats()

        with engine:
            outcomes, stats = asyncio.run(run())
        assert all(isinstance(o, PPRResult) for o in outcomes)
        # The five that arrived during the first batch fill one batch of
        # max_batch_size and leave one over; nothing waits to be joined.
        assert engine.batch_sizes == [1, 4, 1]
        assert stats.batches == 3
        assert stats.batched_queries == 6


class TestDeadlines:
    def test_deadline_while_queued_raises(self, small_ba_graph):
        # One slow query occupies the engine; the next one's deadline passes
        # while it waits for the first batch to finish.
        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.15))
        policy = BatchPolicy(max_batch_size=1)

        async def run():
            async with MicroBatcher(engine, policy) as batcher:
                slow = asyncio.ensure_future(
                    batcher.submit(PPRQuery(seed=1, k=10))
                )
                await asyncio.sleep(0.03)  # let the first batch start
                tight = asyncio.ensure_future(
                    batcher.submit(PPRQuery(seed=2, k=10), timeout_ms=10.0)
                )
                return await asyncio.gather(slow, tight, return_exceptions=True)

        with engine:
            slow_result, tight_result = asyncio.run(run())
        assert isinstance(slow_result, PPRResult)
        assert isinstance(tight_result, DeadlineExceededError)

    def test_generous_deadline_completes(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with MicroBatcher(engine) as batcher:
                return await batcher.submit(
                    PPRQuery(seed=3, k=10), timeout_ms=60_000.0
                )

        with engine:
            result = asyncio.run(run())
        assert isinstance(result, PPRResult)

    def test_expired_queries_are_counted(self, small_ba_graph):
        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.15))
        policy = BatchPolicy(max_batch_size=1)

        async def run():
            async with MicroBatcher(engine, policy) as batcher:
                first = asyncio.ensure_future(
                    batcher.submit(PPRQuery(seed=1, k=10))
                )
                await asyncio.sleep(0.03)
                second = asyncio.ensure_future(
                    batcher.submit(PPRQuery(seed=2, k=10), timeout_ms=5.0)
                )
                await asyncio.gather(first, second, return_exceptions=True)
                return batcher.stats()

        with engine:
            stats = asyncio.run(run())
        assert stats.admission.expired == 1
        assert stats.admission.completed == 1


class TestAdmissionControl:
    def test_controller_counters(self):
        controller = AdmissionController(max_pending=2)
        assert controller.try_admit() and controller.try_admit()
        assert not controller.try_admit()  # full: shed
        controller.complete(0.010)
        assert controller.try_admit()  # capacity released
        stats = controller.stats()
        assert stats.admitted == 3
        assert stats.shed == 1
        assert stats.completed == 1
        assert stats.pending == 2
        assert stats.offered == 4
        assert stats.shed_rate == pytest.approx(0.25)
        assert stats.latency.count == 1

    def test_admit_raises_when_full(self):
        controller = AdmissionController(max_pending=1)
        controller.admit()
        with pytest.raises(QueryShedError, match="shed"):
            controller.admit()

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="max_pending"):
            AdmissionController(max_pending=0)

    def test_overload_sheds_and_queue_stays_bounded(self, small_ba_graph):
        """The acceptance stress test: overload must shed, never queue up."""
        capacity = 4
        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.02))
        admission = AdmissionController(max_pending=capacity)
        policy = BatchPolicy(max_batch_size=2)
        offered = 40
        max_depth_seen = 0

        async def run():
            nonlocal max_depth_seen
            async with MicroBatcher(engine, policy, admission) as batcher:
                tasks = []
                for index in range(offered):
                    tasks.append(
                        asyncio.ensure_future(
                            batcher.submit(PPRQuery(seed=index % 8, k=10))
                        )
                    )
                    max_depth_seen = max(max_depth_seen, len(batcher._items))
                    await asyncio.sleep(0)  # open loop: keep firing
                return await asyncio.gather(*tasks, return_exceptions=True)

        with engine:
            outcomes = asyncio.run(run())

        completed = sum(isinstance(o, PPRResult) for o in outcomes)
        shed = sum(isinstance(o, QueryShedError) for o in outcomes)
        assert completed + shed == offered
        assert shed > 0, "overload must shed"
        assert completed >= 1
        # The queue never grew past the admission bound.
        assert max_depth_seen <= capacity
        stats = admission.stats()
        assert stats.pending == 0
        assert stats.shed == shed
        assert stats.completed == completed
        assert stats.latency.count == completed

    def test_stats_are_lifetime_totals_and_snapshots_stay_put(self):
        # An interval is the difference of two snapshots, so a snapshot must
        # be a copy: later traffic moves the counters, never an old snapshot.
        controller = AdmissionController(max_pending=4)
        controller.admit()
        controller.complete(0.001)
        before = controller.stats()
        assert (before.admitted, before.completed, before.latency.count) == (1, 1, 1)
        controller.admit()
        controller.complete(0.002)
        after = controller.stats()
        assert (before.admitted, before.completed, before.latency.count) == (1, 1, 1)
        assert after.completed - before.completed == 1
        assert after.latency.count - before.latency.count == 1


class TestBatcherLifecycle:
    def test_submit_before_start_raises(self, small_ba_graph):
        engine = QueryEngine(SleepySolver(small_ba_graph, 0.0))
        batcher = MicroBatcher(engine)

        async def run():
            with pytest.raises(RuntimeError, match="not running"):
                await batcher.submit(PPRQuery(seed=1, k=10))

        with engine:
            asyncio.run(run())

    def test_submit_after_stop_raises(self, small_ba_graph):
        engine = QueryEngine(SleepySolver(small_ba_graph, 0.0))

        async def run():
            batcher = MicroBatcher(engine)
            await batcher.start()
            await batcher.stop()
            with pytest.raises(RuntimeError, match="not running"):
                await batcher.submit(PPRQuery(seed=1, k=10))

        with engine:
            asyncio.run(run())

    def test_stop_drains_queued_submissions(self, small_ba_graph):
        engine = QueryEngine(SleepySolver(small_ba_graph, 0.01))

        async def run():
            batcher = MicroBatcher(
                engine, BatchPolicy(max_batch_size=4)
            )
            await batcher.start()
            tasks = [
                asyncio.ensure_future(batcher.submit(PPRQuery(seed=s, k=10)))
                for s in range(3)
            ]
            await asyncio.sleep(0)  # queued, not yet batched
            await batcher.stop()
            return await asyncio.gather(*tasks, return_exceptions=True)

        with engine:
            outcomes = asyncio.run(run())
        assert all(isinstance(o, PPRResult) for o in outcomes)

    def test_double_start_raises(self, small_ba_graph):
        engine = QueryEngine(SleepySolver(small_ba_graph, 0.0))

        async def run():
            async with MicroBatcher(engine) as batcher:
                with pytest.raises(RuntimeError, match="already started"):
                    await batcher.start()

        with engine:
            asyncio.run(run())

    def test_cancelled_waiter_is_released_from_admission(self, small_ba_graph):
        engine = QueryEngine(SleepySolver(small_ba_graph, 0.05))
        admission = AdmissionController(max_pending=8)

        async def run():
            async with MicroBatcher(
                engine, BatchPolicy(max_batch_size=2), admission
            ) as batcher:
                keeper = asyncio.ensure_future(
                    batcher.submit(PPRQuery(seed=1, k=10))
                )
                quitter = asyncio.ensure_future(
                    batcher.submit(PPRQuery(seed=2, k=10))
                )
                await asyncio.sleep(0)  # both queued, batch not yet formed
                quitter.cancel()
                results = await asyncio.gather(
                    keeper, quitter, return_exceptions=True
                )
                return results

        with engine:
            keeper_result, quitter_result = asyncio.run(run())
        assert isinstance(keeper_result, PPRResult)
        assert isinstance(quitter_result, asyncio.CancelledError)
        stats = admission.stats()
        assert stats.cancelled == 1
        assert stats.completed == 1
        assert stats.pending == 0

    def test_engine_failure_propagates_to_every_waiter(self, small_ba_graph):
        engine = QueryEngine(ExplodingSolver(small_ba_graph))

        async def run():
            async with MicroBatcher(
                engine, BatchPolicy(max_batch_size=4)
            ) as batcher:
                outcomes = await submit_all(
                    batcher, [PPRQuery(seed=s, k=10) for s in range(3)]
                )
                return outcomes, batcher.stats()

        with engine:
            outcomes, stats = asyncio.run(run())
        assert all(isinstance(o, RuntimeError) for o in outcomes)
        assert stats.admission.failed == 3
        assert stats.admission.pending == 0


class ShortEngine(QueryEngine):
    """A broken engine that returns one result fewer than it was asked for."""

    def solve_batch(self, queries, *args, **kwargs):
        return super().solve_batch(queries, *args, **kwargs)[:-1]


class BrokenAdmission(AdmissionController):
    """Releases the slot, then raises: a fault the scheduler cannot survive."""

    def complete(self, latency_seconds: float) -> None:
        super().complete(latency_seconds)
        raise RuntimeError("latency histogram broke")


class TestNeverAHang:
    """Every waiter gets an answer or a named error, whatever breaks."""

    def test_short_engine_result_fails_the_whole_batch(self, small_ba_graph):
        engine = ShortEngine(SleepySolver(small_ba_graph, 0.0))

        async def run():
            async with MicroBatcher(engine, BatchPolicy(max_batch_size=4)) as batcher:
                outcomes = await asyncio.wait_for(
                    submit_all(batcher, [PPRQuery(seed=s, k=10) for s in range(3)]),
                    timeout=5.0,
                )
                return outcomes, batcher.running, batcher.stats()

        with engine:
            outcomes, running, stats = asyncio.run(run())
        assert all(isinstance(o, ValueError) for o in outcomes), outcomes
        assert "2 results for 3 queries" in str(outcomes[0])
        assert running  # a bad batch does not take the scheduler down
        assert stats.admission.failed == 3
        assert stats.admission.pending == 0

    def test_dead_scheduler_fails_queued_waiters_and_refuses_new_ones(
        self, small_ba_graph
    ):
        engine = QueryEngine(SleepySolver(small_ba_graph, 0.05))
        admission = BrokenAdmission(max_pending=8)

        async def run():
            batcher = MicroBatcher(engine, BatchPolicy(max_batch_size=4), admission)
            await batcher.start()
            first = asyncio.ensure_future(batcher.submit(PPRQuery(seed=0, k=10)))
            await asyncio.sleep(0.01)  # first is executing; the next two queue
            queued = [
                asyncio.ensure_future(batcher.submit(PPRQuery(seed=s, k=10)))
                for s in (1, 2)
            ]
            outcomes = await asyncio.wait_for(
                asyncio.gather(first, *queued, return_exceptions=True), timeout=5.0
            )
            assert not batcher.running
            with pytest.raises(RuntimeError, match="not running"):
                await batcher.submit(PPRQuery(seed=3, k=10))
            with pytest.raises(RuntimeError, match="histogram broke"):
                await batcher.stop()  # surfaces what killed the scheduler
            await batcher.stop()  # idempotent afterwards
            return outcomes

        with engine:
            delivered, *failed = asyncio.run(run())
        assert isinstance(delivered, PPRResult)  # set before the fault hit
        for outcome in failed:
            assert isinstance(outcome, RuntimeError)
            assert "histogram broke" in str(outcome)
        stats = admission.stats()
        assert stats.completed == 1
        assert stats.failed == 2
        assert stats.pending == 0


class TestBatchPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            BatchPolicy(max_batch_size=0)

    def test_label(self):
        assert BatchPolicy(8).label == "b8"
        assert BatchPolicy(1, dedup=False).label == "b1-nodedup"

    def test_as_dict(self):
        payload = BatchPolicy(4).as_dict()
        assert payload == {"max_batch_size": 4, "dedup": True}


class TestLatencyTelemetry:
    def test_empty_histogram(self):
        snapshot = LatencyHistogram().snapshot()
        assert snapshot.count == 0
        assert snapshot.p50_seconds == 0.0
        assert snapshot.p99_seconds == 0.0

    def test_percentiles_bracket_known_samples(self):
        histogram = LatencyHistogram()
        for _ in range(100):
            histogram.record(0.001)
        snapshot = histogram.snapshot()
        assert snapshot.count == 100
        assert snapshot.mean_seconds == pytest.approx(0.001)
        # Bucketed estimate: within one bucket width (~12 %) above the truth.
        assert 0.001 <= snapshot.p50_seconds <= 0.00113
        assert snapshot.p50_seconds <= snapshot.p95_seconds <= snapshot.p99_seconds
        assert snapshot.p99_seconds <= snapshot.max_seconds

    def test_percentiles_are_monotonic_across_mixed_samples(self):
        histogram = LatencyHistogram()
        for milliseconds in (1, 1, 1, 1, 1, 1, 1, 1, 5, 50):
            histogram.record(milliseconds / 1e3)
        snapshot = histogram.snapshot()
        assert snapshot.p50_seconds < snapshot.p95_seconds <= snapshot.p99_seconds
        assert snapshot.p99_seconds == pytest.approx(0.05)


class TestEngineStatsIntegration:
    def test_engine_exports_latency_percentiles(self, small_ba_graph, config, queries):
        with QueryEngine(MeLoPPRSolver(small_ba_graph, config)) as engine:
            engine.solve_batch(queries)
            stats = engine.stats()
        assert stats.latency is not None
        assert stats.latency.count == len(queries)
        assert 0 < stats.latency.p50_seconds <= stats.latency.p99_seconds
        payload = stats.as_dict()
        assert payload["latency"]["count"] == len(queries)

    def test_snapshots_are_lifetime_totals_that_stay_put(
        self, small_ba_graph, config, queries
    ):
        cache = SubgraphCache()
        with QueryEngine(
            MeLoPPRSolver(small_ba_graph, config), cache=cache
        ) as engine:
            engine.solve_batch(queries)
            before = engine.stats()
            engine.solve_batch(queries)
            after = engine.stats()
        assert (before.queries_served, before.batches) == (len(queries), 1)
        assert before.latency.count == len(queries)
        assert (after.queries_served, after.batches) == (2 * len(queries), 2)
        assert after.latency.count == 2 * len(queries)
        # The second pass finds every ball the first one kept.
        assert after.cache.misses == before.cache.misses
        assert after.cache.hits > before.cache.hits
        assert after.cache.num_entries == before.cache.num_entries > 0
