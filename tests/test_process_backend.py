"""Process-pool backend: lifecycle, crash recovery, shared-memory hygiene."""

from __future__ import annotations

import os
import signal
import threading

import numpy as np
import pytest

from repro.graph.generators import barabasi_albert_graph
from repro.graph.partition import partition_graph
from repro.meloppr.planner import StageTask
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.serving import (
    ProcessPoolBackend,
    QueryEngine,
    ShardRouter,
    WorkerCrashError,
    leaked_segment_names,
    make_backend,
)
from repro.serving.backends import _picklable_exception, _WorkerState
from repro.serving.shm import SharedGraphHandle, SharedShardHandle


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(200, 2, rng=3, name="ba200-proc")


@pytest.fixture(scope="module")
def queries():
    return [PPRQuery(seed=seed, k=20) for seed in (5, 9, 14, 5, 9, 33)]


def run_with_timeout(fn, timeout=60.0):
    """Run ``fn`` on a thread; fail the test instead of hanging pytest."""
    box = {}

    def target():
        try:
            box["result"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"call did not finish within {timeout}s (hang)"
    if "error" in box:
        raise box["error"]
    return box["result"]


class TestSpecParsing:
    def test_make_backend_process(self):
        backend = make_backend("process:3")
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.num_workers == 3
        assert not backend.is_running

    def test_make_backend_process_default_workers(self):
        backend = make_backend("process")
        assert backend.num_workers == (os.cpu_count() or 1)

    def test_invalid_worker_counts(self):
        with pytest.raises(ValueError, match="num_workers"):
            ProcessPoolBackend(num_workers=0)
        with pytest.raises(ValueError, match="cache_bytes"):
            ProcessPoolBackend(cache_bytes=0)
        with pytest.raises(ValueError, match="start method"):
            ProcessPoolBackend(mp_context="no-such-method")

    def test_unknown_spec_mentions_process(self):
        with pytest.raises(ValueError, match="process"):
            make_backend("gpu:4")


class TestBindingLifecycle:
    def test_dispatch_before_bind_raises(self):
        backend = ProcessPoolBackend(num_workers=1)
        with pytest.raises(RuntimeError, match="unbound"):
            backend.run_stage_tasks([StageTask(0, 0, 1, 1.0, 0.85)])

    def test_rebind_same_graph_is_noop_other_graph_raises(self, graph):
        backend = ProcessPoolBackend(num_workers=1)
        try:
            backend.bind_graph(graph)
            assert backend.is_running
            backend.bind_graph(graph)  # idempotent
            other = barabasi_albert_graph(50, 2, rng=1, name="other")
            with pytest.raises(RuntimeError, match="one ProcessPoolBackend per graph"):
                backend.bind_graph(other)
            with pytest.raises(RuntimeError, match="already bound"):
                backend.bind_partition(partition_graph(other, 2))
        finally:
            backend.close()
        assert not backend.is_running

    def test_close_idempotent_and_releases_segments(self, graph):
        before = set(leaked_segment_names())
        backend = ProcessPoolBackend(num_workers=2)
        backend.bind_graph(graph)
        created = set(leaked_segment_names()) - before
        assert created, "binding must export shared segments"
        backend.close()
        backend.close()
        assert set(leaked_segment_names()) - before == set()

    def test_restart_after_close(self, graph, queries):
        backend = ProcessPoolBackend(num_workers=2)
        with QueryEngine(MeLoPPRSolver(graph)) as engine:
            reference = [r.top_k() for r in engine.solve_batch(queries)]
        engine = QueryEngine(MeLoPPRSolver(graph), backend=backend)
        first = [r.top_k() for r in engine.solve_batch(queries)]
        backend.close()
        assert not backend.is_running
        # The stored binding lets the next batch respawn the pool.
        second = [r.top_k() for r in engine.solve_batch(queries)]
        engine.close()
        assert first == reference and second == reference

    def test_repr_states_binding(self, graph):
        backend = ProcessPoolBackend(num_workers=2)
        assert "unbound" in repr(backend)
        try:
            backend.bind_graph(graph)
            assert graph.name in repr(backend)
            assert "running=True" in repr(backend)
        finally:
            backend.close()

    def test_repr_states_partition_binding(self, graph):
        backend = ProcessPoolBackend(num_workers=2)
        partition = partition_graph(graph, 3)
        try:
            backend.bind_partition(partition)
            backend.bind_partition(partition)  # idempotent
            assert "partition[3]" in repr(backend)
            with pytest.raises(RuntimeError, match="already bound"):
                backend.bind_graph(graph)
            with pytest.raises(RuntimeError, match="different partition"):
                backend.bind_partition(partition_graph(graph, 2))
        finally:
            backend.close()

    def test_cache_stats_lifecycle(self, graph, queries):
        backend = ProcessPoolBackend(num_workers=2)
        assert backend.cache_stats() is None  # not running yet
        with QueryEngine(MeLoPPRSolver(graph), backend=backend) as engine:
            engine.solve_batch(queries)
            stats = backend.cache_stats()
            assert stats is not None
            assert stats.hits > 0  # repeated seeds hit the worker caches
            assert engine.stats().cache.hits >= stats.hits
        assert backend.cache_stats() is None  # pool closed

    def test_engine_cache_with_process_backend_is_rejected(self, graph):
        # An engine-level cache would never see a lookup (extractions run in
        # the workers) — the dead combination is rejected, like cache+router.
        from repro.serving import SubgraphCache

        backend = ProcessPoolBackend(num_workers=1)
        try:
            with pytest.raises(ValueError, match="cache_bytes"):
                QueryEngine(
                    MeLoPPRSolver(graph), backend=backend, cache=SubgraphCache()
                )
        finally:
            backend.close()

    def test_cache_disabled_reports_none(self, graph, queries):
        backend = ProcessPoolBackend(num_workers=1, cache_bytes=None)
        assert backend.cache_bytes is None
        with QueryEngine(MeLoPPRSolver(graph), backend=backend) as engine:
            results = engine.solve_batch(queries[:2])
            assert backend.cache_stats() is None
            assert engine.stats().cache is None
            assert results[0].metadata["serving"]["cache_enabled"] is False


class TestWorkerCrash:
    def test_killed_workers_raise_instead_of_hanging(self, graph, queries):
        backend = ProcessPoolBackend(num_workers=2)
        engine = QueryEngine(MeLoPPRSolver(graph), backend=backend)
        try:
            engine.solve_batch(queries[:2])  # warm pool
            for worker in backend._workers:
                os.kill(worker.pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashError, match="worker died"):
                run_with_timeout(lambda: engine.solve_batch(queries))
            # The pool stays broken (clear error, not a hang) until closed.
            with pytest.raises(WorkerCrashError):
                run_with_timeout(lambda: engine.solve_batch(queries))
        finally:
            engine.close()

    def test_killed_workers_raise_with_sigchld_ignored(self, graph, queries):
        # With SIGCHLD ignored the kernel reaps a dead worker itself, so its
        # exit status is gone and ``exitcode`` stays None; the collector must
        # still see the death through the worker's sentinel.
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        backend = ProcessPoolBackend(num_workers=2)
        engine = QueryEngine(MeLoPPRSolver(graph), backend=backend)
        try:
            engine.solve_batch(queries[:2])  # warm pool
            for worker in backend._workers:
                os.kill(worker.pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashError, match="worker died"):
                run_with_timeout(lambda: engine.solve_batch(queries), timeout=20.0)
        finally:
            run_with_timeout(engine.close, timeout=20.0)
            signal.signal(signal.SIGCHLD, previous)

    def test_engine_recovers_after_close(self, graph, queries):
        with QueryEngine(MeLoPPRSolver(graph)) as engine:
            reference = [r.top_k() for r in engine.solve_batch(queries)]
        backend = ProcessPoolBackend(num_workers=2)
        engine = QueryEngine(MeLoPPRSolver(graph), backend=backend)
        try:
            engine.solve_batch(queries[:1])
            for worker in backend._workers:
                os.kill(worker.pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashError):
                run_with_timeout(lambda: engine.solve_batch(queries))
            backend.close()  # reset; binding survives
            results = run_with_timeout(lambda: engine.solve_batch(queries))
            assert [r.top_k() for r in results] == reference
        finally:
            engine.close()

    def test_worker_exceptions_propagate_by_type(self, graph):
        # An invalid stage task (center outside the graph) must surface the
        # original exception type from the worker, not a hang or a crash.
        backend = ProcessPoolBackend(num_workers=1)
        backend.bind_graph(graph)
        try:
            bad = StageTask(0, graph.num_nodes + 7, 2, 1.0, 0.85)
            with pytest.raises(ValueError):
                run_with_timeout(lambda: backend.run_stage_tasks([bad]))
        finally:
            backend.close()


class TestShmLeakRegression:
    """No /dev/shm segment survives a failing batch (ISSUE 4 satellite)."""

    def test_failing_batch_in_context_manager_leaks_nothing(self, graph, queries):
        before = set(leaked_segment_names())
        backend = ProcessPoolBackend(num_workers=2)
        with pytest.raises(WorkerCrashError):
            with QueryEngine(MeLoPPRSolver(graph), backend=backend) as engine:
                engine.solve_batch(queries[:1])
                for worker in backend._workers:
                    os.kill(worker.pid, signal.SIGKILL)
                run_with_timeout(lambda: engine.solve_batch(queries))
        assert set(leaked_segment_names()) - before == set()
        assert not backend.is_running

    def test_close_with_pending_still_releases_backend(self, graph, queries):
        before = set(leaked_segment_names())
        backend = ProcessPoolBackend(num_workers=1)
        engine = QueryEngine(MeLoPPRSolver(graph), backend=backend)
        engine.submit(queries[0])
        with pytest.raises(RuntimeError, match="pending"):
            engine.close()
        # The pending-queries error must not keep worker processes or shared
        # segments alive (close releases the backend in a finally)...
        assert not backend.is_running
        assert set(leaked_segment_names()) - before == set()
        # ...and the queue is intact: draining restarts the pool and answers.
        results = engine.drain()
        assert len(results) == 1
        engine.close()
        assert set(leaked_segment_names()) - before == set()

    def test_close_with_a_job_waiting_on_the_pool_does_not_deadlock(
        self, graph, monkeypatch
    ):
        # A feeder job that reaches the pool while close() is stopping it (a
        # crashed batch still unwinding) waits on the state lock; close()
        # must fail that job and return, not join it under the lock.
        before = set(leaked_segment_names())
        backend = ProcessPoolBackend(num_workers=1)
        backend.bind_graph(graph)
        task = StageTask(0, 5, 2, 1.0, 0.85)
        first_done, go = threading.Event(), threading.Event()

        def job(index):
            if index:
                go.wait()
            outcome = backend.run_stage_tasks([task])
            first_done.set()
            return outcome

        fail_pending = backend._fail_pending

        def release_the_job_then_fail(error):
            go.set()  # close() holds the state lock here
            fail_pending(error)

        box = {}

        def feed():
            try:
                backend.map(job, [0, 1])
            except BaseException as exc:  # noqa: BLE001 - inspected below
                box["error"] = exc

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        assert first_done.wait(20.0)
        monkeypatch.setattr(backend, "_fail_pending", release_the_job_then_fail)
        run_with_timeout(backend.close, timeout=20.0)
        feeder.join(20.0)
        assert not feeder.is_alive()
        assert isinstance(box.get("error"), WorkerCrashError)
        assert not backend.is_running
        assert set(leaked_segment_names()) - before == set()


class TestWorkerStateInProcess:
    """The worker-side execution logic, driven in-process for coverage."""

    def test_host_mode_runs_and_caches(self, graph):
        with SharedGraphHandle.export(graph) as handle:
            state = _WorkerState(handle.descriptor, cache_bytes=1 << 20)
            task = StageTask(0, 5, 3, 1.0, 0.85)
            (outcome,), timing = state.run_stage([(None, task)])
            assert outcome.cache_hit is False
            (again,), _ = state.run_stage([(None, task)])
            assert again.cache_hit is True
            assert np.array_equal(
                outcome.diffusion.accumulated, again.diffusion.accumulated
            )
            assert "bfs" in timing and "diffusion" in timing
            counters = state.cache_stats()
            assert counters.hits == 1 and counters.misses == 1

    def test_host_mode_cache_off(self, graph):
        with SharedGraphHandle.export(graph) as handle:
            state = _WorkerState(handle.descriptor, cache_bytes=None)
            (outcome,), _ = state.run_stage([(None, StageTask(0, 5, 2, 1.0, 0.85))])
            assert outcome.cache_hit is False
            assert state.cache_stats() is None

    def test_reset_cache_stats_zeroes_counters_keeps_entries(self, graph):
        with SharedGraphHandle.export(graph) as handle:
            state = _WorkerState(handle.descriptor, cache_bytes=1 << 20)
            task = StageTask(0, 5, 3, 1.0, 0.85)
            state.run_stage([(None, task)])
            state.reset_cache_stats()
            counters = state.cache_stats()
            assert counters.hits == counters.misses == 0
            # The entry stayed warm: the next lookup is a hit.
            (outcome,), _ = state.run_stage([(None, task)])
            assert outcome.cache_hit is True

    def test_backend_reset_cache_stats_degrades_when_not_running(self):
        backend = ProcessPoolBackend(num_workers=1)
        backend.reset_cache_stats()  # no workers: bounded no-op, no raise
        cacheless = ProcessPoolBackend(num_workers=1, cache_bytes=None)
        cacheless.reset_cache_stats()

    def test_shard_mode_matches_router(self, graph):
        partition = partition_graph(graph, 3, strategy="hash", halo_depth=3)
        router = ShardRouter(partition, cache_bytes=None)
        handles = [
            SharedShardHandle.export(shard, partition.host.name, partition.halo_depth)
            for shard in partition.shards
        ]
        try:
            state = _WorkerState(
                tuple(handle.descriptor for handle in handles), cache_bytes=1 << 20
            )
            for center in (0, 17, 55):
                shard_id = int(partition.assignments[center])
                task = StageTask(0, center, 3, 1.0, 0.85)
                (outcome,), _ = state.run_stage([(shard_id, task)])
                expected_sub, expected_bfs, _ = router.extract_wave(graph, [center], 3).triples()[0]
                assert np.array_equal(
                    outcome.subgraph.global_ids, expected_sub.global_ids
                )
                assert np.array_equal(
                    outcome.subgraph.graph.indices, expected_sub.graph.indices
                )
                assert outcome.bfs.edges_scanned == expected_bfs.edges_scanned
                # Cache hit on repeat.
                (repeat,), _ = state.run_stage([(shard_id, task)])
                assert repeat.cache_hit is True
            with pytest.raises(WorkerCrashError, match="does not hold shard"):
                state.run_stage([(99, StageTask(0, 0, 1, 1.0, 0.85))])
        finally:
            for handle in handles:
                handle.unlink()

    def test_shard_mode_runs_a_mixed_message_in_entry_order(self, graph):
        partition = partition_graph(graph, 3, strategy="hash", halo_depth=3)
        handles = [
            SharedShardHandle.export(shard, partition.host.name, partition.halo_depth)
            for shard in partition.shards
        ]
        try:
            descriptors = tuple(handle.descriptor for handle in handles)
            # Interleave the shards so each wave's tasks are not contiguous.
            centers = [
                int(np.flatnonzero(partition.assignments == shard_id)[rank])
                for rank in (0, 4, 9)
                for shard_id in range(partition.num_shards)
            ]
            entries = [
                (int(partition.assignments[center]), StageTask(0, center, 3, 1.0, 0.85))
                for center in centers
            ]
            assert len({shard_id for shard_id, _ in entries}) == 3
            state = _WorkerState(descriptors, cache_bytes=1 << 20)
            outcomes, timing = state.run_stage(entries)
            assert [outcome.task.center for outcome in outcomes] == centers
            assert "bfs" in timing and "diffusion" in timing
            single = _WorkerState(descriptors, cache_bytes=None)
            for entry, outcome in zip(entries, outcomes):
                (expected,), _ = single.run_stage([entry])
                assert outcome.cache_hit is False
                assert np.array_equal(
                    outcome.subgraph.global_ids, expected.subgraph.global_ids
                )
                assert np.array_equal(
                    outcome.diffusion.accumulated, expected.diffusion.accumulated
                )
            counters = state.cache_stats()
            assert counters.misses == len(centers) and counters.hits == 0
        finally:
            for handle in handles:
                handle.unlink()

    def test_picklable_exception_fallback(self):
        class Unpicklable(Exception):
            def __reduce__(self):
                raise TypeError("nope")

        original = ValueError("fine")
        assert _picklable_exception(original) is original
        substitute = _picklable_exception(Unpicklable("boom"))
        assert isinstance(substitute, RuntimeError)
        assert "Unpicklable" in str(substitute)


class TestRebind:
    """Live-update rebinding: swap the bound topology, respawn cold workers."""

    def test_rebind_graph_swaps_topology(self, graph, queries):
        edge = next(iter(graph.iter_edges()))
        remaining = [e for e in graph.iter_edges() if e != edge]
        updated = type(graph).from_edges(graph.num_nodes, remaining, name=graph.name)
        with ProcessPoolBackend(num_workers=2) as backend:
            backend.bind_graph(graph)
            solver = MeLoPPRSolver(graph)
            run_with_timeout(lambda: backend.map(solver.solve, queries[:2]))
            backend.rebind_graph(updated)
            # Unlike bind_graph, rebinding to a different topology is the
            # whole point; the next dispatch respawns workers on it.
            results = run_with_timeout(
                lambda: backend.map(MeLoPPRSolver(updated).solve, queries[:2])
            )
            expected = MeLoPPRSolver(updated).solve(queries[0])
            assert dict(results[0].scores.items()) == dict(
                expected.scores.items()
            )

    def test_rebind_partition_swaps_partition(self, graph, queries):
        partition = partition_graph(graph, 2, halo_depth=3)
        edge = next(iter(graph.iter_edges()))
        remaining = [e for e in graph.iter_edges() if e != edge]
        updated = type(graph).from_edges(graph.num_nodes, remaining, name=graph.name)
        repartition = partition_graph(updated, 2, halo_depth=3)
        with ProcessPoolBackend(num_workers=2) as backend:
            backend.bind_partition(partition)
            solver = MeLoPPRSolver(graph)
            run_with_timeout(lambda: backend.map(solver.solve, queries[:2]))
            backend.rebind_partition(repartition)
            results = run_with_timeout(
                lambda: backend.map(MeLoPPRSolver(updated).solve, queries[:2])
            )
            expected = MeLoPPRSolver(updated).solve(queries[0])
            assert dict(results[0].scores.items()) == dict(
                expected.scores.items()
            )

    def test_rebind_without_binding_raises(self, graph):
        partition = partition_graph(graph, 2, halo_depth=3)
        with ProcessPoolBackend(num_workers=2) as backend:
            with pytest.raises(RuntimeError, match="bind_graph"):
                backend.rebind_graph(graph)
            with pytest.raises(RuntimeError, match="bind_partition"):
                backend.rebind_partition(partition)
            # Crossing binding kinds is also a rebind error.
            backend.bind_graph(graph)
            with pytest.raises(RuntimeError, match="bind_partition"):
                backend.rebind_partition(partition)
