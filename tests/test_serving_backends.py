"""Execution-backend lifecycle tests and the make_backend registry.

Covers the contract pieces the engine relies on but never exercises
directly: ``close()`` idempotency, context-manager shutdown, exception
propagation from a failing job through ``map``, submission-order results
under concurrency, and lazy re-creation after close; then what an engine
does with its thread pool around close, failing batches and repeated
batches.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.graph.generators import barabasi_albert_graph
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.serving import (
    ExecutionBackend,
    QueryEngine,
    SerialBackend,
    SubgraphCache,
    ThreadPoolBackend,
    make_backend,
)
from oracle import assert_same_answers, serial_answers

BACKEND_FACTORIES = [
    SerialBackend,
    lambda: ThreadPoolBackend(2),
    lambda: ThreadPoolBackend(1),
]
BACKEND_IDS = ["serial", "thread-pool", "thread-pool-1"]


@pytest.fixture(params=BACKEND_FACTORIES, ids=BACKEND_IDS)
def backend(request):
    instance = request.param()
    yield instance
    instance.close()


class TestLifecycle:
    def test_close_is_idempotent(self, backend):
        backend.map(lambda x: x + 1, [1, 2, 3])
        backend.close()
        backend.close()  # must not raise

    def test_close_before_first_use_is_clean(self, backend):
        backend.close()  # nothing was lazily created yet

    def test_map_after_close_recreates_resources(self, backend):
        backend.map(lambda x: x, [1])
        backend.close()
        assert backend.map(lambda x: x + 1, [1, 2]) == [2, 3]

    def test_job_exception_propagates(self, backend):
        def explode(item):
            if item == 2:
                raise ValueError(f"boom on {item}")
            return item

        with pytest.raises(ValueError, match="boom on 2"):
            backend.map(explode, [1, 2, 3])
        # The backend survives a failing batch and keeps serving.
        assert backend.map(lambda x: x, [4, 5]) == [4, 5]

    def test_empty_batch(self, backend):
        assert backend.map(lambda x: x, []) == []

    def test_results_in_submission_order(self, backend):
        # Later jobs finish first under concurrency; order must still hold.
        def job(item):
            time.sleep(0.02 * (3 - item))
            return item * 10

        assert backend.map(job, [0, 1, 2, 3]) == [0, 10, 20, 30]

    def test_name_and_concurrent_flag(self, backend):
        expected = {SerialBackend: ("serial", False), ThreadPoolBackend: ("thread-pool", True)}
        assert (backend.name, backend.concurrent) == expected[type(backend)]


class TestThreadPoolBackend:
    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            ThreadPoolBackend(0)

    def test_one_worker_never_overlaps_jobs(self):
        backend = ThreadPoolBackend(1)
        peak = {"value": 0, "current": 0}
        lock = threading.Lock()

        def job(item):
            with lock:
                peak["current"] += 1
                peak["value"] = max(peak["value"], peak["current"])
            time.sleep(0.02)
            with lock:
                peak["current"] -= 1
            return item

        try:
            assert backend.map(job, list(range(4))) == [0, 1, 2, 3]
            assert peak["value"] == 1, "jobs overlapped past max_workers=1"
        finally:
            backend.close()

    def test_close_drains_inflight_map_from_other_thread(self):
        # close() waits like ThreadPoolExecutor.shutdown(wait=True): a batch
        # already in flight finishes and its mapping thread returns.
        backend = ThreadPoolBackend(2)
        results = {}

        def mapper():
            results["value"] = backend.map(
                lambda x: (time.sleep(0.05), x * 2)[1], [1, 2, 3]
            )

        try:
            thread = threading.Thread(target=mapper)
            thread.start()
            time.sleep(0.02)  # batch is now in flight
            backend.close()
            thread.join(timeout=5)
            assert not thread.is_alive(), "map() hung across close()"
            assert results["value"] == [2, 4, 6]
        finally:
            backend.close()


class TestMakeBackend:
    def test_serial(self):
        assert isinstance(make_backend("serial"), SerialBackend)

    def test_none_means_serial(self):
        assert isinstance(make_backend(None), SerialBackend)

    @pytest.mark.parametrize("spec", ["thread", "threads", "thread-pool"])
    def test_thread_aliases(self, spec):
        backend = make_backend(spec)
        assert isinstance(backend, ThreadPoolBackend)
        assert backend.max_workers is None
        backend.close()

    def test_thread_with_workers(self):
        backend = make_backend("thread:8")
        assert isinstance(backend, ThreadPoolBackend)
        assert backend.max_workers == 8
        backend.close()

    @pytest.mark.parametrize(
        "spec, workers",
        [("thread:1", 1), ("thread:3", 3), ("threads:5", 5), ("thread-pool:7", 7), ("THREAD:64", 64)],
        ids=["thread:1", "thread:3", "threads:5", "thread-pool:7", "THREAD:64"],
    )
    def test_worker_count_reaches_the_pool(self, spec, workers):
        backend = make_backend(spec)
        try:
            assert isinstance(backend, ThreadPoolBackend)
            assert backend.max_workers == workers
            assert backend._executor is None  # nothing starts until first use
            assert backend.map(lambda x: x * 3, [1, 2]) == [3, 6]
            assert backend._executor._max_workers == workers
        finally:
            backend.close()

    @pytest.mark.parametrize("spec", ["process", "process:2", "processes:2", "process-pool:2"])
    def test_process_is_not_a_backend(self, spec):
        with pytest.raises(ValueError, match="unknown backend spec") as info:
            make_backend(spec)
        assert "'serial' or 'thread[:N]'" in str(info.value)

    @pytest.mark.parametrize("spec", ["async", "async:2"])
    def test_async_is_not_a_backend(self, spec):
        with pytest.raises(ValueError, match="unknown backend spec") as info:
            make_backend(spec)
        assert "'serial' or 'thread[:N]'" in str(info.value)

    def test_spec_is_case_insensitive_and_trimmed(self):
        backend = make_backend("  Thread:2 ")
        assert isinstance(backend, ThreadPoolBackend)
        assert backend.max_workers == 2
        backend.close()

    def test_instance_passes_through(self):
        backend = SerialBackend()
        assert make_backend(backend) is backend

    def test_unknown_spec_raises(self):
        with pytest.raises(ValueError, match="unknown backend spec"):
            make_backend("fpga")

    def test_serial_with_workers_raises(self):
        with pytest.raises(ValueError, match="serial backend takes no"):
            make_backend("serial:2")

    def test_non_integer_worker_count_raises(self):
        with pytest.raises(ValueError, match="non-integer"):
            make_backend("thread:many")

    def test_nonpositive_worker_count_raises(self):
        with pytest.raises(ValueError, match="max_workers"):
            make_backend("thread:0")

    def test_registry_backends_satisfy_interface(self):
        for spec in ("serial", "thread:2"):
            backend = make_backend(spec)
            assert isinstance(backend, ExecutionBackend)
            assert backend.map(lambda x: x + 1, [1, 2]) == [2, 3]
            backend.close()


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(180, 2, rng=7, name="ba180-thread")


@pytest.fixture(scope="module")
def queries():
    seeds = [0, 7, 63, 7, 120, 0]
    # Mixed lengths exercise one-stage, degenerate and multi-stage plans.
    return [
        PPRQuery(seed=seed, k=30, alpha=0.85, length=length)
        for seed, length in zip(seeds, (6, 6, 3, 1, 0, 6))
    ]


@pytest.fixture(scope="module")
def reference(graph, queries):
    # The default config measures its peak with tracemalloc, which a pool
    # turns off: the tests compare answers with counts=False.
    return serial_answers(graph, None, queries)


class TestEnginePoolLifecycle:
    def test_repeated_batches_reuse_the_pool(self, graph, queries, reference):
        backend = ThreadPoolBackend(2)
        with QueryEngine(MeLoPPRSolver(graph), backend=backend) as engine:
            first = engine.solve_batch(queries)
            executor = backend._executor
            assert executor is not None
            second = engine.solve_batch(queries)
            assert backend._executor is executor  # persistent pool, no restart
        assert backend._executor is None  # the engine closed its backend
        assert_same_answers(first, reference, counts=False)
        assert_same_answers(second, reference, counts=False)

    def test_restart_after_close(self, graph, queries, reference):
        backend = ThreadPoolBackend(2)
        engine = QueryEngine(MeLoPPRSolver(graph), backend=backend)
        first = engine.solve_batch(queries)
        backend.close()
        assert backend._executor is None
        # The pool is lazy: the next batch starts a fresh one.
        second = engine.solve_batch(queries)
        assert backend._executor is not None
        engine.close()
        assert backend._executor is None
        assert_same_answers(first, reference, counts=False)
        assert_same_answers(second, reference, counts=False)

    def test_stage_errors_propagate_by_type(self, graph, queries):
        # A seed outside the graph fails inside a pool thread; the original
        # exception type reaches the caller, as on the serial path.
        bad = PPRQuery(seed=graph.num_nodes + 7, k=5)
        with QueryEngine(MeLoPPRSolver(graph), backend=ThreadPoolBackend(2)) as engine:
            with pytest.raises(ValueError, match="out of range"):
                engine.solve_batch([queries[0], bad])

    def test_failing_batch_in_context_manager_releases_the_pool(self, graph, queries):
        backend = ThreadPoolBackend(2)
        bad = PPRQuery(seed=graph.num_nodes, k=5)
        with pytest.raises(ValueError):
            with QueryEngine(MeLoPPRSolver(graph), backend=backend) as engine:
                engine.solve_batch(queries[:2])
                engine.solve_batch([bad])
        assert backend._executor is None

    def test_engine_recovers_after_a_failing_batch(self, graph, queries, reference):
        bad = PPRQuery(seed=graph.num_nodes + 1, k=5)
        with QueryEngine(
            MeLoPPRSolver(graph), backend=ThreadPoolBackend(2), cache=SubgraphCache()
        ) as engine:
            with pytest.raises(ValueError):
                engine.solve_batch([bad] + list(queries))
            results = engine.solve_batch(queries)
            assert_same_answers(results, reference, counts=False)
            # Only the batch that succeeded was counted as served.
            assert engine.stats().queries_served == len(queries)

    def test_cache_stats_with_a_pool(self, graph, queries):
        with QueryEngine(
            MeLoPPRSolver(graph), backend=ThreadPoolBackend(2), cache=SubgraphCache()
        ) as engine:
            engine.solve_batch(queries)
            first = engine.stats().cache
            engine.solve_batch(queries)
            second = engine.stats().cache
            assert first is not None and first.misses > 0
            # The second pass re-extracts nothing it extracted in the first.
            assert second.misses == first.misses
            assert second.hits > first.hits

    def test_cache_disabled_reports_none(self, graph, queries):
        with QueryEngine(MeLoPPRSolver(graph), backend=ThreadPoolBackend(1)) as engine:
            results = engine.solve_batch(queries[:2])
            assert engine.stats().cache is None
            assert results[0].metadata["serving"]["cache_enabled"] is False
