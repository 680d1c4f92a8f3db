"""Execution-backend lifecycle tests and the make_backend registry.

Covers the contract pieces the engine relies on but never exercises
directly: ``close()`` idempotency, context-manager shutdown, exception
propagation from a failing job through ``map``, submission-order results
under concurrency, and lazy re-creation after close.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.serving import (
    ExecutionBackend,
    SerialBackend,
    ThreadPoolBackend,
    make_backend,
)

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

    def test_context_manager_closes(self, backend):
        with backend as entered:
            assert entered is backend
            assert entered.map(lambda x: x * 2, [1, 2]) == [2, 4]
        # Held resources are gone (lazy state reset where there is any).
        if isinstance(backend, ThreadPoolBackend):
            assert backend._executor is None

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

    def test_repr_names_the_pool_size(self):
        assert repr(ThreadPoolBackend(3)) == "ThreadPoolBackend(max_workers=3)"
        assert repr(ThreadPoolBackend()) == "ThreadPoolBackend(max_workers=default)"


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
