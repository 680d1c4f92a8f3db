"""Pluggable execution backends for the query-serving engine.

A backend answers one question: *how do the independent per-query jobs of a
batch run?*  The engine builds a closure per query (plan → execute → result)
and hands the whole batch to :meth:`ExecutionBackend.map`; the backend owns
ordering and concurrency.  Three backends ship today:

* :class:`SerialBackend` — the reference: runs jobs one by one on the calling
  thread.  Zero overhead, bit-identical to the historical sequential loop.
* :class:`ThreadPoolBackend` — a persistent ``ThreadPoolExecutor``.  The
  diffusion kernel spends its time in NumPy ufuncs that release the GIL, so
  threads overlap real work; results are still returned in submission order
  and are deterministic because every query's computation is independent.
* :class:`ProcessPoolBackend` — persistent worker *processes* serving the
  BFS-heavy stage tasks from a shared-memory copy of the graph.  The thread
  pool is GIL-bound for the Python share of the extraction work (frontier
  bookkeeping, sub-graph relabelling, id maps); the process pool is the first
  backend whose throughput scales past one core.  Workers attach the CSR
  buffers exported by :mod:`repro.serving.shm` once at spawn and then run
  pickled :class:`~repro.meloppr.planner.StageTask` groups as waves; planning
  and score folding stay in the parent, so scores are bit-identical to
  :class:`SerialBackend`.  Bound to a
  :class:`~repro.graph.partition.GraphPartition`, each worker is pinned to
  its shards' sub-graphs (per-shard shared segments) and a stage deeper than
  the halo runs in the parent.

Benchmarks, the server CLIs and user code construct any of them from a
compact spec string via :func:`make_backend` (``"serial"``, ``"thread:8"``,
``"process:4"``).
"""

from __future__ import annotations

import abc
import itertools
import multiprocessing
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from functools import partial
from multiprocessing.connection import wait as _connection_wait
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from repro.serving.cache import DEFAULT_CACHE_BYTES, CacheStats, SubgraphCache
from repro.serving.tracing import monotonic_wall, worker_wave_spans

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "WorkerCrashError",
    "make_backend",
]

#: Knuth's multiplicative hash constant (same spread as the hash partitioner).
_HASH_MULTIPLIER = 2654435761

T = TypeVar("T")
R = TypeVar("R")


class ExecutionBackend(abc.ABC):
    """Strategy running a batch of independent query jobs.

    Implementations must preserve input order in the returned list and must
    not reorder effects visible through a shared cache in a way that changes
    results (extractions are deterministic, so any interleaving is safe).
    """

    #: Short name used in stats, reports and benchmarks.
    name: str = "backend"

    #: Whether jobs may run simultaneously.  The engine uses this to disable
    #: per-query ``tracemalloc`` measurement, which is process-global and
    #: cannot attribute peaks to overlapping queries.
    concurrent: bool = False

    @abc.abstractmethod
    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Run ``fn`` over ``items``, returning results in input order."""

    def close(self) -> None:
        """Release any held resources (idempotent; default no-op)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """Run every job sequentially on the calling thread."""

    name = "serial"

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return [fn(item) for item in items]


class ThreadPoolBackend(ExecutionBackend):
    """Run jobs on a persistent thread pool.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to ``ThreadPoolExecutor``'s heuristic.  The pool
        is created lazily on first use and survives across batches so
        steady-state serving does not pay thread start-up per batch.
    """

    name = "thread-pool"
    concurrent = True

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError(f"max_workers must be > 0, got {max_workers}")
        self._max_workers = max_workers
        self._executor: Optional[ThreadPoolExecutor] = None

    @property
    def max_workers(self) -> Optional[int]:
        """Configured pool size (``None`` = executor default)."""
        return self._max_workers

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self._max_workers,
                thread_name_prefix="repro-serving",
            )
        return self._executor

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        # Executor.map yields results in submission order regardless of
        # completion order, which is exactly the ordering contract.
        return list(self._ensure_executor().map(fn, items))

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __repr__(self) -> str:
        workers = "default" if self._max_workers is None else self._max_workers
        return f"ThreadPoolBackend(max_workers={workers})"


class WorkerCrashError(RuntimeError):
    """A process-pool worker died (or the pool is unusable after a death).

    Raised for every stage task that was in flight when a worker crashed and
    for every dispatch attempted afterwards, so a killed worker surfaces as a
    clear batch error instead of a hang.  ``close()`` resets the pool; the
    next batch respawns fresh workers.
    """


# ----------------------------------------------------------------------
# Worker-side execution (runs in the spawned/forked worker processes).
# ----------------------------------------------------------------------
class _WireWave:
    """The slice of a one-ball :class:`~repro.graph.bfs.EgoWave` the planner folds.

    The parent's fold loop reads the ball's global ids, its row range, its
    adjacency-entry count, the BFS work and the hit flag — never the CSR
    arrays or the levels, which dominate the pickle cost of a full ball.
    Workers therefore ship this compact stand-in: ~third of the bytes,
    ~third of the parent-side unpickle time, and the parent's unpickle+fold
    throughput is exactly what bounds how many workers the pool can feed.
    """

    __slots__ = ("nodes", "bounds", "edges_scanned", "hits", "_entries")

    def __init__(self, subgraph, bfs, hit: bool) -> None:
        self.nodes = subgraph.global_ids
        self.bounds = np.array([0, subgraph.num_nodes])
        self.edges_scanned = np.array([bfs.edges_scanned])
        self.hits = np.array([hit])
        self._entries = np.array([subgraph.graph.indices.size])

    def entries(self) -> np.ndarray:
        return self._entries


def _compact_outcome(outcome):
    """Shrink a worker's StageTaskOutcome to the one-ball wave the planner folds."""
    from repro.meloppr.planner import StageWaveOutcome

    diffusion = outcome.diffusion
    return StageWaveOutcome(
        (outcome.task,),
        _WireWave(outcome.subgraph, outcome.bfs, outcome.cache_hit),
        diffusion.accumulated,
        diffusion.residual,
        np.array([diffusion.propagations]),
    )


class _WorkerState:
    """One worker's attached graph(s) and extraction cache(s).

    Built from the shared-memory descriptors the parent hands to
    :func:`_process_worker_main`; also constructed in-process by the unit
    tests, which is what keeps this logic under the coverage floor even
    though the worker loop itself runs in a child process.
    """

    def __init__(self, bindings, cache_bytes: Optional[int]) -> None:
        # Imported here (not at module top) so importing the backends module
        # stays light; workers pay the import once at spawn.
        from repro.graph.bfs import extract_wave
        from repro.serving.sharding import globalize_shard_extraction
        from repro.serving.shm import (
            SharedGraphDescriptor,
            SharedGraphHandle,
            SharedShardHandle,
        )

        self._caches: List[SubgraphCache] = []
        # shard id (None: the host graph) -> (wave graph, stage extractor).
        self._waves: Dict[Optional[int], Tuple[object, Callable]] = {}
        # Keeps the buffers mapped.  Set after _waves: attributes are released
        # in order, and a mapping closed under a live view raises BufferError.
        self._attachments: List[object] = []
        if isinstance(bindings, SharedGraphDescriptor):
            attached = SharedGraphHandle.attach(bindings)
            self._attachments.append(attached)
            cache = self._new_cache(cache_bytes)
            extract_stage = extract_wave if cache is None else cache.extract_wave
            self._waves[None] = (attached.graph, extract_stage)
        else:
            for descriptor in bindings:
                attached = SharedShardHandle.attach(descriptor)
                self._attachments.append(attached)
                # A shard wave's "graph" is the shard sub-graph itself.
                extract_stage = partial(
                    globalize_shard_extraction,
                    attached.host_name,
                    cache=self._new_cache(cache_bytes),
                )
                self._waves[attached.shard_id] = (attached.subgraph, extract_stage)

    def _new_cache(self, cache_bytes: Optional[int]) -> Optional[SubgraphCache]:
        if cache_bytes is None:
            return None
        self._caches.append(SubgraphCache(cache_bytes))
        return self._caches[-1]

    # ------------------------------------------------------------------
    def run_stage(self, entries) -> Tuple[List, Dict[str, float]]:
        """Run one message's same-stage ``(shard_id_or_None, task)`` entries.

        The tasks run as waves (:func:`~repro.meloppr.planner.execute_waves`),
        one group per shard held — or the host graph — with that graph's
        cached stage form as the extractor.  Returns per-ball outcomes in
        entry order (each wave split by
        :meth:`~repro.meloppr.planner.StageWaveOutcome.outcomes`) and the
        summed ``bfs`` / ``diffusion`` seconds.
        """
        from repro.meloppr.planner import execute_waves
        from repro.utils.timing import TimingBreakdown

        groups: Dict[Optional[int], List[int]] = {}
        for position, (shard_id, _) in enumerate(entries):
            groups.setdefault(shard_id, []).append(position)
        timing = TimingBreakdown()
        outcomes: List = [None] * len(entries)
        for shard_id, positions in groups.items():
            if shard_id not in self._waves:
                raise WorkerCrashError(
                    f"worker does not hold shard {shard_id} "
                    f"(holds {sorted(key for key in self._waves if key is not None)})"
                )
            graph, extract_stage = self._waves[shard_id]
            tasks = [entries[position][1] for position in positions]
            waves = execute_waves(graph, tasks, extract_stage, timing)
            balls = (outcome for wave in waves for outcome in wave.outcomes())
            for position, outcome in zip(positions, balls):
                outcomes[position] = outcome
        return outcomes, dict(timing.seconds)

    def cache_stats(self) -> Optional[CacheStats]:
        """Summed cache counters of this worker (``None`` with caching off)."""
        if not self._caches:
            return None
        totals = CacheStats()
        for cache in self._caches:
            totals = totals + cache.stats
        return totals

    def reset_cache_stats(self) -> None:
        """Zero every worker cache's counters (entries stay warm)."""
        for cache in self._caches:
            cache.reset_stats()


def _picklable_exception(exc: BaseException) -> BaseException:
    """The exception itself when it pickles, else a faithful stand-in."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _process_worker_main(
    worker_index: int,
    bindings,
    cache_bytes: Optional[int],
    requests,
    responses,
) -> None:  # pragma: no cover - runs in a child process
    """Worker loop: attach shared graph buffers once, serve stage tasks.

    Protocol (all over ``SimpleQueue`` — no feeder threads, so a worker can
    exit with ``os._exit`` without losing buffered responses).  Stage tasks
    arrive *grouped*: all of one stage's tasks routed to this worker travel
    in a single message, so the per-message IPC cost (two pickles, two
    context switches) is paid once per worker per stage instead of once per
    task — that overhead is what would otherwise eat the multi-core win on
    small sub-graphs — and the worker runs them as waves, one group per
    shard it holds (:meth:`_WorkerState.run_stage`):

    * request ``("tasks", request_id,
      [(shard_id_or_None, StageTask), ...], traced)``
      → response ``("ok", request_id, [StageTaskOutcome, ...], timing_seconds,
      span_dicts_or_None)`` or ``("err", request_id, exception)`` (the whole
      group fails).  ``traced`` piggybacks the query's sampling decision on
      the existing message; a traced group records one wall-anchored
      ``worker.wave`` span with extract/diffusion children (see
      :func:`repro.serving.tracing.worker_wave_spans`) which the parent
      re-parents into the query's trace — untraced groups ship ``None`` and
      skip every clock read.
    * request ``("stats", request_id)`` →
      response ``("stats", request_id, cache_counters_or_None)``
    * request ``("reset-stats", request_id)`` → zero the worker's cache
      counters (entries stay warm) → response ``("stats", request_id, None)``
    * request ``None`` → clean shutdown.
    """
    try:
        state = _WorkerState(bindings, cache_bytes)
    except BaseException as exc:
        responses.put(("spawn-err", worker_index, _picklable_exception(exc)))
        os._exit(1)
    responses.put(("ready", worker_index, None))
    exit_code = 0
    while True:
        try:
            item = requests.get()
        except (EOFError, OSError):
            exit_code = 1
            break
        if item is None:
            break
        kind = item[0]
        if kind == "tasks":
            _, request_id, entries, traced = item
            try:
                started = monotonic_wall() if traced else 0.0
                outcomes, timing = state.run_stage(entries)
                spans = None
                if traced:
                    spans = worker_wave_spans(
                        entries[0][1].stage_index,
                        sorted({shard for shard, _ in entries if shard is not None}),
                        started,
                        monotonic_wall(),
                        timing,
                        balls=len(outcomes),
                        cache_hits=sum(outcome.cache_hit for outcome in outcomes),
                    )
                outcomes = [_compact_outcome(outcome) for outcome in outcomes]
                responses.put(("ok", request_id, outcomes, timing, spans))
            except BaseException as exc:
                responses.put(("err", request_id, _picklable_exception(exc)))
        elif kind == "stats":
            _, request_id = item
            responses.put(("stats", request_id, state.cache_stats()))
        elif kind == "reset-stats":
            _, request_id = item
            state.reset_cache_stats()
            responses.put(("stats", request_id, None))
    # _exit skips interpreter teardown: a forked worker must not run the
    # parent's inherited atexit hooks (coverage, logging, ...) and SimpleQueue
    # writes are synchronous, so nothing is left buffered.
    os._exit(exit_code)


# ----------------------------------------------------------------------
# Parent-side backend.
# ----------------------------------------------------------------------
class ProcessPoolBackend(ExecutionBackend):
    """Serve stage tasks on persistent worker processes over shared memory.

    The backend must be bound before use — :class:`~repro.serving.engine.
    QueryEngine` does this at construction: :meth:`bind_graph` exports the
    host graph's CSR buffers to shared memory (every worker attaches the same
    segments), :meth:`bind_partition` exports one segment set per shard and
    pins each worker to the shards it serves (``shard_id % num_workers``).
    Workers start lazily on first dispatch and survive across batches; after
    :meth:`close` (which joins the workers and **unlinks** the shared
    segments) the next dispatch transparently respawns the pool from the
    stored binding.

    Division of labour per query: the parent runs the planner (folding,
    residual selection — cheap, Python) on :meth:`map`'s thread pool, while
    every :class:`~repro.meloppr.planner.StageTask` (BFS extraction +
    diffusion — the GIL-heavy share) is pickled to a worker, which runs its
    share of the stage as waves, and its
    :class:`~repro.meloppr.planner.StageTaskOutcome` pickled back, in
    submission order.  Scores are bit-identical to :class:`SerialBackend`
    because the fold order and every task's arithmetic are unchanged; only
    where the task ran differs.

    Parameters
    ----------
    num_workers:
        Worker processes; defaults to ``os.cpu_count()``.
    mp_context:
        Start method (``"fork"``/``"spawn"``/``"forkserver"``); defaults to
        ``"fork"`` where available (fast spawn, Linux) else ``"spawn"``.
    cache_bytes:
        Byte budget of each worker's extraction cache (workers cache
        extractions themselves — the parent's cache cannot help them).
        ``None`` disables worker-side caching.
    """

    name = "process-pool"
    concurrent = True
    #: Engines route plan execution through :meth:`run_stage_tasks` when set.
    executes_stage_tasks = True

    _JOIN_TIMEOUT_SECONDS = 5.0

    def __init__(
        self,
        num_workers: Optional[int] = None,
        mp_context: Optional[str] = None,
        cache_bytes: Optional[int] = DEFAULT_CACHE_BYTES,
    ) -> None:
        if num_workers is not None and num_workers <= 0:
            raise ValueError(f"num_workers must be > 0, got {num_workers}")
        if cache_bytes is not None and cache_bytes <= 0:
            raise ValueError(f"cache_bytes must be > 0 or None, got {cache_bytes}")
        self._num_workers = num_workers if num_workers is not None else (os.cpu_count() or 1)
        if mp_context is not None and mp_context not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"unknown start method {mp_context!r}; choose from "
                f"{multiprocessing.get_all_start_methods()}"
            )
        self._mp_context_name = mp_context
        self._cache_bytes = cache_bytes

        self._state_lock = threading.RLock()
        self._pending_lock = threading.Lock()
        self._task_ids = itertools.count()
        self._pending: Dict[int, Future] = {}
        self._broken: Optional[WorkerCrashError] = None
        self._stop_event: Optional[threading.Event] = None

        # Binding (what to serve) persists across close(); runtime state
        # (workers, queues, shared segments) is created per start.
        self._bound_graph = None
        self._bound_partition = None
        self._workers: List[multiprocessing.process.BaseProcess] = []
        self._request_queues: List[object] = []
        self._response_queue = None
        self._collector: Optional[threading.Thread] = None
        self._shm_handles: List[object] = []
        self._threads: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        """Configured worker-process count."""
        return self._num_workers

    @property
    def cache_bytes(self) -> Optional[int]:
        """Per-worker extraction-cache budget (``None`` = caching off)."""
        return self._cache_bytes

    @property
    def mp_context(self) -> Optional[str]:
        """Configured start-method name (``None`` = platform default)."""
        return self._mp_context_name

    @property
    def is_running(self) -> bool:
        """Whether worker processes are currently alive."""
        return bool(self._workers)

    def _context(self):
        if self._mp_context_name is not None:
            return multiprocessing.get_context(self._mp_context_name)
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context("fork" if "fork" in methods else "spawn")

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def bind_graph(self, graph) -> None:
        """Serve stage tasks for ``graph`` (whole host graph in every worker).

        Starts the workers eagerly so the spawn cost lands at engine
        construction, not inside the first measured batch.
        """
        with self._state_lock:
            if self._bound_partition is not None:
                raise RuntimeError("backend is already bound to a partition")
            if self._bound_graph is not None:
                if self._bound_graph is graph:
                    return
                raise RuntimeError(
                    f"backend is bound to graph {self._bound_graph.name!r}; "
                    f"create one ProcessPoolBackend per graph (got {graph.name!r})"
                )
            self._bound_graph = graph
            self._ensure_running()

    def bind_partition(self, partition) -> None:
        """Serve stage tasks for a partitioned graph (workers pinned to shards)."""
        with self._state_lock:
            if self._bound_graph is not None:
                raise RuntimeError("backend is already bound to a host graph")
            if self._bound_partition is not None:
                if self._bound_partition is partition:
                    return
                raise RuntimeError(
                    "backend is bound to a different partition; create one "
                    "ProcessPoolBackend per partition"
                )
            self._bound_partition = partition
            self._ensure_running()

    def rebind_graph(self, graph) -> None:
        """Swap the bound host graph after an in-place edge update.

        Tears the pool down and re-arms the stored binding: the next
        dispatch respawns workers attached to the *new* graph's shared
        buffers.  Worker-side caches die with the old processes — after a
        topology change that cold start is the price of correctness, and
        the respawn happens under the engine's writer barrier so no batch
        observes a half-swapped pool.
        """
        with self._state_lock:
            if self._bound_graph is None:
                raise RuntimeError(
                    "backend has no bound graph to rebind; call bind_graph() first"
                )
            self.close()
            self._bound_graph = graph
            self._bound_partition = None

    def rebind_partition(self, partition) -> None:
        """Swap the bound partition after an in-place edge update.

        Same lifecycle as :meth:`rebind_graph`: close the pool, store the
        patched partition, let the next dispatch respawn workers against
        the new shard buffers.
        """
        with self._state_lock:
            if self._bound_partition is None:
                raise RuntimeError(
                    "backend has no bound partition to rebind; call "
                    "bind_partition() first"
                )
            self.close()
            self._bound_partition = partition
            self._bound_graph = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_running(self) -> None:
        with self._state_lock:
            if self._broken is not None:
                raise self._broken
            if self._workers:
                return
            if self._bound_graph is None and self._bound_partition is None:
                raise RuntimeError(
                    "ProcessPoolBackend is unbound; call bind_graph() or "
                    "bind_partition() first (QueryEngine does this for you)"
                )
            self._start()

    def _start(self) -> None:
        """Export shared memory, spawn workers, start the collector."""
        from repro.serving.shm import SharedGraphHandle, SharedShardHandle

        context = self._context()
        handles: List[object] = []
        workers: List[multiprocessing.process.BaseProcess] = []
        request_queues = []
        response_queue = context.SimpleQueue()
        try:
            if self._bound_partition is not None:
                partition = self._bound_partition
                shard_handles = [
                    SharedShardHandle.export(
                        shard, partition.host.name, partition.halo_depth
                    )
                    for shard in partition.shards
                ]
                handles.extend(shard_handles)
                bindings = [
                    tuple(
                        handle.descriptor
                        for handle in shard_handles
                        if handle.descriptor.shard_id % self._num_workers == index
                    )
                    for index in range(self._num_workers)
                ]
            else:
                graph_handle = SharedGraphHandle.export(self._bound_graph)
                handles.append(graph_handle)
                bindings = [graph_handle.descriptor] * self._num_workers

            for index in range(self._num_workers):
                requests = context.SimpleQueue()
                worker = context.Process(
                    target=_process_worker_main,
                    args=(
                        index,
                        bindings[index],
                        self._cache_bytes,
                        requests,
                        response_queue,
                    ),
                    name=f"repro-serving-{index}",
                    daemon=True,
                )
                worker.start()
                workers.append(worker)
                request_queues.append(requests)
        except Exception:
            for worker in workers:
                worker.terminate()
            for handle in handles:
                handle.unlink()
            raise

        self._shm_handles = handles
        self._workers = workers
        self._request_queues = request_queues
        self._response_queue = response_queue
        self._broken = None
        # The stop event is per pool generation: a stale collector from a
        # previous generation can never observe it unset and poison the
        # respawned pool's state.
        stop_event = threading.Event()
        self._stop_event = stop_event
        self._collector = threading.Thread(
            target=self._collect,
            args=(response_queue, list(workers), stop_event),
            name="repro-serving-collector",
            daemon=True,
        )
        self._collector.start()

    def close(self) -> None:
        """Stop the workers and release every shared segment (idempotent).

        The shared-memory unlink runs in a ``finally`` so a wedged or crashed
        worker can delay the join but never leak ``/dev/shm`` — the
        engine relies on this from its own error paths.  The feeder threads
        are joined last, outside the state lock: a job of a batch that is
        still unwinding may be waiting on that lock, and until the join ends
        it gets the closing error instead of a respawned pool.
        """
        closed = WorkerCrashError("backend closed with stage tasks in flight")
        with self._state_lock:
            with self._pending_lock:
                self._broken = closed
            threads, self._threads = self._threads, None
        try:
            self._stop_workers(closed)
        finally:
            if threads is not None:
                threads.shutdown(wait=True)
            with self._state_lock:
                # A crashed pool is fully reset by close(); the stored
                # binding lets the next dispatch respawn a fresh pool.
                self._broken = None

    def _stop_workers(self, closed: WorkerCrashError) -> None:
        with self._state_lock:
            workers = self._workers
            request_queues = self._request_queues
            collector = self._collector
            handles = self._shm_handles
            stop_event = self._stop_event
            self._workers = []
            self._request_queues = []
            self._collector = None
            self._shm_handles = []
            self._stop_event = None
            if stop_event is not None:
                stop_event.set()
            try:
                for queue in request_queues:
                    try:
                        queue.put(None)
                    except (OSError, ValueError):  # pragma: no cover - worker gone
                        pass
                for worker in workers:
                    worker.join(timeout=self._JOIN_TIMEOUT_SECONDS)
                for worker in workers:
                    # The sentinel, not is_alive(): an exit status reaped
                    # elsewhere leaves is_alive() True on a pid that is gone.
                    exited = _connection_wait([worker.sentinel], timeout=0)
                    if not exited:  # pragma: no cover - wedged worker
                        worker.terminate()
                        worker.join(timeout=self._JOIN_TIMEOUT_SECONDS)
                if collector is not None:
                    collector.join(timeout=self._JOIN_TIMEOUT_SECONDS)
                self._fail_pending(closed)
            finally:
                for queue in request_queues:
                    try:
                        queue.close()
                    except OSError:  # pragma: no cover - already closed
                        pass
                if self._response_queue is not None:
                    try:
                        self._response_queue.close()
                    except OSError:  # pragma: no cover - already closed
                        pass
                    self._response_queue = None
                for handle in handles:
                    handle.unlink()

    # ------------------------------------------------------------------
    # Response collection / crash detection
    # ------------------------------------------------------------------
    def _collect(self, response_queue, workers, stop_event) -> None:
        """Collector thread: resolve futures, watch worker sentinels."""
        reader = response_queue._reader  # Connection; poll()/recv() via get()
        sentinels = [worker.sentinel for worker in workers]
        while True:
            try:
                ready = _connection_wait([reader] + sentinels, timeout=0.2)
                # Drain every available response before looking at deaths so
                # results that raced a crash still resolve.
                while reader.poll():
                    self._resolve(response_queue.get())
            except (OSError, EOFError):  # pragma: no cover - queue torn down
                return
            if stop_event.is_set():
                return
            # A ready sentinel means the worker has exited, even when its exit
            # status cannot be collected (with SIGCHLD ignored the kernel
            # reaps it and ``exitcode`` stays None).  Exit 0 is a clean stop.
            dead = [
                worker for worker in workers
                if worker.sentinel in ready and worker.exitcode != 0
            ]
            if dead:
                names = ", ".join(
                    f"{worker.name} (exit {worker.exitcode})" for worker in dead
                )
                error = WorkerCrashError(
                    f"process-pool worker died: {names}; the batch cannot "
                    "complete — close() the engine/backend to respawn"
                )
                with self._pending_lock:
                    self._broken = error
                self._fail_pending(error)
                return

    def _resolve(self, message) -> None:
        kind = message[0]
        if kind in ("ready", "spawn-err"):
            # Spawn failures surface through the sentinel path (the worker
            # exits non-zero); the explicit message just carries the cause.
            if kind == "spawn-err":
                with self._pending_lock:
                    self._broken = WorkerCrashError(
                        f"worker {message[1]} failed to attach shared graph "
                        f"buffers: {message[2]!r}"
                    )
            return
        future = self._pop_pending(message[1])
        if future is None:  # pragma: no cover - late response after a crash
            return
        if kind == "ok":
            future.set_result((message[2], message[3], message[4]))
        elif kind == "stats":
            future.set_result(message[2])
        else:
            future.set_exception(message[2])

    def _pop_pending(self, task_id: int) -> Optional[Future]:
        with self._pending_lock:
            return self._pending.pop(task_id, None)

    def _fail_pending(self, error: WorkerCrashError) -> None:
        with self._pending_lock:
            futures = list(self._pending.values())
            self._pending.clear()
        for future in futures:
            if not future.done():
                future.set_exception(error)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _route(self, task, shard_id: Optional[int]) -> int:
        """Which worker queue serves this task."""
        if shard_id is not None:
            return shard_id % self._num_workers
        # Centre-affine routing: the same extraction centre always lands on
        # the same worker, so its extraction cache actually sees the
        # workload's repeats (round-robin would spray hot seeds across
        # workers and miss everywhere).  Multiplicative hashing spreads cold
        # centres evenly; hot centres are cheap cache hits, so the affinity
        # skew costs less than the lost reuse would.
        return ((task.center * _HASH_MULTIPLIER) >> 16) % self._num_workers

    def _dispatch_group(
        self,
        queue_index: int,
        entries: List[Tuple[Optional[int], object]],
        traced: bool = False,
    ) -> Future:
        """Send one worker its share of a stage as a single message."""
        with self._pending_lock:
            if self._broken is not None:
                raise self._broken
            request_id = next(self._task_ids)
            future: Future = Future()
            self._pending[request_id] = future
        self._request_queues[queue_index].put(("tasks", request_id, entries, traced))
        return future

    def run_stage_tasks(
        self,
        tasks: Sequence,
        fallback: Optional[Callable] = None,
        timing=None,
        trace=None,
    ) -> List:
        """Execute one stage's tasks, in order, on the worker pool.

        Tasks are grouped per worker — one IPC message per worker per stage,
        not per task — which keeps the pickle/context-switch overhead
        amortised across a whole fan-out stage; each worker runs its share
        as waves.  With a partition binding, a stage deeper than the halo
        cannot be answered shard-locally: it runs as one wave in the calling
        thread through ``fallback``, the engine's stage hook (its router's,
        which serves it from the host graph through the fallback cache; a
        fresh extraction when ``None``).
        ``timing`` (a :class:`~repro.utils.timing.TimingBreakdown`) receives
        the ``bfs``/``diffusion`` buckets so plan timing stays populated
        under remote execution.  ``trace`` (an optional
        :class:`~repro.serving.tracing.TraceContext`) asks the workers to
        record one span per message, shipped back on the response and
        re-parented here under the caller's open stage span.
        """
        from repro.graph.bfs import extract_wave
        from repro.meloppr.planner import execute_waves
        from repro.utils.timing import TimingBreakdown

        tasks = list(tasks)
        if not tasks:
            return []
        if timing is None:
            timing = TimingBreakdown()
        partition = self._bound_partition
        if partition is not None and not partition.covers_depth(tasks[0].length):
            extract_stage = fallback if fallback is not None else extract_wave
            return list(execute_waves(partition.host, tasks, extract_stage, timing))
        self._ensure_running()
        slots: List[object] = [None] * len(tasks)
        groups: Dict[int, Tuple[List[int], List[Tuple[Optional[int], object]]]] = {}
        for position, task in enumerate(tasks):
            shard_id: Optional[int] = None
            if partition is not None:
                shard_id = int(partition.assignments[task.center])
            positions, entries = groups.setdefault(
                self._route(task, shard_id), ([], [])
            )
            positions.append(position)
            entries.append((shard_id, task))
        traced = trace is not None
        remote = [
            (positions, self._dispatch_group(queue_index, entries, traced))
            for queue_index, (positions, entries) in groups.items()
        ]
        for positions, future in remote:
            outcomes, group_timing, spans = future.result()
            for bucket, seconds in group_timing.items():
                timing.add(bucket, seconds)
            if trace is not None and spans:
                trace.adopt(spans)
            for position, outcome in zip(positions, outcomes):
                slots[position] = outcome
        return slots

    # ------------------------------------------------------------------
    # ExecutionBackend interface
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Run the per-query jobs on a parent thread pool.

        The jobs themselves are light in the parent — planning and score
        folding — and block on worker IPC for the heavy stage tasks, so a
        small thread pool keeps every worker process fed while preserving
        submission order.  (For solvers without a planner the jobs run
        entirely in these threads, i.e. the backend degrades to a thread
        pool — document, don't surprise.)
        """
        if len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._ensure_threads().map(fn, items))

    def _ensure_threads(self) -> ThreadPoolExecutor:
        with self._state_lock:
            if self._threads is None:
                self._threads = ThreadPoolExecutor(
                    max_workers=2 * self._num_workers,
                    thread_name_prefix="repro-serving-feeder",
                )
            return self._threads

    # ------------------------------------------------------------------
    _STATS_TIMEOUT_SECONDS = 5.0

    def cache_stats(self) -> Optional[CacheStats]:
        """Aggregate worker-side extraction-cache counters.

        A control round-trip to every worker; returns ``None`` while the
        pool is not running or when worker caching is disabled.  The control
        message queues behind in-flight stage-task groups, so the wait is
        bounded (:data:`_STATS_TIMEOUT_SECONDS`) and a busy or crashed pool
        degrades to ``None`` rather than stalling or raising into a stats
        endpoint.
        """
        with self._state_lock:
            if not self._workers or self._cache_bytes is None:
                return None
            futures = []
            for queue in self._request_queues:
                with self._pending_lock:
                    if self._broken is not None:
                        return None
                    request_id = next(self._task_ids)
                    future: Future = Future()
                    self._pending[request_id] = future
                queue.put(("stats", request_id))
                futures.append(future)
        totals = CacheStats()
        for future in futures:
            try:
                counters = future.result(timeout=self._STATS_TIMEOUT_SECONDS)
            except (WorkerCrashError, FutureTimeoutError):
                return None
            if counters is None:
                continue
            totals = totals + counters
        return totals

    def reset_cache_stats(self) -> None:
        """Zero every worker's extraction-cache counters (entries stay warm).

        The worker caches are the stage-task analogue of the engine-level
        :class:`~repro.serving.cache.SubgraphCache`, so per-interval server
        metrics must be able to reset them with the rest of the engine's
        counters (``QueryEngine.reset_stats(reset_cache_stats=True)`` calls
        this).  Same degradation contract as :meth:`cache_stats`: a stopped,
        cache-less, busy or crashed pool is a bounded-wait no-op, never a
        stall or an exception into a metrics endpoint.
        """
        with self._state_lock:
            if not self._workers or self._cache_bytes is None:
                return
            futures = []
            for queue in self._request_queues:
                with self._pending_lock:
                    if self._broken is not None:
                        return
                    request_id = next(self._task_ids)
                    future: Future = Future()
                    self._pending[request_id] = future
                queue.put(("reset-stats", request_id))
                futures.append(future)
        for future in futures:
            try:
                future.result(timeout=self._STATS_TIMEOUT_SECONDS)
            except (WorkerCrashError, FutureTimeoutError):
                return

    def __repr__(self) -> str:
        bound = "unbound"
        if self._bound_partition is not None:
            bound = f"partition[{self._bound_partition.num_shards}]"
        elif self._bound_graph is not None:
            bound = repr(self._bound_graph.name)
        return (
            f"ProcessPoolBackend(num_workers={self._num_workers}, "
            f"bound={bound}, running={self.is_running})"
        )


def make_backend(spec: Union[str, ExecutionBackend, None]) -> ExecutionBackend:
    """Build an execution backend from a compact spec string.

    Accepted specs (case-insensitive; the ``:N`` suffix is optional):

    ======================  ====================================================
    ``"serial"``            :class:`SerialBackend`
    ``"thread"``/``:N``     :class:`ThreadPoolBackend` (``N`` workers)
    ``"process"``/``:N``    :class:`ProcessPoolBackend` (``N`` worker
                            processes over shared-memory graph buffers)
    ======================  ====================================================

    ``None`` means :class:`SerialBackend`, and an :class:`ExecutionBackend`
    instance passes through unchanged, so CLI flags and library call sites can
    share one code path.
    """
    if spec is None:
        return SerialBackend()
    if isinstance(spec, ExecutionBackend):
        return spec
    name, separator, argument = spec.strip().lower().partition(":")
    workers: Optional[int] = None
    if separator:
        try:
            workers = int(argument)
        except ValueError:
            raise ValueError(
                f"backend spec {spec!r} has a non-integer worker count "
                f"{argument!r}"
            ) from None
    if name == "serial":
        if workers is not None:
            raise ValueError(f"the serial backend takes no worker count ({spec!r})")
        return SerialBackend()
    if name in ("thread", "threads", "thread-pool"):
        return ThreadPoolBackend(max_workers=workers)
    if name in ("process", "processes", "process-pool"):
        return ProcessPoolBackend(num_workers=workers)
    raise ValueError(
        f"unknown backend spec {spec!r}; expected 'serial', 'thread[:N]' "
        "or 'process[:N]'"
    )
