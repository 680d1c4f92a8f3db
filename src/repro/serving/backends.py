"""Pluggable execution backends for the query-serving engine.

A backend answers one question: *how do the independent per-query jobs of a
batch run?*  The engine builds a closure per query (plan → execute → result)
and hands the whole batch to :meth:`ExecutionBackend.map`; the backend owns
ordering and concurrency.  Two backends ship today:

* :class:`SerialBackend` — the reference: runs jobs one by one on the calling
  thread.  Zero overhead, bit-identical to the historical sequential loop.
* :class:`ThreadPoolBackend` — a persistent ``ThreadPoolExecutor``.  The
  diffusion kernel spends its time in NumPy ufuncs that release the GIL, so
  threads overlap real work; results are still returned in submission order
  and are deterministic because every query's computation is independent.

Benchmarks, the server CLIs and user code construct any of them from a
compact spec string via :func:`make_backend` (``"serial"``, ``"thread:8"``).
"""

from __future__ import annotations

import abc
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar, Union

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "make_backend",
]

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


def make_backend(spec: Union[str, ExecutionBackend, None]) -> ExecutionBackend:
    """Build an execution backend from a compact spec string.

    Accepted specs (case-insensitive; the ``:N`` suffix is optional):

    ======================  ====================================================
    ``"serial"``            :class:`SerialBackend`
    ``"thread"``/``:N``     :class:`ThreadPoolBackend` (``N`` workers)
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
    raise ValueError(
        f"unknown backend spec {spec!r}; expected 'serial' or 'thread[:N]'"
    )
