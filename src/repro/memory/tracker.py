"""Peak-memory measurement with ``tracemalloc``.

Sec. VI-B of the paper: "For pure CPU implementation, the memory usage is
captured by the tracemalloc built-in module in Python."  This module wraps
``tracemalloc`` as a context manager so that every solver can report the peak
number of bytes allocated while answering a query, which feeds the Table II
comparison.
"""

from __future__ import annotations

import threading
import tracemalloc

__all__ = ["MemoryTracker"]


class MemoryTracker:
    """Context manager capturing peak allocated bytes inside its body.

    Parameters
    ----------
    enabled:
        When false the tracker is a no-op (``peak_bytes`` stays 0), which lets
        latency benchmarks opt out of the tracing overhead.

    Notes
    -----
    ``tracemalloc`` maintains a single global trace.  Nested trackers are
    supported: if tracing is already running when the tracker starts, the
    tracker snapshots the current peak, resets it, and restores tracing state
    on exit without stopping the outer trace.

    Because the trace is process-global, concurrent tracked sections cannot
    be attributed to their threads; enabled trackers therefore serialise on a
    shared re-entrant lock held for the lifetime of the ``with`` block.  Code
    that wants parallelism (e.g. the serving engine's thread-pool backend)
    should disable tracking instead of measuring concurrently.
    """

    #: Serialises all enabled tracked sections (tracemalloc is global state).
    _global_lock = threading.RLock()

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = bool(enabled)
        self._was_tracing = False
        self._peak_bytes = 0
        self._current_at_start = 0

    @property
    def peak_bytes(self) -> int:
        """Peak bytes allocated inside the ``with`` block (0 when disabled)."""
        return self._peak_bytes

    # ------------------------------------------------------------------
    def __enter__(self) -> "MemoryTracker":
        if not self._enabled:
            return self
        MemoryTracker._global_lock.acquire()
        self._was_tracing = tracemalloc.is_tracing()
        if not self._was_tracing:
            tracemalloc.start()
        current, _ = tracemalloc.get_traced_memory()
        self._current_at_start = current
        tracemalloc.reset_peak()
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if not self._enabled:
            return
        try:
            _, peak = tracemalloc.get_traced_memory()
            # Report the growth above the allocation level at entry so nested
            # and repeated measurements are comparable.
            self._peak_bytes = max(0, peak - self._current_at_start)
            if not self._was_tracing:
                tracemalloc.stop()
        finally:
            MemoryTracker._global_lock.release()
