"""Wall-clock timing helpers used by the CPU-side measurements.

The FPGA side of the reproduction uses a cycle-accurate analytical model
(:mod:`repro.hardware`), but the CPU side (BFS extraction, NetworkX baseline,
MeLoPPR-CPU) is measured with real wall-clock time, exactly as the paper does
on the laptop platform.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict


class Stopwatch:
    """A simple re-startable stopwatch based on ``time.perf_counter``.

    Example
    -------
    >>> watch = Stopwatch()
    >>> watch.start()
    >>> _ = sum(range(1000))
    >>> elapsed = watch.stop()
    >>> elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self._elapsed = 0.0

    def start(self) -> "Stopwatch":
        """Start (or restart) the stopwatch, keeping accumulated time."""
        self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        """Stop the stopwatch and return the total accumulated seconds."""
        if self._start is None:
            raise RuntimeError("Stopwatch.stop() called before start()")
        self._elapsed += time.perf_counter() - self._start
        self._start = None
        return self._elapsed

    def reset(self) -> None:
        """Reset accumulated time to zero."""
        self._start = None
        self._elapsed = 0.0

    @property
    def elapsed(self) -> float:
        """Accumulated seconds, including the running interval if active."""
        running = 0.0
        if self._start is not None:
            running = time.perf_counter() - self._start
        return self._elapsed + running


@dataclass
class TimingBreakdown:
    """Named timing buckets, e.g. ``bfs``, ``diffusion``, ``aggregation``.

    The experiment harness uses one breakdown per query so that the BFS
    fraction reported in Fig. 7 can be computed.
    """

    seconds: Dict[str, float] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        """Accumulate ``value`` seconds into bucket ``name``."""
        if value < 0:
            raise ValueError(f"negative duration for {name!r}: {value}")
        self.seconds[name] = self.seconds.get(name, 0.0) + value

    def measure(self, name: str) -> "_Measure":
        """Context manager that times its body, even one that raises, into ``name``."""
        return _Measure(self, name)

    @property
    def total(self) -> float:
        """Sum of all buckets."""
        return sum(self.seconds.values())

    def fraction(self, name: str) -> float:
        """Fraction of the total spent in bucket ``name`` (0 if empty)."""
        total = self.total
        if total == 0:
            return 0.0
        return self.seconds.get(name, 0.0) / total

    def merge(self, other: "TimingBreakdown") -> "TimingBreakdown":
        """Return a new breakdown with bucket-wise sums of ``self`` and ``other``."""
        merged = TimingBreakdown(dict(self.seconds))
        for name, value in other.seconds.items():
            merged.add(name, value)
        return merged


class _Measure:
    """One :meth:`TimingBreakdown.measure` block: a plain object, not a
    generator, as the per-stage hot path opens several per wave."""

    __slots__ = ("_timing", "_name", "_start")

    def __init__(self, timing: TimingBreakdown, name: str) -> None:
        self._timing, self._name = timing, name

    def __enter__(self) -> None:
        self._start = time.perf_counter()

    def __exit__(self, *exc_info: object) -> None:
        # perf_counter is monotonic: no negative-duration check needed.
        elapsed, seconds = time.perf_counter() - self._start, self._timing.seconds
        seconds[self._name] = seconds.get(self._name, 0.0) + elapsed
