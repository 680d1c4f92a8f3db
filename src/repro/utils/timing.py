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
