"""Memory usage summaries (Table II bookkeeping)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["MemorySummary", "summarize_bytes"]


@dataclass(frozen=True)
class MemorySummary:
    """Min / max / mean of a set of per-query memory measurements, in bytes."""

    minimum: float
    maximum: float
    mean: float
    count: int


def summarize_bytes(values: Sequence[float]) -> MemorySummary:
    """Summarise a sequence of byte counts."""
    array = np.asarray(list(values), dtype=np.float64)
    if array.size == 0:
        return MemorySummary(0.0, 0.0, 0.0, 0)
    return MemorySummary(
        minimum=float(array.min()),
        maximum=float(array.max()),
        mean=float(array.mean()),
        count=int(array.size),
    )
