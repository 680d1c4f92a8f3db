"""Memory measurement substrate (tracemalloc tracking and reporting)."""

from repro.memory.report import MemorySummary, summarize_bytes
from repro.memory.tracker import MemoryTracker

__all__ = [
    "MemorySummary",
    "summarize_bytes",
    "MemoryTracker",
]
