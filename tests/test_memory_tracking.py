"""Tests for repro.memory (tracemalloc tracker and reporting helpers)."""

from __future__ import annotations

import numpy as np

from repro.memory.report import MemorySummary, summarize_bytes
from repro.memory.tracker import MemoryTracker


class TestMemoryTracker:
    def test_measures_allocation(self):
        tracker = MemoryTracker()
        with tracker:
            payload = np.zeros(1_000_000, dtype=np.float64)
            del payload
        assert tracker.peak_bytes >= 8 * 1_000_000 * 0.9

    def test_disabled_tracker_reports_zero(self):
        tracker = MemoryTracker(enabled=False)
        with tracker:
            _ = np.zeros(100_000)
        assert tracker.peak_bytes == 0

    def test_peak_covers_the_allocation(self):
        tracker = MemoryTracker()
        with tracker:
            _ = bytearray(2 * 1024 * 1024)
        assert tracker.peak_bytes >= 1.5 * 1024 * 1024

    def test_nested_trackers(self):
        outer = MemoryTracker()
        inner = MemoryTracker()
        with outer:
            _ = bytearray(512 * 1024)
            with inner:
                _ = bytearray(1024 * 1024)
        assert inner.peak_bytes >= 1024 * 1024 * 0.9
        assert outer.peak_bytes >= inner.peak_bytes * 0.5

    def test_sequential_measurements_independent(self):
        first = MemoryTracker()
        with first:
            _ = bytearray(1024 * 1024)
        second = MemoryTracker()
        with second:
            _ = bytearray(64)
        assert second.peak_bytes < first.peak_bytes


class TestSummarizeBytes:
    def test_basic_summary(self):
        summary = summarize_bytes([1.0, 3.0, 2.0])
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert summary.mean == 2.0
        assert summary.count == 3

    def test_empty_summary(self):
        summary = summarize_bytes([])
        assert summary == MemorySummary(0.0, 0.0, 0.0, 0)
