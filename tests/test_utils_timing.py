"""Tests for repro.utils.timing."""

from __future__ import annotations

import pytest

from repro.utils.timing import TimingBreakdown


class TestTimingBreakdown:
    def test_add_and_total(self):
        breakdown = TimingBreakdown()
        breakdown.add("bfs", 0.5)
        breakdown.add("diffusion", 1.5)
        assert breakdown.total == pytest.approx(2.0)

    def test_add_accumulates_same_bucket(self):
        breakdown = TimingBreakdown()
        breakdown.add("bfs", 0.5)
        breakdown.add("bfs", 0.25)
        assert breakdown.seconds["bfs"] == pytest.approx(0.75)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            TimingBreakdown().add("bfs", -1.0)

    def test_measure_context_manager(self):
        breakdown = TimingBreakdown()
        with breakdown.measure("work"):
            sum(range(100))
        assert breakdown.seconds["work"] >= 0.0

    def test_measure_records_on_exception(self):
        breakdown = TimingBreakdown()
        with pytest.raises(RuntimeError):
            with breakdown.measure("work"):
                raise RuntimeError("boom")
        assert "work" in breakdown.seconds

