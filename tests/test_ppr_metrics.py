"""Tests for repro.ppr.metrics."""

from __future__ import annotations

import pytest

from repro.diffusion.sparse_vector import SparseScoreVector
from repro.ppr.base import PPRQuery, PPRResult
from repro.ppr.metrics import precision_at_k, result_precision


def _result(scores: dict, k: int = 3) -> PPRResult:
    return PPRResult(query=PPRQuery(seed=0, k=k), scores=SparseScoreVector(list(scores), list(scores.values())))


class TestPrecisionAtK:
    def test_perfect_match(self):
        assert precision_at_k([1, 2, 3], [3, 2, 1], 3) == 1.0

    def test_partial_overlap(self):
        assert precision_at_k([1, 2, 3, 4], [1, 2, 9, 8], 4) == pytest.approx(0.5)

    def test_no_overlap(self):
        assert precision_at_k([1, 2], [3, 4], 2) == 0.0

    def test_only_first_k_considered(self):
        assert precision_at_k([1, 2, 3], [1, 9, 9], 1) == 1.0

    def test_shorter_approximation_penalised(self):
        # Only one of the two requested nodes was produced and it is correct.
        assert precision_at_k([1], [1, 2], 2) == pytest.approx(0.5)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            precision_at_k([1], [1], 0)

    def test_both_empty(self):
        assert precision_at_k([], [], 5) == 1.0


class TestResultPrecision:
    def test_uses_query_k_by_default(self):
        approx = _result({1: 0.9, 2: 0.8, 3: 0.7})
        exact = _result({1: 0.9, 2: 0.8, 4: 0.7})
        assert result_precision(approx, exact) == pytest.approx(2 / 3)

    def test_explicit_k(self):
        approx = _result({1: 0.9, 2: 0.8})
        exact = _result({1: 0.9, 5: 0.8})
        assert result_precision(approx, exact, k=1) == 1.0
