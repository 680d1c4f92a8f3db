"""Tests for repro.diffusion.sparse_vector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion.sparse_vector import FrozenScoreVectorError, SparseScoreVector


class TestConstruction:
    def test_empty(self):
        vector = SparseScoreVector()
        assert len(vector) == 0
        assert vector.sum() == 0.0

    def test_from_dict(self):
        vector = SparseScoreVector({1: 0.5, 2: 0.25})
        assert vector.get(1) == 0.5

    def test_from_arrays(self):
        vector = SparseScoreVector.from_arrays(np.array([3, 5]), np.array([0.1, 0.2]))
        assert vector.get(5) == pytest.approx(0.2)

    def test_from_arrays_accumulates_duplicates(self):
        vector = SparseScoreVector.from_arrays(np.array([1, 1]), np.array([0.1, 0.2]))
        assert vector.get(1) == pytest.approx(0.3)

    def test_from_arrays_shape_mismatch(self):
        with pytest.raises(ValueError):
            SparseScoreVector.from_arrays(np.array([1, 2]), np.array([0.1]))

    def test_from_dense_with_tolerance(self):
        dense = np.array([0.0, 1e-9, 0.5])
        vector = SparseScoreVector.from_dense(dense, tolerance=1e-6)
        assert vector.nodes().tolist() == [2]

class TestArithmetic:
    def test_add_accumulates(self):
        vector = SparseScoreVector()
        vector.add(4, 0.5)
        vector.add(4, 0.25)
        assert vector.get(4) == pytest.approx(0.75)

    def test_scale(self):
        vector = SparseScoreVector({1: 2.0, 2: 4.0})
        vector.scale(0.5)
        assert vector.get(2) == pytest.approx(2.0)

    def test_prune_removes_small_entries(self):
        vector = SparseScoreVector({1: 1e-15, 2: 0.5})
        vector.prune(1e-12)
        assert vector.nodes().tolist() == [2]

    def test_sum(self):
        assert SparseScoreVector({1: 0.25, 2: 0.75}).sum() == pytest.approx(1.0)


class TestTopK:
    def test_top_k_ordering(self):
        vector = SparseScoreVector({1: 0.2, 2: 0.5, 3: 0.3})
        assert vector.top_k_nodes(2) == [2, 3]

    def test_top_k_ties_broken_by_node_id(self):
        vector = SparseScoreVector({5: 0.5, 1: 0.5, 3: 0.5})
        assert vector.top_k_nodes(3) == [1, 3, 5]

    def test_top_k_larger_than_size(self):
        vector = SparseScoreVector({1: 0.1})
        assert len(vector.top_k(10)) == 1

    def test_top_k_zero_or_negative(self):
        vector = SparseScoreVector({1: 0.1})
        assert vector.top_k(0) == []
        assert vector.top_k(-2) == []

    def test_top_k_returns_scores(self):
        vector = SparseScoreVector({1: 0.25})
        assert vector.top_k(1) == [(1, 0.25)]


class TestConversions:
    def test_nodes_and_values_aligned(self):
        vector = SparseScoreVector({2: 0.2, 9: 0.9})
        mapping = dict(zip(vector.nodes().tolist(), vector.values().tolist()))
        assert mapping == {2: 0.2, 9: 0.9}


class TestFreeze:
    def test_frozen_vector_refuses_every_in_place_update(self):
        vector = SparseScoreVector({1: 0.5, 2: 0.25, 3: 0.0})
        assert not vector.frozen
        assert vector.freeze() is vector and vector.frozen
        for update in (
            lambda: vector.add(1, 0.1),
            lambda: vector.add(9, 0.1),
            lambda: vector.scale(2.0),
            lambda: vector.prune(),
        ):
            with pytest.raises(FrozenScoreVectorError):
                update()
        assert dict(vector.items()) == {1: 0.5, 2: 0.25, 3: 0.0}
        # Not only the methods: the arrays themselves are read-only.
        with pytest.raises(ValueError):
            vector._values[0] = 9.0
        assert vector.freeze().frozen  # idempotent

    def test_reads_and_rebuilds_still_work(self):
        vector = SparseScoreVector({1: 0.5, 2: 0.25}).freeze()
        assert vector.get(2) == 0.25 and vector.top_k(1) == [(1, 0.5)]
        clone = SparseScoreVector.from_arrays(vector.nodes(), vector.values())
        assert not clone.frozen
        clone.scale(2.0)
        assert clone.get(1) == 1.0 and vector.get(1) == 0.5
