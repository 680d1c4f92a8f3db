"""Tests for repro.diffusion.sparse_vector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion.sparse_vector import SparseScoreVector


def vector(scores: dict) -> SparseScoreVector:
    return SparseScoreVector(list(scores), list(scores.values()))


class TestConstruction:
    def test_empty(self):
        empty = SparseScoreVector([], [])
        assert len(empty) == 0 and empty.top_k(3) == []
        assert empty.nodes().dtype == np.int64 and empty.values().dtype == np.float64

    def test_from_arrays(self):
        built = SparseScoreVector(np.array([3, 5]), np.array([0.1, 0.2]))
        assert dict(built.items()) == {3: 0.1, 5: 0.2}

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            SparseScoreVector(np.array([1, 2]), np.array([0.1]))

    def test_keeps_only_nonzero_entries_in_input_order(self):
        built = SparseScoreVector([7, 1, 4, 9, 2], [0.5, 0.0, -0.25, -0.0, 1e-300])
        assert built.nodes().tolist() == [7, 4, 2]
        assert built.values().tolist() == [0.5, -0.25, 1e-300]

    def test_keeps_its_own_copy_of_the_inputs(self):
        nodes, values = np.array([3, 5]), np.array([0.1, 0.2])
        built = SparseScoreVector(nodes, values)
        nodes[0], values[0] = 9, 9.0
        assert dict(built.items()) == {3: 0.1, 5: 0.2}


class TestTopK:
    def test_top_k_ordering(self):
        assert vector({1: 0.2, 2: 0.5, 3: 0.3}).top_k_nodes(2) == [2, 3]

    def test_top_k_ties_broken_by_node_id(self):
        assert vector({5: 0.5, 1: 0.5, 3: 0.5}).top_k_nodes(3) == [1, 3, 5]

    def test_top_k_larger_than_size(self):
        assert len(vector({1: 0.1}).top_k(10)) == 1

    def test_top_k_zero_or_negative(self):
        single = vector({1: 0.1})
        assert single.top_k(0) == []
        assert single.top_k(-2) == []

    def test_top_k_returns_scores(self):
        assert vector({1: 0.25}).top_k(1) == [(1, 0.25)]


class TestConversions:
    def test_nodes_and_values_aligned(self):
        built = vector({2: 0.2, 9: 0.9})
        mapping = dict(zip(built.nodes().tolist(), built.values().tolist()))
        assert mapping == {2: 0.2, 9: 0.9}


class TestImmutable:
    def test_arrays_are_read_only(self):
        built = vector({1: 0.5, 2: 0.25})
        for array in (built.nodes(), built.values()):
            with pytest.raises(ValueError):
                array[0] = 9
        assert dict(built.items()) == {1: 0.5, 2: 0.25}

    def test_no_attribute_can_be_added(self):
        with pytest.raises(AttributeError):
            vector({1: 0.5}).extra = 1

    def test_only_reads_are_public(self):
        public = {name for name in dir(SparseScoreVector) if not name.startswith("_")}
        assert public == {"items", "nodes", "values", "top_k", "top_k_nodes"}
