"""Tests for next-stage selection strategies and the global score table."""

from __future__ import annotations

import numpy as np
import pytest

from repro.meloppr.aggregation import GlobalScoreTable
from repro.meloppr.selection import (
    AllSelector,
    CountSelector,
    RatioSelector,
)


NODES = np.array([10, 20, 30, 40, 50])
RESIDUALS = np.array([0.05, 0.4, 0.1, 0.3, 0.15])


class TestRatioSelector:
    def test_selects_top_fraction(self):
        selected = RatioSelector(0.4).select(NODES, RESIDUALS)
        assert list(selected) == [20, 40]

    def test_minimum_enforced(self):
        selected = RatioSelector(0.0, minimum=1).select(NODES, RESIDUALS)
        assert list(selected) == [20]

    def test_ratio_one_selects_all_in_order(self):
        selected = RatioSelector(1.0).select(NODES, RESIDUALS)
        assert list(selected) == [20, 40, 50, 30, 10]

    def test_empty_candidates(self):
        selected = RatioSelector(0.5).select(np.array([]), np.array([]))
        assert selected.size == 0

    def test_rounding_up(self):
        # ceil(0.25 * 5) = 2
        assert RatioSelector(0.25).select(NODES, RESIDUALS).size == 2

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            RatioSelector(1.5)

    def test_invalid_minimum(self):
        with pytest.raises(ValueError):
            RatioSelector(0.5, minimum=-1)

    def test_repr(self):
        assert "0.02" in repr(RatioSelector(0.02))


class TestCountSelector:
    def test_fixed_count(self):
        assert list(CountSelector(3).select(NODES, RESIDUALS)) == [20, 40, 50]

    def test_count_larger_than_candidates(self):
        assert CountSelector(99).select(NODES, RESIDUALS).size == 5

    def test_zero_count(self):
        assert CountSelector(0).select(NODES, RESIDUALS).size == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CountSelector(-1)


class TestSelectorContract:
    """The plan hands ``select`` each candidate once, in ascending node order;
    the answer must not depend on that order."""

    @pytest.mark.parametrize(
        "selector",
        [
            RatioSelector(0.3),
            RatioSelector(0.0, minimum=40),  # the minimum exceeds the candidates
            CountSelector(7),
            AllSelector(),
        ],
        ids=repr,
    )
    def test_shuffled_candidates_give_the_same_array(self, selector):
        rng = np.random.default_rng(11)
        nodes = np.arange(0, 60, 2, dtype=np.int64)
        residuals = rng.choice([0.1, 0.25, 0.5], size=nodes.size)  # many ties
        expected = selector.select(nodes, residuals)
        assert expected.size
        for _ in range(5):
            order = rng.permutation(nodes.size)
            np.testing.assert_array_equal(selector.select(nodes[order], residuals[order]), expected)


class TestAllSelector:
    def test_selects_everything_ordered(self):
        assert list(AllSelector().select(NODES, RESIDUALS)) == [20, 40, 50, 30, 10]

    def test_tie_breaking_by_node_id(self):
        nodes = np.array([5, 3, 9])
        residuals = np.array([0.5, 0.5, 0.5])
        assert list(AllSelector().select(nodes, residuals)) == [3, 5, 9]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AllSelector().select(np.array([1, 2]), np.array([0.1]))


class TestGlobalScoreTable:
    def test_unbounded_accumulation(self):
        table = GlobalScoreTable()
        table.add(1, 0.5)
        table.add(1, 0.25)
        assert table.get(1) == pytest.approx(0.75)

    def test_capacity_evicts_minimum(self):
        table = GlobalScoreTable(capacity=2)
        table.add(1, 0.5)
        table.add(2, 0.1)
        table.add(3, 0.3)
        assert 2 not in table
        assert table.num_entries == 2
        assert table.total_evictions == 1

    def test_eviction_is_final(self):
        table = GlobalScoreTable(capacity=2)
        table.add(1, 0.5)
        table.add(2, 1.0)
        table.add(3, 0.75)  # evicts 1 and its 0.5 for good
        table.add(1, 0.8)   # 1 returns with 0.8 alone and evicts 3
        assert table.top_k(3) == [(2, 1.0), (1, 0.8)]
        assert table.total_evictions == 2

    def test_top_k_ordering(self):
        table = GlobalScoreTable()
        table.add_many([1, 2, 3], [0.2, 0.9, 0.5])
        assert [node for node, _ in table.top_k(2)] == [2, 3]

    def test_top_k_zero(self):
        assert GlobalScoreTable().top_k(0) == []

    def test_to_sparse_vector_roundtrip(self):
        table = GlobalScoreTable()
        table.add_many([1, 2], [0.1, 0.2])
        vector = table.to_sparse_vector()
        assert dict(vector.items()) == {1: 0.1, 2: 0.2}

    def test_nbytes_is_eight_per_entry(self):
        table = GlobalScoreTable()
        table.add_many(range(10), [1.0] * 10)
        assert table.nbytes() == 80

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            GlobalScoreTable(capacity=0)

    def test_len(self):
        table = GlobalScoreTable(capacity=5)
        table.add(1, 1.0)
        assert len(table) == 1

    def test_total_updates_counted(self):
        table = GlobalScoreTable()
        table.add_many([1, 2, 3], [0.1, 0.1, 0.1])
        assert table.total_updates == 3

    @pytest.mark.parametrize(
        "nodes, scores",
        [
            ([1, 2, 3], [0.1, 0.2]),
            ([1], [0.1, 0.2]),
            (np.arange(4), np.ones(3)),
            (iter([1, 2]), iter([0.5])),
        ],
    )
    def test_add_many_rejects_a_length_mismatch(self, nodes, scores):
        table = GlobalScoreTable()
        with pytest.raises(ValueError, match="equal length"):
            table.add_many(nodes, scores)
        assert table.total_updates == 0 and len(table) == 0

    def test_add_many_takes_arrays_as_the_same_python_numbers(self):
        nodes = np.asarray([5, 7, 5, 9], dtype=np.int32)
        scores = np.asarray([0.1, 0.2, 0.3, 0.7], dtype=np.float64)
        from_arrays = GlobalScoreTable(capacity=2)
        from_arrays.add_many(nodes, scores)
        one_by_one = GlobalScoreTable(capacity=2)
        for node, score in zip(nodes, scores):
            one_by_one.add(int(node), float(score))
        assert from_arrays.snapshot() == one_by_one.snapshot()
        assert from_arrays.snapshot().ids.dtype == np.int64
        assert all(
            type(node) is int and type(score) is float
            for node, score in from_arrays.top_k(2)
        )

    def test_bounded_table_top_k_matches_unbounded_for_large_capacity(self):
        unbounded = GlobalScoreTable()
        bounded = GlobalScoreTable(capacity=100)
        values = {i: float(i % 17) + 0.01 * i for i in range(50)}
        for node, value in values.items():
            unbounded.add(node, value)
            bounded.add(node, value)
        assert bounded.top_k(10) == unbounded.top_k(10)
