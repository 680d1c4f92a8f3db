"""Tests for repro.utils.validation."""

from __future__ import annotations

import pytest

from repro.utils.validation import (
    check_node_id,
    check_non_negative,
    check_non_negative_int,
    check_positive_int,
    check_probability,
)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative(0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            check_non_negative(-0.1, "x")

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            check_non_negative(None, "x")


class TestCheckProbability:
    def test_accepts_bounds(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0

    def test_accepts_interior(self):
        assert check_probability(0.85, "p") == 0.85

    def test_rejects_above_one(self):
        with pytest.raises(ValueError, match="<= 1"):
            check_probability(1.2, "p")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_probability(-0.2, "p")


class TestCheckNodeId:
    def test_accepts_valid(self):
        assert check_node_id(3, 10) == 3

    def test_accepts_zero(self):
        assert check_node_id(0, 1) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_node_id(-1, 10)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            check_node_id(10, 10)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_node_id(1.5, 10)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_node_id(True, 10)


class TestIntCheckers:
    def test_positive_int_accepts(self):
        assert check_positive_int(4, "n") == 4

    def test_positive_int_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "n")

    def test_positive_int_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int(1.0, "n")

    def test_non_negative_int_accepts_zero(self):
        assert check_non_negative_int(0, "n") == 0

    def test_non_negative_int_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative_int(-3, "n")
