"""Tests for repro.diffusion.transition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion.transition import TransitionOperator
from repro.graph.builder import GraphBuilder


class TestApply:
    def test_matches_explicit_matrix(self, small_ba_graph, rng):
        operator = TransitionOperator(small_ba_graph)
        matrix = operator.matrix()
        vector = rng.random(small_ba_graph.num_nodes)
        np.testing.assert_allclose(operator.apply(vector), matrix @ vector, atol=1e-12)

    def test_preserves_mass_on_connected_graph(self, triangle_graph):
        operator = TransitionOperator(triangle_graph)
        vector = np.array([1.0, 0.0, 0.0])
        result = operator.apply(vector)
        assert result.sum() == pytest.approx(1.0)

    def test_star_center_spreads_uniformly(self, star_graph):
        operator = TransitionOperator(star_graph)
        vector = np.zeros(7)
        vector[0] = 1.0
        result = operator.apply(vector)
        np.testing.assert_allclose(result[1:], np.full(6, 1.0 / 6.0))
        assert result[0] == 0.0

    def test_isolated_node_loses_mass(self):
        graph = GraphBuilder(num_nodes=3).add_edge(0, 1).build()
        operator = TransitionOperator(graph)
        vector = np.array([0.0, 0.0, 1.0])
        assert operator.apply(vector).sum() == 0.0

    def test_wrong_shape_rejected(self, triangle_graph):
        operator = TransitionOperator(triangle_graph)
        with pytest.raises(ValueError):
            operator.apply(np.zeros(5))

    def test_fig1_example_first_propagation(self, fig1_graph):
        """Fig. 1: W S0 = [0, 1/3, 1/3, 1/3] for the 4-node example."""
        operator = TransitionOperator(fig1_graph)
        s0 = np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(
            operator.apply(s0), [0.0, 1 / 3, 1 / 3, 1 / 3], atol=1e-12
        )

    def test_fig1_example_second_propagation(self, fig1_graph):
        """Fig. 1: W^2 S0 = [1, 0, 0, 0] — all leaves point back to the seed."""
        operator = TransitionOperator(fig1_graph)
        s0 = np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(operator.apply_power(s0, 2), [1.0, 0, 0, 0], atol=1e-12)


class TestApplyPower:
    def test_power_zero_is_identity(self, triangle_graph, rng):
        operator = TransitionOperator(triangle_graph)
        vector = rng.random(3)
        np.testing.assert_allclose(operator.apply_power(vector, 0), vector)

    def test_power_matches_repeated_apply(self, small_ba_graph, rng):
        operator = TransitionOperator(small_ba_graph)
        vector = rng.random(small_ba_graph.num_nodes)
        twice = operator.apply(operator.apply(vector))
        np.testing.assert_allclose(operator.apply_power(vector, 2), twice, atol=1e-12)

    def test_negative_power_rejected(self, triangle_graph):
        operator = TransitionOperator(triangle_graph)
        with pytest.raises(ValueError):
            operator.apply_power(np.zeros(3), -1)

    def test_columns_are_stochastic(self, small_citation_graph):
        matrix = TransitionOperator(small_citation_graph).matrix()
        column_sums = np.asarray(matrix.sum(axis=0)).ravel()
        degrees = small_citation_graph.degrees()
        np.testing.assert_allclose(column_sums[degrees > 0], 1.0, atol=1e-12)
