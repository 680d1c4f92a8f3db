"""Tests for repro.diffusion.diffusion (the GD(l)(S0) kernel)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion.diffusion import (
    DEFAULT_ALPHA,
    graph_diffusion,
    seed_vector,
)
from repro.diffusion.transition import TransitionOperator


class TestSeedVector:
    def test_one_hot(self):
        vector = seed_vector(5, 3)
        assert vector[3] == 1.0
        assert vector.sum() == 1.0

    def test_custom_value(self):
        assert seed_vector(4, 0, value=2.5)[0] == 2.5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            seed_vector(4, 4)


class TestGraphDiffusion:
    def test_length_zero_is_identity(self, triangle_graph):
        initial = seed_vector(3, 0)
        result = graph_diffusion(triangle_graph, initial, 0, 0.85)
        np.testing.assert_allclose(result.accumulated, initial)
        np.testing.assert_allclose(result.residual, initial)

    def test_matches_recursive_definition(self, small_ba_graph):
        """S_{l+1} = (1 - a) S0 + a W S_l (Eq. 1), iterated explicitly."""
        alpha, length = 0.85, 4
        operator = TransitionOperator(small_ba_graph)
        initial = seed_vector(small_ba_graph.num_nodes, 7)
        expected = initial.copy()
        for _ in range(length):
            expected = (1 - alpha) * initial + alpha * operator.apply(expected)
        result = graph_diffusion(operator, initial, length, alpha)
        np.testing.assert_allclose(result.accumulated, expected, atol=1e-12)

    def test_residual_is_walk_power(self, small_ba_graph):
        operator = TransitionOperator(small_ba_graph)
        initial = seed_vector(small_ba_graph.num_nodes, 3)
        result = graph_diffusion(operator, initial, 3, 0.85)
        np.testing.assert_allclose(
            result.residual, operator.apply_power(initial, 3), atol=1e-12
        )

    def test_mass_conservation_connected_graph(self, triangle_graph):
        result = graph_diffusion(triangle_graph, seed_vector(3, 0), 5, 0.85)
        assert result.accumulated.sum() == pytest.approx(1.0)

    def test_alpha_zero_keeps_all_mass_at_seed(self, star_graph):
        result = graph_diffusion(star_graph, seed_vector(7, 0), 3, 0.0)
        assert result.accumulated[0] == pytest.approx(1.0)
        assert result.accumulated[1:].sum() == pytest.approx(0.0)

    def test_alpha_one_is_pure_walk(self, star_graph):
        result = graph_diffusion(star_graph, seed_vector(7, 0), 1, 1.0)
        np.testing.assert_allclose(result.accumulated, result.residual)

    def test_fig1_first_iteration(self, fig1_graph):
        """Fig. 1 of the paper: S1 = (1-a) S0 + a W S0 with a = 1/10."""
        alpha = 0.1
        result = graph_diffusion(fig1_graph, seed_vector(4, 0), 1, alpha)
        expected = [0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3]
        np.testing.assert_allclose(result.accumulated, expected, atol=1e-12)

    def test_operator_and_graph_inputs_agree(self, small_ba_graph):
        initial = seed_vector(small_ba_graph.num_nodes, 11)
        via_graph = graph_diffusion(small_ba_graph, initial, 3, 0.85)
        via_operator = graph_diffusion(
            TransitionOperator(small_ba_graph), initial, 3, 0.85
        )
        np.testing.assert_allclose(via_graph.accumulated, via_operator.accumulated)

    def test_scores_non_negative(self, small_citation_graph):
        result = graph_diffusion(
            small_citation_graph, seed_vector(small_citation_graph.num_nodes, 5), 6, 0.85
        )
        assert (result.accumulated >= -1e-15).all()
        assert (result.residual >= -1e-15).all()

    def test_propagations_counted(self, star_graph):
        result = graph_diffusion(star_graph, seed_vector(7, 0), 2, 0.85)
        # Iteration 1 scans the centre's 6 edges, iteration 2 scans the six
        # leaves' single edges.
        assert result.propagations == 12

    def test_wrong_initial_shape(self, triangle_graph):
        with pytest.raises(ValueError):
            graph_diffusion(triangle_graph, np.zeros(5), 2, 0.85)

    def test_negative_length_rejected(self, triangle_graph):
        with pytest.raises(ValueError):
            graph_diffusion(triangle_graph, np.zeros(3), -1, 0.85)

    def test_bad_alpha_rejected(self, triangle_graph):
        with pytest.raises(ValueError):
            graph_diffusion(triangle_graph, seed_vector(3, 0), 2, 1.5)

    def test_linearity_in_initial_vector(self, small_ba_graph, rng):
        """GD(l) is linear: GD(a + b) = GD(a) + GD(b)."""
        n = small_ba_graph.num_nodes
        a = rng.random(n)
        b = rng.random(n)
        operator = TransitionOperator(small_ba_graph)
        combined = graph_diffusion(operator, a + b, 3, 0.85).accumulated
        separate = (
            graph_diffusion(operator, a, 3, 0.85).accumulated
            + graph_diffusion(operator, b, 3, 0.85).accumulated
        )
        np.testing.assert_allclose(combined, separate, atol=1e-10)

    def test_default_alpha_constant(self):
        assert DEFAULT_ALPHA == 0.85


class TestDiffusionWork:
    def test_propagations_bounded_by_every_edge_twice_per_step(self, small_ba_graph):
        result = graph_diffusion(
            small_ba_graph, seed_vector(small_ba_graph.num_nodes, 0), 3, 0.85
        )
        assert result.propagations <= 2 * small_ba_graph.num_edges * 3
