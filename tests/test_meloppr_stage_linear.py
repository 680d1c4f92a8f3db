"""Tests for the stage (Eq. 6) and linear (Eq. 7/8) decompositions.

The stage bookkeeping the planner uses is under test here; the one-graph
forms of both identities live in ``tests/oracle.py`` and are checked against
the direct diffusion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion.diffusion import graph_diffusion, seed_vector
from repro.meloppr.stage import StagePlan, split_length, stage_weights
from oracle import (
    ResidualComponent,
    linear_decomposed_diffusion,
    multi_stage_diffusion,
    split_residual,
    two_stage_diffusion,
)


class TestSplitLength:
    def test_even_split(self):
        assert split_length(6, 2) == (3, 3)

    def test_remainder_goes_to_earlier_stages(self):
        assert split_length(7, 2) == (4, 3)
        assert split_length(8, 3) == (3, 3, 2)

    def test_single_stage(self):
        assert split_length(5, 1) == (5,)

    def test_too_many_stages_rejected(self):
        with pytest.raises(ValueError):
            split_length(2, 3)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            split_length(0, 1)
        with pytest.raises(ValueError):
            split_length(4, 0)


class TestStageWeights:
    def test_paper_split(self):
        assert stage_weights((3, 3), 0.85) == pytest.approx([1.0, 0.85**3])

    def test_three_stages(self):
        weights = stage_weights((2, 2, 2), 0.5)
        assert weights == pytest.approx([1.0, 0.25, 0.0625])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stage_weights((), 0.85)

    def test_zero_length_stage_rejected(self):
        with pytest.raises(ValueError):
            stage_weights((3, 0), 0.85)


class TestStagePlan:
    def test_create(self):
        plan = StagePlan.create((3, 3), 0.85)
        assert plan.total_length == 6
        assert plan.num_stages == 2

    def test_residual_correction_matches_eq6(self):
        plan = StagePlan.create((3, 3), 0.85)
        assert plan.residual_correction(0) == pytest.approx(0.85**3)

    def test_residual_correction_later_stage(self):
        plan = StagePlan.create((2, 2, 2), 0.85)
        assert plan.residual_correction(1) == pytest.approx(0.85**2 * 0.85**2)

    def test_residual_correction_out_of_range(self):
        plan = StagePlan.create((3, 3), 0.85)
        with pytest.raises(IndexError):
            plan.residual_correction(5)


class TestStageDecompositionIdentity:
    """Eq. 6: GD(L)(S0) == GD(l1)(S0) + a^l1 GD(l2)(W^l1 S0) - a^l1 W^l1 S0."""

    @pytest.mark.parametrize("l1,l2", [(1, 5), (2, 4), (3, 3), (4, 2), (5, 1)])
    def test_two_stage_identity_on_ba_graph(self, small_ba_graph, l1, l2):
        initial = seed_vector(small_ba_graph.num_nodes, 3)
        direct = graph_diffusion(small_ba_graph, initial, l1 + l2, 0.85).accumulated
        decomposed = two_stage_diffusion(small_ba_graph, initial, l1, l2, 0.85)
        np.testing.assert_allclose(decomposed, direct, atol=1e-10)

    def test_two_stage_identity_on_star(self, star_graph):
        initial = seed_vector(7, 0)
        direct = graph_diffusion(star_graph, initial, 4, 0.5).accumulated
        decomposed = two_stage_diffusion(star_graph, initial, 2, 2, 0.5)
        np.testing.assert_allclose(decomposed, direct, atol=1e-12)

    @pytest.mark.parametrize("lengths", [(2, 2, 2), (1, 2, 3), (3, 2, 1), (1, 1, 1, 3)])
    def test_multi_stage_identity(self, small_ba_graph, lengths):
        initial = seed_vector(small_ba_graph.num_nodes, 9)
        direct = graph_diffusion(
            small_ba_graph, initial, sum(lengths), 0.85
        ).accumulated
        decomposed = multi_stage_diffusion(small_ba_graph, initial, lengths, 0.85)
        np.testing.assert_allclose(decomposed, direct, atol=1e-10)

    def test_identity_with_non_seed_initial_vector(self, small_ba_graph, rng):
        initial = rng.random(small_ba_graph.num_nodes)
        direct = graph_diffusion(small_ba_graph, initial, 4, 0.7).accumulated
        decomposed = two_stage_diffusion(small_ba_graph, initial, 2, 2, 0.7)
        np.testing.assert_allclose(decomposed, direct, atol=1e-10)

    def test_identity_with_different_alpha(self, small_citation_graph):
        initial = seed_vector(small_citation_graph.num_nodes, 17)
        for alpha in (0.2, 0.5, 0.99):
            direct = graph_diffusion(small_citation_graph, initial, 6, alpha).accumulated
            decomposed = two_stage_diffusion(small_citation_graph, initial, 3, 3, alpha)
            np.testing.assert_allclose(decomposed, direct, atol=1e-10)


class TestSplitResidual:
    def test_ordering_by_descending_value(self):
        components = split_residual(np.array([1, 2, 3]), np.array([0.1, 0.5, 0.3]))
        assert [c.node for c in components] == [2, 3, 1]

    def test_tolerance_drops_small_entries(self):
        components = split_residual(np.array([1, 2]), np.array([1e-15, 0.5]), tolerance=1e-12)
        assert [c.node for c in components] == [2]

    def test_values_preserved(self):
        components = split_residual(np.array([4]), np.array([0.25]))
        assert components == [ResidualComponent(4, 0.25)]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            split_residual(np.array([1]), np.array([0.1, 0.2]))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            split_residual(np.array([1]), np.array([0.1]), tolerance=-1.0)


class TestLinearDecompositionIdentity:
    """Eq. 7: GD(l2)(S^r) == sum_v GD(l2)(S^r_v)."""

    def test_identity_against_direct_diffusion(self, small_ba_graph):
        initial = seed_vector(small_ba_graph.num_nodes, 2)
        stage_one = graph_diffusion(small_ba_graph, initial, 3, 0.85)
        residual = stage_one.residual
        (nodes,) = np.nonzero(residual)
        direct = graph_diffusion(small_ba_graph, residual, 3, 0.85).accumulated
        decomposed = linear_decomposed_diffusion(
            small_ba_graph, nodes, residual[nodes], 3, 0.85
        )
        np.testing.assert_allclose(decomposed, direct, atol=1e-10)

    def test_identity_on_star_graph(self, star_graph):
        residual = np.array([0.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
        (nodes,) = np.nonzero(residual)
        direct = graph_diffusion(star_graph, residual, 2, 0.6).accumulated
        decomposed = linear_decomposed_diffusion(star_graph, nodes, residual[nodes], 2, 0.6)
        np.testing.assert_allclose(decomposed, direct, atol=1e-12)

    def test_empty_residual_gives_zero(self, triangle_graph):
        result = linear_decomposed_diffusion(
            triangle_graph, np.array([]), np.array([]), 2, 0.85
        )
        assert result.sum() == 0.0

    def test_combined_eq8_identity(self, small_ba_graph):
        """Eq. 8: the full stage + linear decomposition equals GD(L)."""
        alpha, l1, l2 = 0.85, 3, 3
        initial = seed_vector(small_ba_graph.num_nodes, 12)
        direct = graph_diffusion(small_ba_graph, initial, l1 + l2, alpha).accumulated

        stage_one = graph_diffusion(small_ba_graph, initial, l1, alpha)
        (nodes,) = np.nonzero(stage_one.residual)
        stage_two_sum = linear_decomposed_diffusion(
            small_ba_graph, nodes, stage_one.residual[nodes], l2, alpha
        )
        reconstructed = (
            stage_one.accumulated
            - (alpha**l1) * stage_one.residual
            + (alpha**l1) * stage_two_sum
        )
        np.testing.assert_allclose(reconstructed, direct, atol=1e-10)
