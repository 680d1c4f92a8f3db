"""Tests for the fixed-point (integer) datapath model of Sec. V-A."""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion.diffusion import graph_diffusion, seed_vector
from repro.graph.bfs import extract_ego_subgraph
from repro.meloppr.fixed_point import (
    FixedPointFormat,
    fixed_point_diffusion,
    quantize_alpha,
)
from repro.ppr.metrics import precision_at_k


class TestQuantizeAlpha:
    def test_q10_default(self):
        numerator, shift = quantize_alpha(0.85, 10)
        assert shift == 10
        assert numerator == round(0.85 * 1024)

    def test_effective_alpha_close(self):
        numerator, shift = quantize_alpha(0.85, 10)
        assert numerator / (1 << shift) == pytest.approx(0.85, abs=1e-3)

    def test_clamped_to_16_bits(self):
        numerator, _ = quantize_alpha(1.0, 20)
        assert numerator < 2**16

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            quantize_alpha(1.5, 10)

    def test_invalid_shift(self):
        with pytest.raises(ValueError):
            quantize_alpha(0.85, 0)


class TestFixedPointFormat:
    def test_for_subgraph_follows_paper_recipe(self):
        fmt = FixedPointFormat.for_subgraph(0.85, subgraph_nodes=1000, degree_scale=20.0)
        assert fmt.seed_value == 20_000
        assert fmt.shift_bits == 10

    def test_seed_value_clamped_to_32_bits(self):
        fmt = FixedPointFormat.for_subgraph(0.85, subgraph_nodes=10**9, degree_scale=100.0)
        assert fmt.seed_value < 2**32

    def test_to_float_normalises_by_seed_value(self):
        fmt = FixedPointFormat(seed_value=2000, alpha_numerator=870, shift_bits=10)
        assert fmt.to_float(np.array([1000]))[0] == pytest.approx(0.5)

    def test_invalid_seed_value(self):
        with pytest.raises(ValueError):
            FixedPointFormat(seed_value=0, alpha_numerator=870, shift_bits=10)

    def test_invalid_alpha_numerator(self):
        with pytest.raises(ValueError):
            FixedPointFormat(seed_value=10, alpha_numerator=2**16, shift_bits=10)

    def test_invalid_degree_scale(self):
        with pytest.raises(ValueError):
            FixedPointFormat.for_subgraph(0.85, subgraph_nodes=10, degree_scale=0.0)


class TestFixedPointDiffusion:
    def test_total_mass_never_exceeds_seed_value(self, small_ba_graph):
        fmt = FixedPointFormat.for_subgraph(0.85, small_ba_graph.num_nodes, 20.0)
        result = fixed_point_diffusion(small_ba_graph, 0, 3, fmt)
        assert result.accumulated_int.sum() <= fmt.seed_value

    def test_scores_non_negative(self, small_ba_graph):
        fmt = FixedPointFormat.for_subgraph(0.85, small_ba_graph.num_nodes, 20.0)
        result = fixed_point_diffusion(small_ba_graph, 0, 4, fmt)
        assert (result.accumulated_int >= 0).all()
        assert (result.residual_int >= 0).all()

    def test_length_zero(self, triangle_graph):
        fmt = FixedPointFormat.for_subgraph(0.85, 3, 2.0)
        result = fixed_point_diffusion(triangle_graph, 1, 0, fmt)
        assert result.accumulated_int[1] == fmt.seed_value

    def test_invalid_seed(self, triangle_graph):
        fmt = FixedPointFormat.for_subgraph(0.85, 3, 2.0)
        with pytest.raises(ValueError):
            fixed_point_diffusion(triangle_graph, 7, 2, fmt)

    def test_matches_float_topk_with_large_scale(self, citeseer_standin):
        """Sec. V-A: a large enough Max keeps the top-k ranking nearly intact."""
        subgraph, _ = extract_ego_subgraph(citeseer_standin, 10, 6)
        local_seed = subgraph.to_local(10)
        float_result = graph_diffusion(
            subgraph.graph, seed_vector(subgraph.num_nodes, local_seed), 6, 0.85
        )
        degrees = subgraph.graph.degrees()
        fmt = FixedPointFormat.for_subgraph(
            0.85, subgraph.num_nodes, degree_scale=float(degrees.max())
        )
        int_result = fixed_point_diffusion(subgraph.graph, local_seed, 6, fmt)
        k = 50
        float_topk = np.argsort(-float_result.accumulated, kind="stable")[:k]
        int_topk = np.argsort(-int_result.accumulated_int, kind="stable")[:k]
        assert precision_at_k(int_topk.tolist(), float_topk.tolist(), k) >= 0.8

    def test_larger_scale_is_at_least_as_precise(self, citeseer_standin):
        """Bigger Max (degree scale) must not reduce top-k agreement (shape of Sec. V-A)."""
        subgraph, _ = extract_ego_subgraph(citeseer_standin, 25, 6)
        local_seed = subgraph.to_local(25)
        float_result = graph_diffusion(
            subgraph.graph, seed_vector(subgraph.num_nodes, local_seed), 6, 0.85
        )
        k = 50
        float_topk = np.argsort(-float_result.accumulated, kind="stable")[:k].tolist()
        degrees = subgraph.graph.degrees()
        precisions = []
        for scale in (degrees.mean(), degrees.max() / 2.0, float(degrees.max())):
            fmt = FixedPointFormat.for_subgraph(0.85, subgraph.num_nodes, max(scale, 1.0))
            int_result = fixed_point_diffusion(subgraph.graph, local_seed, 6, fmt)
            int_topk = np.argsort(-int_result.accumulated_int, kind="stable")[:k].tolist()
            precisions.append(precision_at_k(int_topk, float_topk, k))
        assert precisions[0] <= precisions[-1] + 0.05
