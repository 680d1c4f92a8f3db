"""Tests for repro.graph.bfs and repro.graph.subgraph."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.bfs import bfs_levels, extract_ego_subgraph
from repro.graph.builder import GraphBuilder
from repro.graph.subgraph import Subgraph


class TestBFSLevels:
    def test_depth_zero_returns_only_source(self, path_graph):
        result = bfs_levels(path_graph, 2, 0)
        assert list(result.nodes) == [2]
        assert list(result.levels) == [0]

    def test_path_levels(self, path_graph):
        result = bfs_levels(path_graph, 0, 3)
        assert set(result.nodes.tolist()) == {0, 1, 2, 3}
        assert dict(zip(result.nodes.tolist(), result.levels.tolist()))[3] == 3

    def test_depth_limits_reach(self, path_graph):
        result = bfs_levels(path_graph, 0, 2)
        assert 3 not in result.nodes
        assert 4 not in result.nodes

    def test_star_one_hop(self, star_graph):
        result = bfs_levels(star_graph, 0, 1)
        assert result.nodes.size == 7

    def test_levels_are_shortest_distances(self, star_graph):
        result = bfs_levels(star_graph, 1, 2)
        distances = dict(zip(result.nodes.tolist(), result.levels.tolist()))
        assert distances[0] == 1
        assert distances[2] == 2

    def test_edges_scanned_counts_frontier_degrees(self, star_graph):
        result = bfs_levels(star_graph, 0, 1)
        assert result.edges_scanned == 6

    def test_disconnected_component_not_reached(self):
        graph = GraphBuilder(num_nodes=4).add_edge(0, 1).add_edge(2, 3).build()
        result = bfs_levels(graph, 0, 5)
        assert set(result.nodes.tolist()) == {0, 1}

    def test_invalid_source(self, path_graph):
        with pytest.raises(ValueError):
            bfs_levels(path_graph, 99, 1)

    def test_negative_depth(self, path_graph):
        with pytest.raises(ValueError):
            bfs_levels(path_graph, 0, -1)

    def test_nodes_and_levels_aligned(self, small_ba_graph):
        result = bfs_levels(small_ba_graph, 0, 3)
        assert result.nodes.size == result.levels.size
        assert result.levels[0] == 0


class TestExtractEgoSubgraph:
    def test_subgraph_contains_source_as_local_zero(self, path_graph):
        subgraph, _ = extract_ego_subgraph(path_graph, 2, 1)
        assert subgraph.to_global(0) == 2

    def test_subgraph_edges_are_induced(self, star_graph):
        subgraph, _ = extract_ego_subgraph(star_graph, 0, 1)
        assert subgraph.num_nodes == 7
        assert subgraph.num_edges == 6

    def test_depth_growth_is_monotone(self, small_ba_graph):
        sizes = []
        for depth in range(4):
            subgraph, _ = extract_ego_subgraph(small_ba_graph, 5, depth)
            sizes.append(subgraph.num_nodes)
        assert sizes == sorted(sizes)

    def test_edges_outside_ball_excluded(self, path_graph):
        subgraph, _ = extract_ego_subgraph(path_graph, 0, 2)
        assert subgraph.num_nodes == 3
        assert subgraph.num_edges == 2

    def test_bfs_result_is_returned(self, path_graph):
        _, bfs = extract_ego_subgraph(path_graph, 0, 2)
        assert bfs.source == 0
        assert bfs.depth == 2


class TestSubgraph:
    def test_induced_degree_preserved_internally(self, triangle_graph):
        subgraph = Subgraph.induced(triangle_graph, [0, 1, 2])
        assert subgraph.graph.degree(0) == 2

    def test_induced_partial(self, triangle_graph):
        subgraph = Subgraph.induced(triangle_graph, [0, 1])
        assert subgraph.num_edges == 1

    def test_induced_duplicate_nodes_rejected(self, triangle_graph):
        with pytest.raises(ValueError):
            Subgraph.induced(triangle_graph, [0, 0, 1])

    def test_local_global_roundtrip(self, star_graph):
        subgraph = Subgraph.induced(star_graph, [3, 0, 5])
        for local in range(subgraph.num_nodes):
            assert subgraph.to_local(subgraph.to_global(local)) == local

    def test_to_local_missing_node(self, star_graph):
        subgraph = Subgraph.induced(star_graph, [0, 1])
        with pytest.raises(KeyError):
            subgraph.to_local(6)

    def test_mismatched_global_ids_length_rejected(self, triangle_graph):
        from repro.graph.csr import CSRGraph

        inner = CSRGraph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            Subgraph(inner, np.array([0, 1, 2]))

    def test_induced_matches_networkx(self, small_ba_graph):
        import networkx as nx

        nodes = [0, 1, 2, 3, 4, 10, 20]
        subgraph = Subgraph.induced(small_ba_graph, nodes)
        nx_sub = small_ba_graph.to_networkx().subgraph(nodes)
        assert subgraph.num_edges == nx_sub.number_of_edges()
