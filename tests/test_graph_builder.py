"""Tests for repro.graph.builder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.csr import CSRGraph


class TestAddEdges:
    def test_add_edge_chaining(self):
        graph = GraphBuilder(num_nodes=3).add_edge(0, 1).add_edge(1, 2).build()
        assert graph.num_edges == 2

    def test_add_edges_array(self):
        builder = GraphBuilder(num_nodes=4)
        builder.add_edges(np.array([[0, 1], [2, 3]]))
        assert builder.build().num_edges == 2

    def test_add_edges_empty_iterable(self):
        builder = GraphBuilder(num_nodes=2)
        builder.add_edges([])
        assert builder.build().num_edges == 0

    def test_malformed_edges_rejected(self):
        with pytest.raises(ValueError):
            GraphBuilder(num_nodes=3).add_edges([(0, 1, 2)])

    def test_negative_endpoint_rejected(self):
        with pytest.raises(ValueError):
            GraphBuilder(num_nodes=3).add_edges([(-1, 0)])

    def test_endpoint_beyond_declared_nodes_rejected(self):
        builder = GraphBuilder(num_nodes=2)
        builder.add_edge(0, 5)
        with pytest.raises(ValueError, match="exceed"):
            builder.build()

    def test_negative_scalar_endpoint_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            GraphBuilder(num_nodes=3).add_edge(0, -1)

    def test_numpy_integer_endpoints_accepted(self):
        graph = GraphBuilder(num_nodes=3).add_edge(np.int32(0), np.uint8(2)).build()
        assert graph.has_edge(0, 2)


class TestEndpointTypes:
    """Only integer node ids are edges; nothing is truncated or coerced."""

    @pytest.mark.parametrize(
        "u, v", [(0.9, 2.7), (0, 2.0), ("1", "2"), (True, 2), (0, np.True_), (np.float64(1), 2)]
    )
    def test_add_edge_rejects_non_integer(self, u, v):
        builder = GraphBuilder(num_nodes=3)
        with pytest.raises(ValueError, match="integer"):
            builder.add_edge(u, v)
        assert builder.build().num_edges == 0

    @pytest.mark.parametrize(
        "edges",
        [
            [(0.9, 2.7)],
            [(0, 1), (1, 2.5)],
            [("1", "2")],
            [(True, 2)],
            [(0, 1), (np.True_, 2)],
            np.array([[0.0, 1.0]]),
            np.array([[True, False]]),
        ],
        ids=["floats", "one_float", "strings", "bool", "numpy_bool", "float_array", "bool_array"],
    )
    def test_add_edges_rejects_non_integer(self, edges):
        builder = GraphBuilder(num_nodes=3)
        with pytest.raises(ValueError, match="integer"):
            builder.add_edges(edges)
        assert builder.build().num_edges == 0

    def test_from_edges_rejects_float_endpoints(self):
        with pytest.raises(ValueError, match="integer"):
            CSRGraph.from_edges(3, [(0.9, 2.7)])


class TestPendingEdgesAndRebuild:
    def test_build_twice_gives_equal_graphs(self):
        builder = GraphBuilder(num_nodes=4).add_edge(0, 1).add_edges([(1, 2), (2, 3)])
        first = builder.build()
        assert builder.build() == first

    def test_edge_added_after_build_is_in_next_build(self):
        builder = GraphBuilder(num_nodes=4).add_edge(0, 1)
        assert not builder.build().has_edge(2, 3)
        builder.add_edge(2, 3)
        rebuilt = builder.build()
        assert rebuilt.has_edge(0, 1) and rebuilt.has_edge(2, 3)


class TestConvenienceShapes:
    def test_add_star(self):
        graph = GraphBuilder(num_nodes=5).add_star(0, [1, 2, 3, 4]).build()
        assert graph.degree(0) == 4

    def test_add_star_empty_leaves(self):
        graph = GraphBuilder(num_nodes=3).add_star(0, []).build()
        assert graph.num_edges == 0

    def test_add_path(self):
        graph = GraphBuilder(num_nodes=4).add_path([0, 1, 2, 3]).build()
        assert graph.num_edges == 3
        assert graph.degree(0) == 1
        assert graph.degree(1) == 2

    def test_add_path_too_short_is_noop(self):
        graph = GraphBuilder(num_nodes=2).add_path([0]).build()
        assert graph.num_edges == 0

class TestBuildCleaning:
    def test_self_loops_removed(self):
        graph = GraphBuilder(num_nodes=3).add_edges([(0, 0), (1, 1), (0, 1)]).build()
        assert graph.num_edges == 1

    def test_duplicates_removed(self):
        graph = (
            GraphBuilder(num_nodes=3)
            .add_edges([(0, 1), (0, 1), (1, 0)])
            .build()
        )
        assert graph.num_edges == 1

    def test_undirected_symmetry(self):
        graph = GraphBuilder(num_nodes=3).add_edge(0, 2).build()
        assert graph.has_edge(2, 0)

    def test_every_edge_is_stored_both_ways(self):
        # One-way pairs in, one symmetric adjacency out: W = A D^-1 needs
        # every edge's reverse.
        pairs = [(0, 3), (3, 1), (4, 2), (2, 0), (1, 4)]
        graph = CSRGraph.from_edges(5, pairs)
        adjacency = graph.to_scipy().toarray()
        assert (adjacency == adjacency.T).all() and graph.num_edges == len(pairs)

    def test_num_nodes_inferred(self):
        graph = GraphBuilder().add_edge(0, 9).build()
        assert graph.num_nodes == 10

    def test_empty_builder(self):
        graph = GraphBuilder().build()
        assert graph.num_nodes == 0

    def test_neighbor_lists_sorted(self):
        graph = GraphBuilder(num_nodes=5).add_edges([(0, 4), (0, 2), (0, 3)]).build()
        assert list(graph.neighbors(0)) == [2, 3, 4]

    def test_named_graph(self):
        graph = GraphBuilder(num_nodes=1).build(name="lonely")
        assert graph.name == "lonely"
