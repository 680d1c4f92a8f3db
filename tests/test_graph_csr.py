"""Tests for repro.graph.csr."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.csr import CSRGraph


class TestConstruction:
    def test_from_edges_basic(self, triangle_graph):
        assert triangle_graph.num_nodes == 3
        assert triangle_graph.num_edges == 3
        assert triangle_graph.indices.size == 6

    def test_from_edges_drops_self_loops(self):
        graph = CSRGraph.from_edges(3, [(0, 0), (0, 1)])
        assert graph.num_edges == 1

    def test_from_edges_drops_duplicates(self):
        graph = CSRGraph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert graph.num_edges == 1

    def test_invalid_indptr_start(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([1, 2]), np.array([0], dtype=np.int32))

    def test_indptr_indices_mismatch(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2]), np.array([0], dtype=np.int32))

    def test_indices_out_of_range(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1]), np.array([5], dtype=np.int32))

    def test_non_monotone_indptr(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2, 1, 3]), np.array([0, 1, 2], dtype=np.int32))

    def test_empty_graph(self):
        graph = CSRGraph(np.array([0]), np.array([], dtype=np.int32))
        assert graph.num_nodes == 0
        assert graph.num_edges == 0


class TestNeighborhoods:
    def test_degree(self, star_graph):
        assert star_graph.degree(0) == 6
        assert star_graph.degree(1) == 1

    def test_degrees_array(self, star_graph):
        degrees = star_graph.degrees()
        assert degrees[0] == 6
        assert degrees.sum() == 12

    def test_neighbors_sorted(self, triangle_graph):
        assert list(triangle_graph.neighbors(0)) == [1, 2]

    def test_neighbors_out_of_range(self, triangle_graph):
        with pytest.raises(ValueError):
            triangle_graph.neighbors(5)

    def test_has_edge(self, path_graph):
        assert path_graph.has_edge(0, 1)
        assert not path_graph.has_edge(0, 2)

    def test_iter_edges_each_once(self, triangle_graph):
        edges = list(triangle_graph.iter_edges())
        assert sorted(edges) == [(0, 1), (0, 2), (1, 2)]

class TestConversions:
    def test_to_scipy_symmetric(self, small_ba_graph):
        matrix = small_ba_graph.to_scipy()
        assert (matrix != matrix.T).nnz == 0

    def test_to_networkx(self, path_graph):
        nx_graph = path_graph.to_networkx()
        assert nx_graph.number_of_nodes() == 5
        assert nx_graph.number_of_edges() == 4

    def test_nbytes_positive(self, triangle_graph):
        assert triangle_graph.nbytes() > 0


class TestDunder:
    def test_equality(self):
        a = CSRGraph.from_edges(3, [(0, 1)])
        b = CSRGraph.from_edges(3, [(0, 1)])
        c = CSRGraph.from_edges(3, [(1, 2)])
        assert a == b
        assert a != c

    def test_equality_with_other_type(self, triangle_graph):
        assert (triangle_graph == 42) is False or (triangle_graph == 42) is NotImplemented

    def test_arrays_are_read_only(self, triangle_graph):
        with pytest.raises(ValueError):
            triangle_graph.indices[0] = 2


class TestFingerprint:
    def test_equal_structure_equal_fingerprint(self):
        a = CSRGraph.from_edges(4, [(0, 1), (1, 2)], name="first")
        b = CSRGraph.from_edges(4, [(0, 1), (1, 2)], name="rebuilt-elsewhere")
        # The name is excluded on purpose: a rebuilt identical graph IS the
        # same graph as far as derived caches are concerned.
        assert a.fingerprint() == b.fingerprint()

    def test_topology_change_changes_fingerprint(self):
        base = CSRGraph.from_edges(4, [(0, 1), (1, 2)])
        extra_edge = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        extra_node = CSRGraph.from_edges(5, [(0, 1), (1, 2)])
        assert base.fingerprint() != extra_edge.fingerprint()
        assert base.fingerprint() != extra_node.fingerprint()

    def test_fingerprint_is_memoised(self, triangle_graph):
        assert triangle_graph.fingerprint() is triangle_graph.fingerprint()
        assert len(triangle_graph.fingerprint()) == 32


class TestHashContract:
    """``__hash__`` must agree with the structural ``__eq__``.

    Regression: hashing used to fall back to object identity, so two equal
    rebuilt graphs landed in different dict/set buckets and fingerprint-keyed
    memo tables silently duplicated (or missed) entries.
    """

    def test_equal_rebuilt_graphs_hash_equal(self):
        a = CSRGraph.from_edges(4, [(0, 1), (1, 2)], name="first")
        b = CSRGraph.from_edges(4, [(0, 1), (1, 2)], name="rebuilt-elsewhere")
        assert a == b
        assert hash(a) == hash(b)
        # The dict/set contract actually holds: equal graphs collide.
        assert len({a, b}) == 1
        table = {a: "cached"}
        assert table[b] == "cached"

    def test_hash_derives_from_fingerprint(self, triangle_graph):
        assert hash(triangle_graph) == hash(triangle_graph.fingerprint())

    def test_different_topology_distinct_in_sets(self):
        a = CSRGraph.from_edges(3, [(0, 1)])
        c = CSRGraph.from_edges(3, [(1, 2)])
        assert len({a, c}) == 2
