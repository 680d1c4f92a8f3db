"""Property-based tests (hypothesis) on the core data structures and invariants.

The invariants exercised here are the ones the whole reproduction leans on:

* graph construction is canonical (builder output independent of edge order
  and of scalar vs bulk adds, no self-loops/duplicates, symmetric adjacency);
* graph diffusion conserves probability mass and is linear in its input;
* the stage-decomposition identity (Eq. 6) holds for arbitrary random graphs,
  stage splits and alpha values;
* top-k selection of the sparse score vector and the bounded global score
  table agree with a brute-force reference.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.diffusion.diffusion import graph_diffusion, seed_vector
from repro.diffusion.sparse_vector import SparseScoreVector
from repro.graph.builder import GraphBuilder
from repro.graph.csr import CSRGraph
from repro.meloppr.aggregation import GlobalScoreTable
from repro.meloppr.selection import RatioSelector
from repro.meloppr.stage import split_length
from oracle import two_stage_diffusion

# Keep the per-example work small: graphs stay under ~40 nodes.
GRAPH_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_graphs(draw, min_nodes=2, max_nodes=40):
    """Strategy producing small connected-ish undirected graphs."""
    num_nodes = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    # A random spanning backbone keeps every node's degree >= 1.
    backbone = [
        (node, draw(st.integers(min_value=0, max_value=node - 1)))
        for node in range(1, num_nodes)
    ]
    extra_count = draw(st.integers(min_value=0, max_value=2 * num_nodes))
    extras = [
        (
            draw(st.integers(min_value=0, max_value=num_nodes - 1)),
            draw(st.integers(min_value=0, max_value=num_nodes - 1)),
        )
        for _ in range(extra_count)
    ]
    builder = GraphBuilder(num_nodes=num_nodes)
    builder.add_edges(backbone + extras)
    return builder.build(name="hypothesis")


class TestGraphConstructionProperties:
    @GRAPH_SETTINGS
    @given(graph=random_graphs())
    def test_adjacency_is_symmetric(self, graph: CSRGraph):
        matrix = graph.to_scipy()
        assert (matrix != matrix.T).nnz == 0

    @GRAPH_SETTINGS
    @given(graph=random_graphs())
    def test_no_self_loops(self, graph: CSRGraph):
        for node in range(graph.num_nodes):
            assert node not in graph.neighbors(node)

    @GRAPH_SETTINGS
    @given(graph=random_graphs())
    def test_neighbor_lists_sorted_and_unique(self, graph: CSRGraph):
        for node in range(graph.num_nodes):
            neighbors = graph.neighbors(node)
            assert np.all(np.diff(neighbors) > 0)

    @GRAPH_SETTINGS
    @given(graph=random_graphs(), data=st.data())
    def test_edge_order_does_not_matter(self, graph: CSRGraph, data):
        edges = list(graph.iter_edges())
        permutation = data.draw(st.permutations(edges))
        rebuilt = GraphBuilder(num_nodes=graph.num_nodes).add_edges(permutation).build()
        assert rebuilt == graph
        # The same pairs fed as any interleaving of add_edge and add_edges.
        scalar = data.draw(
            st.lists(st.booleans(), min_size=len(edges), max_size=len(edges))
        )
        builder = GraphBuilder(num_nodes=graph.num_nodes)
        for is_scalar, run in itertools.groupby(zip(scalar, permutation), key=lambda item: item[0]):
            pairs = [edge for _, edge in run]
            if is_scalar:
                for u, v in pairs:
                    builder.add_edge(u, v)
            else:
                builder.add_edges(pairs)
        assert builder.build() == graph

    @GRAPH_SETTINGS
    @given(graph=random_graphs())
    def test_degree_sum_equals_twice_edges(self, graph: CSRGraph):
        assert int(graph.degrees().sum()) == 2 * graph.num_edges


class TestDiffusionProperties:
    @GRAPH_SETTINGS
    @given(
        graph=random_graphs(),
        alpha=st.floats(min_value=0.0, max_value=1.0),
        length=st.integers(min_value=0, max_value=6),
        data=st.data(),
    )
    def test_mass_conservation(self, graph, alpha, length, data):
        seed = data.draw(st.integers(min_value=0, max_value=graph.num_nodes - 1))
        result = graph_diffusion(graph, seed_vector(graph.num_nodes, seed), length, alpha)
        # Graphs from the strategy have min degree >= 1, so no mass is lost.
        assert result.accumulated.sum() == pytest.approx(1.0, abs=1e-9)
        assert (result.accumulated >= -1e-12).all()

    @GRAPH_SETTINGS
    @given(
        graph=random_graphs(),
        alpha=st.floats(min_value=0.05, max_value=0.95),
        total_length=st.integers(min_value=2, max_value=6),
        data=st.data(),
    )
    def test_stage_decomposition_identity(self, graph, alpha, total_length, data):
        """Eq. 6 holds for arbitrary graphs, splits and decay factors."""
        l1 = data.draw(st.integers(min_value=1, max_value=total_length - 1))
        l2 = total_length - l1
        seed = data.draw(st.integers(min_value=0, max_value=graph.num_nodes - 1))
        initial = seed_vector(graph.num_nodes, seed)
        direct = graph_diffusion(graph, initial, total_length, alpha).accumulated
        decomposed = two_stage_diffusion(graph, initial, l1, l2, alpha)
        np.testing.assert_allclose(decomposed, direct, atol=1e-9)

    @GRAPH_SETTINGS
    @given(graph=random_graphs(), data=st.data())
    def test_linearity(self, graph, data):
        n = graph.num_nodes
        a = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n
                )
            )
        )
        b = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n
                )
            )
        )
        combined = graph_diffusion(graph, a + b, 3, 0.85).accumulated
        separate = (
            graph_diffusion(graph, a, 3, 0.85).accumulated
            + graph_diffusion(graph, b, 3, 0.85).accumulated
        )
        np.testing.assert_allclose(combined, separate, atol=1e-8)


class TestSplitLengthProperties:
    @given(
        total=st.integers(min_value=1, max_value=64),
        stages=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_split_sums_back(self, total, stages):
        if stages > total:
            with pytest.raises(ValueError):
                split_length(total, stages)
            return
        parts = split_length(total, stages)
        assert sum(parts) == total
        assert len(parts) == stages
        assert max(parts) - min(parts) <= 1


class TestScoreContainerProperties:
    @given(
        entries=st.dictionaries(
            st.integers(min_value=0, max_value=500),
            st.floats(min_value=0.0, max_value=1.0),
            max_size=60,
        ),
        k=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_sparse_vector_top_k_matches_bruteforce(self, entries, k):
        vector = SparseScoreVector(list(entries), list(entries.values()))
        nonzero = [item for item in entries.items() if item[1] != 0.0]
        expected = sorted(nonzero, key=lambda item: (-item[1], item[0]))[:k]
        assert vector.top_k(k) == expected

    @given(
        updates=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=100),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            max_size=80,
        ),
        k=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_unbounded_table_matches_dict_accumulation(self, updates, k):
        table = GlobalScoreTable()
        reference: dict[int, float] = {}
        for node, value in updates:
            table.add(node, value)
            reference[node] = reference.get(node, 0.0) + value
        expected = sorted(reference.items(), key=lambda item: (-item[1], item[0]))[:k]
        assert [node for node, _ in table.top_k(k)] == [node for node, _ in expected]

    @given(
        updates=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.floats(min_value=0.01, max_value=1.0),
            ),
            max_size=60,
        ),
        capacity=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounded_table_never_exceeds_capacity(self, updates, capacity):
        table = GlobalScoreTable(capacity=capacity)
        for node, value in updates:
            table.add(node, value)
        assert table.num_entries <= capacity


class TestSelectorProperties:
    @given(
        values=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50),
        ratio=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_ratio_selector_size_and_order(self, values, ratio):
        nodes = np.arange(len(values))
        residuals = np.asarray(values)
        selected = RatioSelector(ratio).select(nodes, residuals)
        assert selected.size <= len(values)
        picked_values = [residuals[node] for node in selected]
        assert picked_values == sorted(picked_values, reverse=True)
        # Every selected node has residual >= every unselected node.
        unselected = set(nodes.tolist()) - set(selected.tolist())
        if selected.size and unselected:
            assert min(picked_values) >= max(residuals[list(unselected)]) - 1e-12
