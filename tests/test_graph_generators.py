"""Tests for repro.graph.generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import GraphBuilder
from repro.graph.generators import (
    barabasi_albert_graph,
    citation_graph,
    community_graph,
    erdos_renyi_graph,
    powerlaw_cluster_graph,
    stochastic_block_model,
    watts_strogatz_graph,
)
from repro.utils.rng import MASK32, PCG64Draws


def native_citation_graph(num_nodes, average_degree, generator, name="citation"):
    """``citation_graph`` drawn through scalar ``Generator`` calls, edge by edge.

    ``generator`` is a ``numpy.random.Generator`` or anything with the same
    ``random`` / ``integers`` / ``poisson`` methods (a ``PCG64Draws``).
    """
    builder = GraphBuilder(num_nodes=num_nodes)
    repeated = [0]
    extra_probability = max(0.0, (average_degree - 2.0) / 2.0)
    for node in range(1, num_nodes):
        if generator.random() < 0.5:
            target = int(generator.integers(max(0, node - 50), node))
        else:
            target = repeated[int(generator.integers(0, len(repeated)))]
        builder.add_edge(node, target)
        repeated.extend([node, target])
        extra = generator.poisson(extra_probability)
        for _ in range(int(extra)):
            target = repeated[int(generator.integers(0, len(repeated)))]
            if target != node:
                builder.add_edge(node, target)
                repeated.extend([node, target])
    return builder.build(name=name)


def native_powerlaw_cluster_graph(
    num_nodes, attachment, triangle_probability, generator, name="powerlaw-cluster"
):
    """``powerlaw_cluster_graph`` drawn through scalar ``Generator`` calls."""
    builder = GraphBuilder(num_nodes=num_nodes)
    repeated = []
    neighbors = [[] for _ in range(num_nodes)]

    def _connect(u, v):
        builder.add_edge(u, v)
        repeated.extend([u, v])
        neighbors[u].append(v)
        neighbors[v].append(u)

    for node in range(1, attachment + 1):
        _connect(0, node)

    for node in range(attachment + 1, num_nodes):
        added = set()
        target = repeated[int(generator.integers(0, len(repeated)))]
        _connect(node, target)
        added.add(target)
        while len(added) < attachment:
            if neighbors[target] and generator.random() < triangle_probability:
                candidate = neighbors[target][int(generator.integers(0, len(neighbors[target])))]
            else:
                candidate = repeated[int(generator.integers(0, len(repeated)))]
            if candidate == node or candidate in added:
                candidate = repeated[int(generator.integers(0, len(repeated)))]
                if candidate == node or candidate in added:
                    continue
            _connect(node, candidate)
            added.add(candidate)
            target = candidate
    return builder.build(name=name)


def assert_same_arrays(graph, expected):
    assert np.array_equal(graph.indptr, expected.indptr)
    assert np.array_equal(graph.indices, expected.indices)


class TestDeterminism:
    """Every generator must be reproducible for a fixed seed.

    The expected fingerprints pin each generator's seed-7 graph exactly, so
    a change to the builder or to a generator's random stream names the
    generator it altered.
    """

    @pytest.mark.parametrize(
        "factory, fingerprint",
        [
            (
                lambda seed: erdos_renyi_graph(100, 0.05, rng=seed),
                "b50ba1b9972230ecdcbde1d139ed4472",
            ),
            (
                lambda seed: barabasi_albert_graph(100, 2, rng=seed),
                "1bf96d2654d9399dd43b6d98e35fd053",
            ),
            (
                lambda seed: watts_strogatz_graph(100, 4, 0.1, rng=seed),
                "901dc15d2f66dd81df70270c60389c86",
            ),
            (
                lambda seed: citation_graph(100, 3.0, rng=seed),
                "b729c0176585cda90f2f423a94d62aa8",
            ),
            (
                lambda seed: community_graph(100, 5.0, rng=seed),
                "d9fc1573dd678b98840ef3f368598392",
            ),
            (
                lambda seed: powerlaw_cluster_graph(100, 2, 0.5, rng=seed),
                "3e5b9432b45be9961c00c7da213abb14",
            ),
            (
                lambda seed: stochastic_block_model([30, 30], 0.2, 0.01, rng=seed),
                "feed011f195016e2df95789fa029c14d",
            ),
        ],
        ids=[
            "erdos_renyi",
            "barabasi_albert",
            "watts_strogatz",
            "citation",
            "community",
            "powerlaw_cluster",
            "sbm",
        ],
    )
    def test_same_seed_same_graph(self, factory, fingerprint):
        graph = factory(7)
        assert graph == factory(7)
        assert graph.fingerprint() == fingerprint

    def test_different_seed_different_graph(self):
        assert barabasi_albert_graph(100, 2, rng=1) != barabasi_albert_graph(100, 2, rng=2)


class TestErdosRenyi:
    def test_node_count(self):
        assert erdos_renyi_graph(50, 0.1, rng=1).num_nodes == 50

    def test_zero_probability_gives_no_edges(self):
        assert erdos_renyi_graph(50, 0.0, rng=1).num_edges == 0

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            erdos_renyi_graph(50, 1.5, rng=1)


class TestBarabasiAlbert:
    def test_connected_backbone(self):
        graph = barabasi_albert_graph(200, 2, rng=1)
        assert graph.degrees().min() >= 1

    def test_hub_formation(self):
        graph = barabasi_albert_graph(500, 2, rng=1)
        degrees = graph.degrees()
        assert degrees.max() > 5 * degrees.mean()

    def test_attachment_must_be_smaller_than_nodes(self):
        with pytest.raises(ValueError):
            barabasi_albert_graph(3, 3, rng=1)


class TestWattsStrogatz:
    def test_no_rewiring_is_ring_lattice(self):
        graph = watts_strogatz_graph(20, 2, 0.0, rng=1)
        assert all(graph.degree(node) == 2 for node in range(20))

    def test_rejects_too_many_neighbors(self):
        with pytest.raises(ValueError):
            watts_strogatz_graph(5, 6, 0.1, rng=1)


class TestStochasticBlockModel:
    def test_block_structure(self):
        graph = stochastic_block_model([50, 50], 0.3, 0.0, rng=1)
        # With zero between-probability no edge crosses the block boundary.
        for u, v in graph.iter_edges():
            assert (u < 50) == (v < 50)

    def test_node_count_matches_block_sizes(self):
        graph = stochastic_block_model([10, 20], 0.3, 0.05, rng=1)
        assert graph.num_nodes == 30

    def test_rejects_empty_blocks(self):
        with pytest.raises(ValueError):
            stochastic_block_model([], 0.1, 0.1, rng=1)


class TestDomainGenerators:
    def test_citation_graph_is_sparse(self):
        graph = citation_graph(500, 3.0, rng=1)
        degrees = graph.degrees()
        assert 1.5 <= degrees.mean() <= 6.0
        assert degrees.min() > 0

    def test_community_graph_average_degree(self):
        graph = community_graph(500, 6.0, rng=1)
        assert 3.0 <= graph.degrees().mean() <= 9.0

    def test_community_graph_has_heavy_tail(self):
        graph = community_graph(1000, 6.0, rng=1)
        degrees = graph.degrees()
        assert degrees.max() > 4 * degrees.mean()

    def test_powerlaw_cluster_rejects_bad_triangle_probability(self):
        with pytest.raises(ValueError):
            powerlaw_cluster_graph(100, 2, 1.5, rng=1)


class TestAgainstNativeCalls:
    """The stand-in generators build what the scalar Generator calls build.

    Both generators draw through ``PCG64Draws``; ``citation_graph`` decodes
    its words inline.  The oracles above are the same algorithms drawing
    from ``numpy.random.Generator`` one call at a time.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        # Around 50 nodes the backbone window stops covering every earlier
        # paper; an average degree <= 2 draws no extra citation.
        num_nodes=st.integers(1, 120),
        average_degree=st.sampled_from([0.5, 2.0, 2.5, 3.0, 4.5, 9.0, 21.9]),
        seed=st.integers(0, 2**32),
    )
    def test_citation_graph(self, num_nodes, average_degree, seed):
        native, replay = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = native_citation_graph(num_nodes, average_degree, native)
        assert_same_arrays(citation_graph(num_nodes, average_degree, rng=replay), expected)
        assert replay.bit_generator.state == native.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(
        attachment=st.integers(1, 5),
        extra_nodes=st.integers(1, 100),
        triangle_probability=st.sampled_from([0.0, 0.6, 1.0]),
        seed=st.integers(0, 2**32),
    )
    def test_powerlaw_cluster_graph(self, attachment, extra_nodes, triangle_probability, seed):
        num_nodes = attachment + extra_nodes
        native, replay = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = native_powerlaw_cluster_graph(
            num_nodes, attachment, triangle_probability, native
        )
        graph = powerlaw_cluster_graph(num_nodes, attachment, triangle_probability, rng=replay)
        assert_same_arrays(graph, expected)
        assert replay.bit_generator.state == native.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_several_chunks(self, seed):
        # Thousands of nodes read past several 4 096-word chunks.
        native = native_citation_graph(3_000, 4.5, np.random.default_rng(seed))
        assert_same_arrays(citation_graph(3_000, 4.5, rng=seed), native)
        native = native_powerlaw_cluster_graph(3_000, 3, 0.6, np.random.default_rng(seed))
        assert_same_arrays(powerlaw_cluster_graph(3_000, 3, 0.6, rng=seed), native)

    def test_inline_lemire_rejections(self, monkeypatch):
        # A zero low half makes integers() reject for any range that is not a
        # power of two, which real streams almost never do at these sizes.
        # Zeroing every fifth word's low half drives citation_graph's inline
        # rejection loop; the reader's methods, held to NumPy above, are the
        # reference on the same doctored stream.
        refill = PCG64Draws.refill

        def doctored(self):
            words = refill(self)
            words[::5] = [word & ~MASK32 for word in words[::5]]
            return words

        monkeypatch.setattr(PCG64Draws, "refill", doctored)
        with PCG64Draws(3) as draws:
            expected = native_citation_graph(2_000, 4.5, draws)
        assert_same_arrays(citation_graph(2_000, 4.5, rng=3), expected)

    def test_citation_rejects_a_mean_the_reader_does_not_serve(self):
        with pytest.raises(ValueError):
            citation_graph(100, 22.0, rng=1)
