"""Tests for repro.graph.generators."""

from __future__ import annotations

import pytest

from repro.graph.generators import (
    barabasi_albert_graph,
    citation_graph,
    community_graph,
    erdos_renyi_graph,
    powerlaw_cluster_graph,
    stochastic_block_model,
    watts_strogatz_graph,
)


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
