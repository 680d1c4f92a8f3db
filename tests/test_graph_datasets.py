"""Tests for repro.graph.datasets (the paper's Table II stand-ins)."""

from __future__ import annotations

import pytest

from repro.graph.datasets import (
    PAPER_DATASETS,
    dataset_names,
    get_spec,
    load_dataset,
    load_paper_suite,
)
from repro.graph.stats import compute_stats


class TestSpecs:
    def test_six_datasets(self):
        assert dataset_names() == ("G1", "G2", "G3", "G4", "G5", "G6")

    def test_paper_sizes_recorded(self):
        assert PAPER_DATASETS["G1"].num_nodes == 3_327
        assert PAPER_DATASETS["G6"].num_edges == 2_987_624

    def test_average_degree(self):
        spec = PAPER_DATASETS["G2"]
        assert spec.average_degree == pytest.approx(2 * 5278 / 2708)

    def test_get_spec_by_key_and_name(self):
        assert get_spec("G3").name == "pubmed"
        assert get_spec("pubmed").key == "G3"

    def test_get_spec_unknown(self):
        with pytest.raises(KeyError):
            get_spec("G99")

    def test_scaled_num_nodes_bounds(self):
        spec = PAPER_DATASETS["G4"]
        assert spec.scaled_num_nodes(0.01) >= 64
        with pytest.raises(ValueError):
            spec.scaled_num_nodes(0.0)
        with pytest.raises(ValueError):
            spec.scaled_num_nodes(1.5)


class TestLoading:
    def test_small_graphs_match_paper_node_counts(self):
        g1 = load_dataset("G1")
        g2 = load_dataset("G2")
        assert g1.num_nodes == 3_327
        assert g2.num_nodes == 2_708

    def test_average_degree_close_to_paper(self):
        for key in ("G1", "G2", "G3"):
            spec = PAPER_DATASETS[key]
            graph = load_dataset(key)
            stats = compute_stats(graph)
            assert stats.average_degree == pytest.approx(
                spec.average_degree, rel=0.35
            )

    def test_loading_is_deterministic(self):
        assert load_dataset("G2") == load_dataset("G2")

    def test_load_by_name(self):
        assert load_dataset("cora").name == "cora"

    def test_scale_override(self):
        small = load_dataset("G3", scale=0.1)
        assert small.num_nodes == pytest.approx(1972, abs=5)

    def test_large_graphs_default_scaled(self):
        g6 = load_dataset("G6")
        assert g6.num_nodes < PAPER_DATASETS["G6"].num_nodes

    def test_no_isolated_nodes(self):
        for key in ("G1", "G2"):
            assert compute_stats(load_dataset(key)).isolated_nodes == 0


class TestPinnedStandIns:
    """Every default-scale stand-in, pinned to the exact graph it has always been.

    A change to the builder or a generator that alters any edge shows up
    here under the graph's own key, not later as a benchmark's stale frozen
    counts.
    """

    @pytest.mark.parametrize(
        "key, num_nodes, num_edges, fingerprint",
        [
            ("G1", 3_327, 4_653, "4eb362f3968c7b2f40a547e6180807eb"),
            ("G2", 2_708, 5_190, "4f740fd240a5c6f0de701e8a3121aea6"),
            ("G3", 19_717, 44_050, "94596c94ba0a28ff80e5cd37e873b025"),
            ("G4", 20_092, 60_267, "e76968d32a7a54e9b32ba4cf8b02463b"),
            ("G5", 19_025, 57_066, "010b9c868c79f1b2af53ae5bf5c113e5"),
            ("G6", 22_698, 68_085, "5c068ce6ad86b7af1c3819f74073f2a4"),
        ],
    )
    def test_stand_in_is_unchanged(self, key, num_nodes, num_edges, fingerprint):
        graph = load_dataset(key)
        assert (graph.num_nodes, graph.num_edges) == (num_nodes, num_edges)
        assert graph.fingerprint() == fingerprint


class TestSuite:
    def test_small_only_suite(self):
        suite = load_paper_suite(small_only=True)
        assert set(suite) == {"G1", "G2", "G3"}

    def test_full_suite_keys(self):
        suite = load_paper_suite(scale=0.01)
        assert set(suite) == set(dataset_names())

    def test_suite_graphs_named_after_datasets(self):
        suite = load_paper_suite(small_only=True)
        assert suite["G1"].name == "citeseer"
