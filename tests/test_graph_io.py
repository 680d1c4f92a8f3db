"""Tests for repro.graph.io (SNAP edge-list reading/writing)."""

from __future__ import annotations

import gzip

import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.io import read_edge_list, read_snap_graph, write_edge_list


class TestReadEdgeList:
    def test_basic_read(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n0 1\n1 2\n")
        graph = read_edge_list(path)
        assert graph.num_nodes == 3
        assert graph.num_edges == 2

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a\n\n0 1\n\n# b\n2 3\n")
        assert read_edge_list(path).num_edges == 2

    def test_relabelling_sparse_ids(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("10 20\n20 30\n")
        graph = read_edge_list(path)
        assert graph.num_nodes == 3

    def test_relabelling_follows_ascending_id_not_first_appearance(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("30 10\n10 20\n")
        # 10 -> 0, 20 -> 1, 30 -> 2; first appearance would map 30 -> 0.
        assert set(read_edge_list(path).iter_edges()) == {(0, 1), (0, 2)}

    def test_no_relabel_uses_max_id(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 5\n")
        graph = read_edge_list(path, relabel=False)
        assert graph.num_nodes == 6

    def test_tab_separated(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0\t1\n1\t2\n")
        assert read_edge_list(path).num_edges == 2

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0\n")
        with pytest.raises(ValueError):
            read_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# nothing\n")
        graph = read_edge_list(path)
        assert graph.num_nodes == 0

    def test_gzip_support(self, tmp_path):
        path = tmp_path / "g.txt.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("0 1\n1 2\n")
        assert read_edge_list(path).num_edges == 2

    def test_default_name_is_stem(self, tmp_path):
        path = tmp_path / "mygraph.txt"
        path.write_text("0 1\n")
        assert read_edge_list(path).name == "mygraph"

    def test_snap_alias(self):
        assert read_snap_graph is read_edge_list


class TestWriteEdgeList:
    def test_roundtrip(self, tmp_path):
        original = GraphBuilder(num_nodes=5).add_path(range(5)).build(name="p")
        path = tmp_path / "out.txt"
        write_edge_list(original, path)
        rebuilt = read_edge_list(path, relabel=False)
        assert rebuilt == original

    def test_header_contains_counts(self, tmp_path):
        graph = GraphBuilder(num_nodes=3).add_edge(0, 1).build()
        path = tmp_path / "out.txt"
        write_edge_list(graph, path)
        text = path.read_text()
        assert "Nodes: 3" in text
        assert "Edges: 1" in text

    def test_no_header(self, tmp_path):
        graph = GraphBuilder(num_nodes=3).add_edge(0, 1).build()
        path = tmp_path / "out.txt"
        write_edge_list(graph, path, header=False)
        assert not path.read_text().startswith("#")

    def test_gzip_roundtrip(self, tmp_path):
        graph = GraphBuilder(num_nodes=4).add_cycle(range(4)).build()
        path = tmp_path / "out.txt.gz"
        write_edge_list(graph, path)
        assert read_edge_list(path, relabel=False) == graph
