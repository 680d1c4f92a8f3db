"""Extraction against a straightforward per-row reference.

``expand_frontier``, ``Subgraph.induced`` and ``extract_ego_subgraph`` gather
adjacency rows with one vectorised index.  The references below walk the rows
one at a time in plain Python; visit order, local ids, the relabelled CSR
arrays and the scanned-edge count must all be equal.  The stage extraction,
``extract_ego_subgraphs``, is in turn held to ``extract_ego_subgraph`` per
centre, array for array.
"""

from __future__ import annotations

import pickle
import tracemalloc
from typing import List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.bfs import (
    BALLS_PER_PASS,
    bfs_levels,
    expand_frontier,
    extract_ego_subgraph,
    extract_ego_subgraphs,
)
from repro.graph.csr import CSRGraph, gather_rows
from repro.graph.datasets import load_dataset
from repro.graph.generators import barabasi_albert_graph
from repro.graph.subgraph import Subgraph


def reference_bfs(graph: CSRGraph, source: int, depth: int):
    """Level-by-level BFS; each level's new nodes in ascending id order."""
    nodes, levels, scanned = [source], [0], 0
    seen, frontier = {source}, [source]
    for level in range(1, depth + 1):
        reached = set()
        for node in frontier:
            row = graph.neighbors(node).tolist()
            scanned += len(row)
            reached.update(row)
        frontier = sorted(reached - seen)
        if not frontier:
            break
        seen.update(frontier)
        nodes += frontier
        levels += [level] * len(frontier)
    return nodes, levels, scanned


def reference_induced(graph: CSRGraph, nodes: Sequence[int]) -> Tuple[List[int], List[int]]:
    """``indptr`` / ``indices`` of the sub-graph induced by ``nodes``."""
    local = {node: index for index, node in enumerate(nodes)}
    indptr, indices = [0], []
    for node in nodes:
        indices += sorted(local[v] for v in graph.neighbors(node).tolist() if v in local)
        indptr.append(len(indices))
    return indptr, indices


def assert_matches_reference(graph: CSRGraph, source: int, depth: int) -> None:
    subgraph, bfs = extract_ego_subgraph(graph, source, depth)
    nodes, levels, scanned = reference_bfs(graph, source, depth)
    indptr, indices = reference_induced(graph, nodes)
    assert bfs.nodes.tolist() == nodes and bfs.nodes.dtype == np.int64
    assert bfs.levels.tolist() == levels
    assert bfs.edges_scanned == scanned
    assert subgraph.global_ids.tolist() == nodes and subgraph.global_ids.dtype == np.int64
    assert subgraph.graph.indptr.tolist() == indptr and subgraph.graph.indptr.dtype == np.int64
    assert subgraph.graph.indices.tolist() == indices and subgraph.graph.indices.dtype == np.int32
    assert subgraph.to_local(source) == 0


@st.composite
def graphs_with_a_node(draw):
    num_nodes = draw(st.integers(min_value=1, max_value=30))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_nodes - 1),
                st.integers(min_value=0, max_value=num_nodes - 1),
            ),
            max_size=3 * num_nodes,
        )
    )
    graph = CSRGraph.from_edges(num_nodes, edges, name="random")
    return graph, draw(st.integers(min_value=0, max_value=num_nodes - 1))


class TestExtractionMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(drawn=graphs_with_a_node(), depth=st.integers(min_value=0, max_value=4))
    def test_random_graphs(self, drawn, depth):
        graph, source = drawn
        assert_matches_reference(graph, source, depth)

    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 6])
    def test_scale_free_graph(self, depth):
        graph = barabasi_albert_graph(400, 3, rng=11, name="ba400")
        for source in (0, 1, 57, 399):
            assert_matches_reference(graph, source, depth)

    def test_depth_zero(self, star_graph):
        assert_matches_reference(star_graph, 0, 0)
        subgraph, bfs = extract_ego_subgraph(star_graph, 3, 0)
        assert subgraph.num_nodes == 1 and subgraph.num_edges == 0
        assert bfs.edges_scanned == 0

    def test_isolated_seed(self):
        graph = CSRGraph.from_edges(4, [(0, 1)], name="isolated")
        assert_matches_reference(graph, 3, 3)
        subgraph, bfs = extract_ego_subgraph(graph, 3, 3)
        assert subgraph.global_ids.tolist() == [3] and bfs.edges_scanned == 0

    def test_hub_and_leaf_of_a_star(self, star_graph):
        for source in (0, 4):
            for depth in (1, 2, 3):
                assert_matches_reference(star_graph, source, depth)

    def test_path_keeps_a_frontier_of_one(self, path_graph):
        # Every level of a BFS from the end of a path is a single node: the
        # single-row branch of the gather, level after level.
        assert_matches_reference(path_graph, 0, 4)


def extraction_arrays(pair) -> List[np.ndarray]:
    subgraph, bfs = pair
    return [
        subgraph.global_ids,
        subgraph.graph.indptr,
        subgraph.graph.indices,
        bfs.nodes,
        bfs.levels,
    ]


def assert_stage_matches_per_ball(graph: CSRGraph, centers: Sequence[int], depth: int):
    """Every pair of the stage extraction equals the per-centre extraction."""
    pairs = extract_ego_subgraphs(graph, centers, depth)
    assert len(pairs) == len(centers)
    for center, pair in zip(centers, pairs):
        expected = extract_ego_subgraph(graph, center, depth)
        for ours, theirs in zip(extraction_arrays(pair), extraction_arrays(expected)):
            assert ours.dtype == theirs.dtype and ours.tolist() == theirs.tolist()
        (subgraph, bfs), (ref_subgraph, ref_bfs) = pair, expected
        assert subgraph.graph.name == ref_subgraph.graph.name
        assert (bfs.source, bfs.depth) == (ref_bfs.source, ref_bfs.depth)
        assert bfs.edges_scanned == ref_bfs.edges_scanned
        assert type(bfs.edges_scanned) is int and type(bfs.source) is int
        assert not subgraph.global_ids.flags.writeable
        assert bfs.nodes.flags.writeable == ref_bfs.nodes.flags.writeable
    return pairs


class TestStageExtractionMatchesPerBall:
    @settings(max_examples=100, deadline=None)
    @given(
        drawn=graphs_with_a_node(),
        depth=st.integers(min_value=0, max_value=4),
        data=st.data(),
    )
    def test_random_graphs_and_centre_lists(self, drawn, depth, data):
        graph, first = drawn
        others = data.draw(
            st.lists(st.integers(min_value=0, max_value=graph.num_nodes - 1), max_size=8)
        )
        assert_stage_matches_per_ball(graph, [first, *others], depth)

    def test_no_centres(self, star_graph):
        assert extract_ego_subgraphs(star_graph, [], 2) == []

    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_one_centre(self, small_ba_graph, depth):
        assert_stage_matches_per_ball(small_ba_graph, [17], depth)

    def test_a_centre_listed_twice_gets_two_pairs(self, small_ba_graph):
        first, other, second = assert_stage_matches_per_ball(small_ba_graph, [5, 9, 5], 2)
        assert first[0] is not second[0]
        assert not np.shares_memory(first[0].global_ids, second[0].global_ids)

    def test_isolated_centre_among_others(self):
        graph = CSRGraph.from_edges(5, [(0, 1), (1, 2)], name="isolated")
        pairs = assert_stage_matches_per_ball(graph, [0, 4, 3, 2], 3)
        assert pairs[1][0].global_ids.tolist() == [4]
        assert pairs[1][1].edges_scanned == 0 and pairs[1][0].num_edges == 0

    def test_depth_zero(self, star_graph):
        pairs = assert_stage_matches_per_ball(star_graph, [0, 3, 6], 0)
        assert [pair[1].edges_scanned for pair in pairs] == [0, 0, 0]

    def test_centres_in_different_components(self):
        graph = CSRGraph.from_edges(
            8, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (6, 7)], name="islands"
        )
        for depth in (1, 2, 4):
            assert_stage_matches_per_ball(graph, [0, 4, 7, 2], depth)

    def test_overlapping_balls(self, path_graph, small_ba_graph):
        # Neighbouring centres on a path share most of their balls; the hubs
        # of a scale-free graph share almost all of theirs.
        assert_stage_matches_per_ball(path_graph, [1, 2, 3], 2)
        assert_stage_matches_per_ball(small_ba_graph, [0, 1, 2, 3], 3)

    def test_hub_and_leaf_of_a_star_together(self, star_graph):
        for depth in (1, 2, 3):
            assert_stage_matches_per_ball(star_graph, [0, 4], depth)
            assert_stage_matches_per_ball(star_graph, [4, 0, 5], depth)

    def test_more_centres_than_one_pass(self):
        graph = barabasi_albert_graph(400, 3, rng=11, name="ba400")
        centers = list(range(0, 400, 3))
        assert len(centers) > 2 * BALLS_PER_PASS
        assert_stage_matches_per_ball(graph, centers, 2)
        assert_stage_matches_per_ball(graph, centers[: BALLS_PER_PASS + 1], 3)

    def test_every_array_owns_its_memory(self, small_ba_graph):
        pairs = extract_ego_subgraphs(small_ba_graph, [3, 4, 150], 2)
        arrays = [extraction_arrays(pair) for pair in pairs]
        for ball in arrays:
            for array in ball:
                assert array.base is None
        for first in range(len(arrays)):
            for second in range(first + 1, len(arrays)):
                for ours in arrays[first]:
                    for theirs in arrays[second]:
                        assert not np.shares_memory(ours, theirs)

    def test_invalid_arguments_raise_what_bfs_levels_raises(self, star_graph):
        cases = [([0, 7], 7, 1), ([-1], -1, 1), ([0, 2.0], 2.0, 1), ([0], 0, -1), ([0], 0, 1.5)]
        for centers, offender, depth in cases:
            with pytest.raises((TypeError, ValueError)) as expected:
                bfs_levels(star_graph, offender, depth)
            with pytest.raises(type(expected.value)) as raised:
                extract_ego_subgraphs(star_graph, centers, depth)
            assert str(raised.value) == str(expected.value)

    def test_scratch_does_not_scale_with_the_stage(self):
        # What a call holds beyond the pairs it returns is one pass's scratch:
        # a 500-centre stage (the same 64 centres, cycled) holds no more of it
        # than a 64-centre one.
        graph = load_dataset("G3")
        one_pass = [int(node) for node in np.argsort(graph.degrees())[-BALLS_PER_PASS:]]

        def scratch_bytes(centers: List[int]) -> Tuple[int, int]:
            tracemalloc.start()
            try:
                pairs = extract_ego_subgraphs(graph, centers, 2)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            returned = sum(a.nbytes for pair in pairs for a in extraction_arrays(pair))
            return peak - returned, returned

        small, returned_small = scratch_bytes(one_pass)
        large, returned_large = scratch_bytes((one_pass * 8)[:500])
        assert returned_large > 7 * returned_small
        # Python objects around the returned arrays (~1 kB a ball) are the slack.
        assert large <= small + 500 * 2048


class TestExpandFrontier:
    @settings(max_examples=100, deadline=None)
    @given(drawn=graphs_with_a_node(), data=st.data())
    def test_matches_per_row_union(self, drawn, data):
        graph, first = drawn
        others = data.draw(
            st.lists(st.integers(min_value=0, max_value=graph.num_nodes - 1), unique=True)
        )
        frontier = np.asarray(sorted({first, *others}), dtype=np.int64)
        visited = np.zeros(graph.num_nodes, dtype=bool)
        visited[frontier] = True
        rows = [graph.neighbors(int(node)).tolist() for node in frontier]
        expected = sorted({v for row in rows for v in row} - set(frontier.tolist()))

        fresh, scanned = expand_frontier(graph.indptr, graph.indices, frontier, visited)
        assert fresh.tolist() == expected and fresh.dtype == np.int64
        assert scanned == sum(len(row) for row in rows)
        assert np.flatnonzero(visited).tolist() == sorted(expected + frontier.tolist())

    def test_gather_rows_keeps_row_order_and_duplicates(self, star_graph):
        rows = np.asarray([3, 0, 3], dtype=np.int64)
        gathered, counts = gather_rows(star_graph.indptr, star_graph.indices, rows)
        assert gathered.tolist() == [0, 1, 2, 3, 4, 5, 6, 0]
        assert counts.tolist() == [1, 6, 1]


class TestInduced:
    @settings(max_examples=100, deadline=None)
    @given(drawn=graphs_with_a_node(), data=st.data())
    def test_any_node_order(self, drawn, data):
        graph, _ = drawn
        nodes = data.draw(
            st.lists(st.integers(min_value=0, max_value=graph.num_nodes - 1), unique=True)
        )
        indptr, indices = reference_induced(graph, nodes)
        for given_nodes in (nodes, np.asarray(nodes, dtype=np.int64), iter(nodes)):
            subgraph = Subgraph.induced(graph, given_nodes)
            assert subgraph.global_ids.tolist() == nodes
            assert subgraph.graph.indptr.tolist() == indptr
            assert subgraph.graph.indices.tolist() == indices

    def test_empty_node_list(self, star_graph):
        for nodes in ([], np.empty(0, dtype=np.int64)):
            subgraph = Subgraph.induced(star_graph, nodes)
            assert subgraph.num_nodes == 0 and subgraph.num_edges == 0
            assert subgraph.graph.indptr.tolist() == [0]
            assert not subgraph.contains_global(0)
            with pytest.raises(KeyError):
                subgraph.to_local(0)

    def test_duplicate_ids_rejected(self, star_graph):
        for nodes in ([1, 2, 1], np.asarray([0, 5, 5]), [4, 4]):
            with pytest.raises(ValueError, match="unique"):
                Subgraph.induced(star_graph, nodes)
        inner = CSRGraph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError, match="unique"):
            Subgraph(inner, np.asarray([7, 7]))

    def test_caller_array_is_left_alone(self, star_graph):
        nodes = np.asarray([2, 0, 5], dtype=np.int64)
        subgraph = Subgraph.induced(star_graph, nodes)
        nodes[0] = 6  # still writable, and not what the sub-graph holds
        assert subgraph.global_ids.tolist() == [2, 0, 5]
        assert not subgraph.global_ids.flags.writeable


class TestLazyLocalMap:
    def test_centre_lookup_builds_no_map(self, small_ba_graph):
        subgraph, _ = extract_ego_subgraph(small_ba_graph, 17, 2)
        assert subgraph.to_local(17) == 0
        assert subgraph._local_of is None

    def test_other_lookups_build_it_once(self, small_ba_graph):
        subgraph, bfs = extract_ego_subgraph(small_ba_graph, 17, 2)
        last = int(bfs.nodes[-1])
        assert subgraph.to_local(last) == subgraph.num_nodes - 1
        built = subgraph._local_of
        assert built is not None and len(built) == subgraph.num_nodes
        outside = next(n for n in range(small_ba_graph.num_nodes) if n not in built)
        assert not subgraph.contains_global(outside)
        with pytest.raises(KeyError):
            subgraph.to_local(outside)
        assert subgraph._local_of is built
        for local, node in enumerate(bfs.nodes.tolist()):
            assert subgraph.to_local(node) == local

    @pytest.mark.parametrize("looked_up", [False, True])
    def test_pickle_round_trip(self, small_ba_graph, looked_up):
        subgraph, bfs = extract_ego_subgraph(small_ba_graph, 17, 2)
        if looked_up:
            subgraph.contains_global(0)
        twin = pickle.loads(pickle.dumps(subgraph))
        assert twin.global_ids.tolist() == subgraph.global_ids.tolist()
        assert twin.graph.indices.tolist() == subgraph.graph.indices.tolist()
        assert twin.to_local(int(bfs.nodes[-1])) == subgraph.num_nodes - 1

    def test_direct_constructor_over_read_only_ids(self, small_ba_graph):
        # serving.shm attaches shard ids as a read-only view of shared memory.
        subgraph, bfs = extract_ego_subgraph(small_ba_graph, 5, 1)
        ids = bfs.nodes + 1000
        ids.setflags(write=False)
        shifted = Subgraph(subgraph.graph, ids)
        assert shifted.to_local(1005) == 0
        assert shifted.to_local(int(ids[-1])) == ids.size - 1
        assert not shifted.contains_global(5)
