"""Differential tests of the diffusion kernels.

Every kernel in ``KERNELS`` must be **bit-identical** to the ``reference``
``np.add.at`` implementation — same accumulated scores, same residual, same
propagation-work counter — across graph shapes, diffusion lengths and both
sparse (one-hot) and dense initial vectors.  The integer datapath
(``fixed_point_diffusion``) is held exactly to a dense int64 product written
in ``tests/oracle.py``.  ``np.array_equal`` is the assertion everywhere;
there is no tolerance.
"""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion.diffusion import graph_diffusion, seed_vector, stage_diffusion
from repro.diffusion.kernels import (
    DENSE_FRONTIER_FRACTION,
    KERNELS,
    GraphStructure,
    make_kernel,
    structure_for,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    stochastic_block_model,
    watts_strogatz_graph,
)
from repro.meloppr.fixed_point import FixedPointFormat, fixed_point_diffusion
from oracle import fixed_point_step

NON_REFERENCE = tuple(name for name in KERNELS if name != "reference")
# ``None`` is what every layer above diffusion passes: the served path.
SERVED = NON_REFERENCE + (None,)

GRAPH_CASES = [
    lambda: CSRGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)], name="triangle"),
    lambda: CSRGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)], name="fig1"),
    # Isolated node 5: its score must evaporate identically in every kernel.
    lambda: CSRGraph.from_edges(6, [(0, 1), (1, 2), (3, 4)], name="islands"),
    lambda: barabasi_albert_graph(120, 3, rng=7, name="ba120"),
    lambda: erdos_renyi_graph(80, 0.08, rng=11, name="er80"),
    lambda: watts_strogatz_graph(90, 4, 0.2, rng=13, name="ws90"),
    lambda: stochastic_block_model([40, 40], 0.15, 0.01, rng=19, name="sbm80"),
]


def _initial_vectors(num_nodes: int, rng: np.random.Generator):
    """One sparse (one-hot) and one dense initial vector per graph."""
    yield seed_vector(num_nodes, int(rng.integers(num_nodes)))
    dense = rng.random(num_nodes)
    yield dense / dense.sum()


class TestKernelDifferential:
    @pytest.mark.parametrize("make_graph", GRAPH_CASES)
    @pytest.mark.parametrize("kernel", SERVED)
    def test_bit_identical_to_reference(self, make_graph, kernel):
        graph = make_graph()
        rng = np.random.default_rng(hash(graph.name) % (2**32))
        for initial in _initial_vectors(graph.num_nodes, rng):
            for length in range(0, 5):
                expected = graph_diffusion(graph, initial, length, 0.85, kernel="reference")
                result = graph_diffusion(graph, initial, length, 0.85, kernel=kernel)
                assert np.array_equal(result.accumulated, expected.accumulated)
                assert np.array_equal(result.residual, expected.residual)
                assert result.propagations == expected.propagations

    @pytest.mark.parametrize("kernel", SERVED)
    def test_long_diffusion_stays_exact(self, kernel, small_ba_graph):
        """Length 12 drives the frontier dense — both regimes stay exact."""
        initial = seed_vector(small_ba_graph.num_nodes, 0)
        expected = graph_diffusion(small_ba_graph, initial, 12, 0.85, kernel="reference")
        result = graph_diffusion(small_ba_graph, initial, 12, 0.85, kernel=kernel)
        assert np.array_equal(result.accumulated, expected.accumulated)
        assert np.array_equal(result.residual, expected.residual)
        assert result.propagations == expected.propagations

    @settings(max_examples=30, deadline=None)
    @given(
        num_nodes=st.integers(min_value=2, max_value=40),
        edge_seed=st.integers(min_value=0, max_value=2**31),
        seed_node=st.integers(min_value=0, max_value=39),
        length=st.integers(min_value=0, max_value=4),
    )
    def test_property_random_graphs(self, num_nodes, edge_seed, seed_node, length):
        graph = erdos_renyi_graph(num_nodes, 0.2, rng=edge_seed, name="prop")
        initial = seed_vector(num_nodes, seed_node % num_nodes)
        expected = graph_diffusion(graph, initial, length, 0.85, kernel="reference")
        for kernel in NON_REFERENCE:
            result = graph_diffusion(graph, initial, length, 0.85, kernel=kernel)
            assert np.array_equal(result.accumulated, expected.accumulated)
            assert np.array_equal(result.residual, expected.residual)
            assert result.propagations == expected.propagations


def dense_fixed_point(graph, seed, length, fmt):
    """The FPGA datapath's recurrence with the oracle's dense int64 step:
    ``(accumulated, residual)`` as integers."""
    shift, numerator = fmt.shift_bits, fmt.alpha_numerator
    residual = np.zeros(graph.num_nodes, dtype=np.int64)
    residual[seed] = fmt.seed_value
    accumulated = np.zeros_like(residual)
    alpha_power = 1 << shift
    for _ in range(length):
        term = (residual * alpha_power) >> shift
        accumulated += (term * ((1 << shift) - numerator)) >> shift
        residual = fixed_point_step(graph, residual)
        alpha_power = (alpha_power * numerator) >> shift
    return accumulated + ((residual * alpha_power) >> shift), residual


class TestFixedPointDatapath:
    @pytest.mark.parametrize("end", ["first", "last"])
    @pytest.mark.parametrize("make_graph", GRAPH_CASES)
    def test_exact_against_the_dense_integer_step(self, make_graph, end):
        """Every shape, isolated nodes included, from both ends of the id range."""
        graph = make_graph()
        fmt = FixedPointFormat.for_subgraph(0.85, graph.num_nodes, 4.0)
        seed = 0 if end == "first" else graph.num_nodes - 1
        for length in range(0, 5):
            result = fixed_point_diffusion(graph, seed, length, fmt)
            accumulated, residual = dense_fixed_point(graph, seed, length, fmt)
            assert np.array_equal(result.accumulated_int, accumulated)
            assert np.array_equal(result.residual_int, residual)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.85])
    def test_exact_on_a_citation_graph(self, small_citation_graph, alpha):
        """A dataset-shaped graph, under three quantised decay factors."""
        graph = small_citation_graph
        fmt = FixedPointFormat.for_subgraph(alpha, graph.num_nodes, 4.0)
        for seed in (5, 150):
            for length in range(0, 5):
                result = fixed_point_diffusion(graph, seed, length, fmt)
                accumulated, residual = dense_fixed_point(graph, seed, length, fmt)
                assert np.array_equal(result.accumulated_int, accumulated)
                assert np.array_equal(result.residual_int, residual)


def push_operand(graphs):
    """The graphs stacked as one push-form operand, each graph's CSR row ids
    and columns offset: ``(targets, sources, degrees, bounds)``."""
    bounds = np.cumsum([0] + [graph.num_nodes for graph in graphs])
    none = np.zeros(0, dtype=np.int64)
    degrees = np.concatenate([none] + [graph.degrees() for graph in graphs])
    sources = np.concatenate(
        [none] + [graph.indices + base for graph, base in zip(graphs, bounds)]
    )
    return np.repeat(np.arange(bounds[-1]), degrees), sources, degrees, bounds


def stage_diffuse(graphs, seeds, length, alpha=0.85):
    """``stage_diffusion`` over ``graphs`` stacked, split back per graph:
    ``(accumulated, residual, propagations)`` per graph."""
    targets, sources, degrees, bounds = push_operand(graphs)
    rows = bounds[:-1] + np.asarray(seeds, dtype=np.int64)
    accumulated, residual, propagations = stage_diffusion(
        targets, sources, degrees, bounds, rows, length, alpha
    )
    assert propagations.shape == (len(graphs),) and propagations.dtype == np.int64
    return [
        (accumulated[begin:end], residual[begin:end], int(work))
        for begin, end, work in zip(bounds[:-1], bounds[1:], propagations)
    ]


def assert_stage_matches_per_graph(graphs, seeds, length, kernels=KERNELS, alpha=0.85):
    """``stage_diffusion`` equals ``graph_diffusion`` per graph under each of
    ``kernels``, bit for bit."""
    results = stage_diffuse(graphs, seeds, length, alpha)
    assert len(results) == len(graphs)
    for graph, seed, (accumulated, residual, propagations) in zip(graphs, seeds, results):
        for kernel in kernels:
            expected = graph_diffusion(
                graph, seed_vector(graph.num_nodes, seed), length, alpha, kernel=kernel
            )
            assert np.array_equal(accumulated, expected.accumulated)
            assert np.array_equal(residual, expected.residual)
            assert propagations == expected.propagations
    return results


def record_frontier(monkeypatch):
    """Make the ``frontier`` kernel note, per step, whether it went dense;
    returns the list it appends to."""
    went_dense, frontier = [], KERNELS["frontier"]

    def recording(structure, scores):
        went_dense.append(
            np.count_nonzero(scores) > DENSE_FRONTIER_FRACTION * structure.num_nodes
        )
        return frontier(structure, scores)

    monkeypatch.setitem(KERNELS, "frontier", recording)
    return went_dense


def _path(size):
    return CSRGraph.from_edges(size, [(i, i + 1) for i in range(size - 1)], name=f"path{size}")


def _clique():
    return CSRGraph.from_edges(5, [(u, v) for u in range(5) for v in range(u)], name="k5")


class TestStageDiffusion:
    """``stage_diffusion`` has no kernel of its own to pick: its one scatter
    is held to ``graph_diffusion`` under every kernel in ``KERNELS``."""

    @pytest.mark.parametrize("kernel", tuple(KERNELS) + (None,))
    def test_a_wave_of_mixed_graphs_matches_per_graph(self, kernel):
        graphs = [make_graph() for make_graph in GRAPH_CASES]
        rng = np.random.default_rng(5)
        seeds = [int(rng.integers(graph.num_nodes)) for graph in graphs]
        seeds[2] = 5  # the isolated node: its score evaporates in its own block
        for length in range(0, 5):
            assert_stage_matches_per_graph(graphs, seeds, length, (kernel,))
        assert_stage_matches_per_graph(graphs[3:4], seeds[3:4], 3, (kernel,))
        assert_stage_matches_per_graph([graphs[3]] * 3, [0, 7, 0], 3, (kernel,), alpha=0.5)

    def test_matches_the_frontier_kernel_where_it_stays_sparse(self, monkeypatch):
        path, clique = _path(100), _clique()
        went_dense = record_frontier(monkeypatch)
        graph_diffusion(path, seed_vector(100, 50), 3, 0.85, kernel="frontier")
        assert went_dense == [False, False, False]
        assert_stage_matches_per_graph([path] + [clique] * 20, [50] + [0] * 20, 3)

    def test_matches_the_frontier_kernel_where_it_goes_dense(self, monkeypatch):
        path, clique = _path(1000), _clique()
        went_dense = record_frontier(monkeypatch)
        graph_diffusion(clique, seed_vector(5, 0), 3, 0.85, kernel="frontier")
        assert went_dense == [False, True, True]
        assert_stage_matches_per_graph([clique, path], [0, 500], 3)

    def test_results_are_split_per_graph(self, small_ba_graph, star_graph):
        first, second = stage_diffuse([small_ba_graph, star_graph], [3, 0], 2)
        assert first[0].size == small_ba_graph.num_nodes
        assert second[0].size == star_graph.num_nodes
        assert second[2] == 6 + 6  # the hub's row, then the six leaves'

    def test_no_graphs_and_bad_seeds(self, star_graph):
        none = np.zeros(0, dtype=np.int64)
        accumulated, residual, propagations = stage_diffusion(none, none, none, [0], [], 3)
        assert accumulated.size == residual.size == propagations.size == 0
        operand = push_operand([star_graph, star_graph])
        targets, sources, degrees, bounds = operand
        with pytest.raises(ValueError):
            stage_diffusion(targets, sources, degrees, bounds, [0], 3)  # one seed, two blocks
        with pytest.raises(ValueError):
            stage_diffusion(targets, sources, degrees, bounds, [0, 3], 3)  # seed outside block 1
        with pytest.raises(ValueError):
            stage_diffusion(targets, sources, degrees, bounds, [0, 7], -1)

    def test_entries_a_short_diffusion_never_reads_may_be_left_out(self, small_ba_graph):
        # A ball's last level never carries mass into a diffusion no longer
        # than the ball is deep, so the entries out of it add only +0.0.
        from repro.graph.bfs import extract_ego_subgraph

        subgraph, bfs = extract_ego_subgraph(small_ba_graph, 7, 2)
        targets, sources, degrees, bounds = push_operand([subgraph.graph])
        inner = bfs.levels[sources] < 2
        for length in (0, 1, 2):
            full = stage_diffusion(targets, sources, degrees, bounds, [0], length)
            cut = stage_diffusion(targets[inner], sources[inner], degrees, bounds, [0], length)
            for ours, theirs in zip(cut, full):
                assert np.array_equal(ours, theirs)
        assert inner.sum() == bfs.edges_scanned < targets.size


class TestGraphStructure:
    def test_structure_is_kept_on_the_graph(self, small_ba_graph):
        first = structure_for(small_ba_graph)
        assert structure_for(small_ba_graph) is first is small_ba_graph._structure

    def test_both_datapaths_diffuse_on_the_one_structure(self):
        graph = CSRGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)], name="fig1")
        assert graph._structure is None
        graph_diffusion(graph, seed_vector(4, 0), 2, kernel="csr")
        first = graph._structure
        fixed_point_diffusion(graph, 0, 2, FixedPointFormat.for_subgraph(0.85, 4, 4.0))
        assert graph._structure is first is not None

    def test_rows_sorted_detected(self, small_ba_graph):
        assert structure_for(small_ba_graph).rows_sorted

    def test_unsorted_rows_fall_back_to_dense_path(self):
        # A hand-built CSR with descending neighbour lists: row 0 -> [2, 1].
        indptr = np.array([0, 2, 3, 4], dtype=np.int64)
        indices = np.array([2, 1, 0, 0], dtype=np.int64)
        structure = GraphStructure(indptr, indices)
        assert not structure.rows_sorted
        scores = np.array([1.0, 0.0, 0.0])
        reference = KERNELS["reference"](structure, scores)
        frontier = KERNELS["frontier"](structure, scores)
        assert np.array_equal(frontier[0], reference[0]) and frontier[1] == reference[1]

    def test_touched_counts_frontier_degrees(self, star_graph):
        structure = structure_for(star_graph)
        scores = np.zeros(star_graph.num_nodes)
        scores[0] = 1.0
        assert structure.touched(scores) == 6
        scores[1] = 0.5
        assert structure.touched(scores) == 7


class TestRegistry:
    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown diffusion kernel"):
            make_kernel("auto")

    def test_default_is_reference(self):
        assert make_kernel(None) is make_kernel("reference")

    @pytest.mark.parametrize("name", ["reference", "csr", "frontier"])
    def test_name_resolves_to_its_kernel(self, name):
        assert make_kernel(name) is KERNELS[name]

    def test_environment_does_not_select_the_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIFFUSION_KERNEL", "csr")
        assert make_kernel(None) is KERNELS["reference"]

    def test_only_a_name_selects_a_kernel(self, triangle_graph):
        with pytest.raises(ValueError, match="unknown diffusion kernel"):
            graph_diffusion(triangle_graph, seed_vector(3, 0), 2, kernel=KERNELS["csr"])
