"""The paper's identities, checked on every graph shape against dense oracles.

Each solver and kernel is compared with the closed form it implements,
evaluated with a dense ``numpy`` transition matrix: Eq. 1 (graph diffusion),
its locality (a length-``L`` diffusion never leaves the depth-``L`` ball),
Eq. 6 (stage decomposition), Eq. 7 (linear decomposition of the residual),
MeLoPPR's exactness when every residual node is expanded and its mass
conservation under any budget, the integer datapath's one-sided rounding,
and the BFS extraction against NetworkX.  The grid runs them over graph
families whose shapes stress the walk differently (hubs, long diameters,
communities, triangles, isolated nodes), each from a hub, a median-degree
node and a least-degree node.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.diffusion.diffusion import graph_diffusion, seed_vector, stage_diffusion
from repro.graph.bfs import bfs_levels, extract_ego_subgraph, extract_wave
from repro.graph.csr import CSRGraph
from repro.graph.delta import min_hop_distances
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.fixed_point import FixedPointFormat, fixed_point_diffusion
from repro.meloppr.selection import AllSelector, CountSelector, RatioSelector
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.ppr.local_ppr import LocalPPRSolver
from oracle import (
    FAMILIES,
    ROLES,
    PowerIterationSolver,
    dense_diffusion,
    dense_transition,
    linear_decomposed_diffusion,
    multi_stage_diffusion,
    role_seed,
)

ALPHA = 0.85
LENGTH = 6
#: Float sums in a different order than the oracle's matrix products.
TOLERANCE = dict(rtol=1e-10, atol=1e-13)


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def graph(request) -> CSRGraph:
    return FAMILIES[request.param]()


@pytest.fixture(scope="module")
def nx_graph(graph) -> nx.Graph:
    return graph.to_networkx()


@pytest.fixture(scope="module")
def transition(graph) -> np.ndarray:
    return dense_transition(graph)


@pytest.fixture(params=ROLES)
def seed(request, graph) -> int:
    return role_seed(graph, request.param)


def as_dense(scores, num_nodes: int) -> np.ndarray:
    dense = np.zeros(num_nodes)
    dense[scores.nodes()] = scores.values()
    return dense


@pytest.fixture
def exact(graph, transition, seed) -> np.ndarray:
    return dense_diffusion(transition, seed_vector(graph.num_nodes, seed), LENGTH, ALPHA)[0]


def query(seed: int) -> PPRQuery:
    return PPRQuery(seed=seed, k=20, alpha=ALPHA, length=LENGTH)


def test_graph_diffusion_is_eq1(graph, transition, seed):
    initial = seed_vector(graph.num_nodes, seed)
    for length in (0, 1, 3, LENGTH):
        result = graph_diffusion(graph, initial, length, ALPHA)
        accumulated, residual = dense_diffusion(transition, initial, length, ALPHA)
        np.testing.assert_allclose(result.accumulated, accumulated, **TOLERANCE)
        np.testing.assert_allclose(result.residual, residual, **TOLERANCE)


def test_power_iteration_is_the_length_l_diffusion(graph, seed, exact):
    result = PowerIterationSolver(graph).solve(query(seed))
    assert result.metadata["iterations"] == LENGTH
    np.testing.assert_allclose(as_dense(result.scores, graph.num_nodes), exact, **TOLERANCE)


def test_the_depth_l_ball_gives_the_global_diffusion(graph, nx_graph, seed, exact):
    result = LocalPPRSolver(graph, track_memory=False).solve(query(seed))
    within = nx.single_source_shortest_path_length(nx_graph, seed, cutoff=LENGTH)
    assert set(result.scores.nodes().tolist()) <= set(within)
    assert set(exact.nonzero()[0].tolist()) <= set(within)
    np.testing.assert_allclose(as_dense(result.scores, graph.num_nodes), exact, **TOLERANCE)


@pytest.mark.parametrize("lengths", [(1, 5), (3, 3), (5, 1), (2, 2, 2)])
def test_stage_decomposition_is_eq6(graph, seed, exact, lengths):
    initial = seed_vector(graph.num_nodes, seed)
    np.testing.assert_allclose(
        multi_stage_diffusion(graph, initial, lengths, ALPHA), exact, **TOLERANCE
    )


def test_linear_decomposition_is_eq7(graph, transition, seed):
    _, residual = dense_diffusion(transition, seed_vector(graph.num_nodes, seed), 3, ALPHA)
    (nodes,) = residual.nonzero()
    expected, _ = dense_diffusion(transition, residual, 3, ALPHA)
    np.testing.assert_allclose(
        linear_decomposed_diffusion(graph, nodes, residual[nodes], 3, ALPHA),
        expected,
        **TOLERANCE,
    )


@pytest.mark.parametrize("lengths", [(3, 3), (2, 4), (2, 2, 2)])
def test_expanding_every_residual_node_is_exact(graph, seed, exact, lengths):
    config = MeLoPPRConfig(
        stage_lengths=lengths,
        selector=AllSelector(),
        score_table_factor=None,
        track_memory=False,
        residual_tolerance=0.0,
    )
    result = MeLoPPRSolver(graph, config).solve(query(seed))
    np.testing.assert_allclose(as_dense(result.scores, graph.num_nodes), exact, **TOLERANCE)


@pytest.mark.parametrize(
    "selector", [CountSelector(1), RatioSelector(0.02), RatioSelector(0.3)], ids=repr
)
def test_any_budget_keeps_the_mass(graph, seed, exact, selector):
    """Unexpanded residual mass stays at its node: the total never moves."""
    config = MeLoPPRConfig(selector=selector, score_table_factor=None, track_memory=False)
    result = MeLoPPRSolver(graph, config).solve(query(seed))
    assert result.scores.values().sum() == pytest.approx(exact.sum(), rel=1e-12)
    assert (result.scores.values() >= 0).all()


def test_the_integer_datapath_never_overestimates(graph, seed):
    """Every truncation in the fixed-point PE rounds down, so its scores are
    bounded by the float diffusion at the quantised decay ``alpha_p / 2**q``."""
    subgraph, _ = extract_ego_subgraph(graph, seed, LENGTH)
    fmt = FixedPointFormat.for_subgraph(
        ALPHA, subgraph.num_nodes, max(int(subgraph.graph.degrees().max()), 1)
    )
    result = fixed_point_diffusion(subgraph.graph, 0, LENGTH, fmt)
    quantised = fmt.alpha_numerator / (1 << fmt.shift_bits)
    bound = graph_diffusion(subgraph.graph, seed_vector(subgraph.num_nodes, 0), LENGTH, quantised)
    slack = 1e-9 * fmt.seed_value
    assert (result.accumulated_int <= fmt.seed_value * bound.accumulated + slack).all()
    assert (result.residual_int <= fmt.seed_value * bound.residual + slack).all()


def test_bfs_levels_are_hop_distances_in_visit_order(graph, nx_graph, seed):
    result = bfs_levels(graph, seed, 3)
    expected = nx.single_source_shortest_path_length(nx_graph, seed, cutoff=3)
    assert dict(zip(result.nodes.tolist(), result.levels.tolist())) == expected
    assert result.nodes.size == len(expected)
    # Level by level, ascending ids within a level.
    assert np.array_equal(np.lexsort((result.nodes, result.levels)), np.arange(result.nodes.size))


def test_the_ego_ball_is_the_induced_networkx_ego_graph(graph, nx_graph, seed):
    for depth in (1, 3):
        subgraph, _ = extract_ego_subgraph(graph, seed, depth)
        expected = nx.ego_graph(nx_graph, seed, radius=depth)
        ids = subgraph.global_ids
        assert ids[0] == seed
        assert set(ids.tolist()) == set(expected.nodes)
        edges = {frozenset((int(ids[u]), int(ids[v]))) for u, v in subgraph.graph.iter_edges()}
        assert edges == {frozenset(edge) for edge in expected.edges}


def test_min_hop_distances_are_multi_source_hops(graph, nx_graph, seed):
    sources = sorted({seed, graph.num_nodes - 1})
    distances = min_hop_distances(graph, sources, 3)
    expected = nx.multi_source_dijkstra_path_length(nx_graph, sources, cutoff=3)
    assert {node: int(distances[node]) for node in expected} == expected
    far = np.setdiff1d(np.arange(graph.num_nodes), list(expected))
    assert (distances[far] == 4).all()


def test_a_wave_diffuses_each_ball_as_graph_diffusion_does(graph, seed):
    """The serving path's stacked balls give, bit for bit, each ball's own
    diffusion on its extracted sub-graph."""
    centers = [seed, graph.num_nodes - 1, seed]
    wave = extract_wave(graph, centers, 3)
    accumulated, residual, propagations = stage_diffusion(
        wave.targets, wave.sources, wave.degrees, wave.bounds, wave.bounds[:-1], 3, ALPHA
    )
    for ball, center in enumerate(centers):
        subgraph, _ = extract_ego_subgraph(graph, center, 3)
        begin, end = wave.bounds[ball], wave.bounds[ball + 1]
        assert np.array_equal(wave.nodes[begin:end], subgraph.global_ids)
        alone = graph_diffusion(subgraph.graph, seed_vector(subgraph.num_nodes, 0), 3, ALPHA)
        assert np.array_equal(accumulated[begin:end], alone.accumulated)
        assert np.array_equal(residual[begin:end], alone.residual)
        assert propagations[ball] == alone.propagations
