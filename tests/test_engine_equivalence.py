"""Differential correctness of the engine across graph shapes.

A served answer may not depend on how the engine got it: cold, through the
extraction cache (roomy, or so tight that a batch evicts its own balls),
replayed from the result cache, or from caches carried across a live edge
update, on the serial backend or a thread pool.
Every score must equal — bitwise, no tolerance — what a fresh
:class:`~repro.meloppr.solver.MeLoPPRSolver` computes.  The grid runs that
promise over graph families whose shapes stress the extraction differently
(hubs, long diameters, communities, isolated nodes), and checks the cache's
extractions against the host-graph extraction array for array.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.bfs import extract_ego_subgraph
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    stochastic_block_model,
    watts_strogatz_graph,
)
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.serving import QueryEngine, ScoreTableCache, SubgraphCache, make_backend

BACKENDS = ("serial", "thread:2")

#: A budget below the balls one batch extracts on every family: the cache
#: evicts or declines entries while the batch that installed them still runs.
TIGHT_BYTES = 512


def _star(num_leaves: int) -> CSRGraph:
    return CSRGraph.from_edges(
        num_leaves + 1, [(0, leaf) for leaf in range(1, num_leaves + 1)], name="star"
    )


def _path(num_nodes: int) -> CSRGraph:
    return CSRGraph.from_edges(
        num_nodes, [(i, i + 1) for i in range(num_nodes - 1)], name="path"
    )


def _disconnected() -> CSRGraph:
    """Two scale-free components, then five isolated nodes."""
    first = barabasi_albert_graph(50, 2, rng=31)
    second = barabasi_albert_graph(40, 1, rng=32)
    edges = list(first.iter_edges())
    edges += [(u + 50, v + 50) for u, v in second.iter_edges()]
    return CSRGraph.from_edges(95, edges, name="disconnected")


FAMILIES = {
    "scale-free": lambda: barabasi_albert_graph(120, 2, rng=21, name="scale-free"),
    "random": lambda: erdos_renyi_graph(100, 0.05, rng=22, name="random"),
    "lattice": lambda: watts_strogatz_graph(100, 4, 0.0, rng=0, name="lattice"),
    "small-world": lambda: watts_strogatz_graph(100, 4, 0.2, rng=23, name="small-world"),
    "communities": lambda: stochastic_block_model(
        [35, 35, 30], 0.15, 0.01, rng=24, name="communities"
    ),
    "star": lambda: _star(60),
    "path": lambda: _path(60),
    "disconnected": _disconnected,
}

#: Seeds by family: a hub or end, interior nodes, a repeated seed and (where the
#: family has one) an isolated node.
SEEDS = {
    "scale-free": [0, 7, 63, 7, 119],
    "random": [0, 13, 57, 13, 99],
    "lattice": [0, 25, 50, 25, 99],
    "small-world": [0, 25, 50, 25, 99],
    "communities": [0, 36, 71, 36, 99],
    "star": [0, 1, 30, 1, 60],
    "path": [0, 1, 30, 1, 59],
    "disconnected": [0, 50, 89, 50, 92],
}

#: Mixed walk lengths exercise multi-stage, one-stage and degenerate plans.
LENGTHS = (6, 6, 3, 1, 0)


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family(request):
    return request.param


@pytest.fixture(scope="module")
def graph(family):
    return FAMILIES[family]()


@pytest.fixture(scope="module")
def queries(family):
    return [
        PPRQuery(seed=seed, k=20, alpha=0.85, length=length)
        for seed, length in zip(SEEDS[family], LENGTHS)
    ]


@pytest.fixture(scope="module")
def reference(graph, queries):
    solver = MeLoPPRSolver(graph)
    return [solver.solve(query) for query in queries]


def assert_same_scores(results, reference):
    """Bitwise-equal score vectors and rankings, query by query."""
    assert len(results) == len(reference)
    for result, expected in zip(results, reference):
        assert result.query == expected.query
        assert np.array_equal(result.scores.nodes(), expected.scores.nodes())
        assert np.array_equal(result.scores.values(), expected.scores.values())
        assert result.top_k() == expected.top_k()


def assert_same_metadata(results, reference):
    """Every solver metadata key equal: only an extraction cache may change
    what the solver counts, so the cache-free modes must match it exactly."""
    for result, expected in zip(results, reference):
        ours = {key: value for key, value in result.metadata.items() if key != "serving"}
        assert ours == expected.metadata


class TestGraphFamilyGrid:
    """Every family × cache mode × backend, bitwise identical to a fresh solver."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cold(self, graph, queries, reference, backend):
        with QueryEngine(MeLoPPRSolver(graph), backend=make_backend(backend)) as engine:
            results = engine.solve_batch(queries)
            stats = engine.stats()
        assert_same_scores(results, reference)
        assert_same_metadata(results, reference)
        assert stats.cache is None
        assert stats.queries_served == len(queries)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cached(self, graph, queries, reference, backend):
        cache = SubgraphCache(32 << 20)
        with QueryEngine(
            MeLoPPRSolver(graph), backend=make_backend(backend), cache=cache
        ) as engine:
            first = engine.solve_batch(queries)
            second = engine.solve_batch(queries)
            stats = engine.stats().cache
        assert_same_scores(first, reference)
        assert_same_scores(second, reference)
        # The second pass re-extracts nothing the roomy cache kept.
        assert stats.hits > 0
        assert (stats.evictions, stats.rejected) == (0, 0)
        cache.validate()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tight_budget(self, graph, queries, reference, backend):
        cache = SubgraphCache(TIGHT_BYTES)
        with QueryEngine(
            MeLoPPRSolver(graph), backend=make_backend(backend), cache=cache
        ) as engine:
            first = engine.solve_batch(queries)
            second = engine.solve_batch(queries)
            stats = engine.stats().cache
        assert_same_scores(first, reference)
        assert_same_scores(second, reference)
        assert stats.evictions + stats.rejected > 0
        assert stats.current_bytes <= TIGHT_BYTES
        cache.validate()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_replayed(self, graph, queries, reference, backend):
        with QueryEngine(
            MeLoPPRSolver(graph),
            backend=make_backend(backend),
            result_cache=ScoreTableCache(),
        ) as engine:
            first = [engine.solve_batch([query])[0] for query in queries]
            again = engine.solve_batch(queries)
        assert_same_scores(first, reference)
        assert_same_scores(again, reference)
        assert_same_metadata(first, reference)
        assert_same_metadata(again, reference)
        # One query per batch, so the second pass replays every answer.
        assert {r.metadata["serving"]["result_cache"] for r in again} == {"answer"}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_after_an_update(self, graph, queries, reference, backend):
        # Warm both caches, then cut one of a seed's edges and join another
        # seed to a node it did not touch: what the engine serves next must
        # be what a solver on the rebuilt graph computes.
        ops = update_ops(graph, queries)
        after = rebuilt(graph, ops)
        solver = MeLoPPRSolver(after)
        with QueryEngine(
            MeLoPPRSolver(graph),
            backend=make_backend(backend),
            cache=SubgraphCache(32 << 20),
            result_cache=ScoreTableCache(),
        ) as engine:
            engine.solve_batch(queries)
            outcome = engine.apply_update(ops)
            first = engine.solve_batch(queries)
            second = engine.solve_batch(queries)
        assert outcome["new_fingerprint"] == after.fingerprint()
        updated = [solver.solve(query) for query in queries]
        # The update moves some answer, so serving a stale one would show.
        assert any(
            old.top_k() != new.top_k() for old, new in zip(reference, updated)
        )
        assert_same_scores(first, updated)
        assert_same_scores(second, updated)


def update_ops(graph, queries):
    """Delete an edge at the first seed that has one, and join the next seed
    to the highest node it is not adjacent to."""
    seeds = [query.seed for query in queries]
    cut = next(seed for seed in seeds if graph.degree(seed) > 0)
    ops = [("delete", cut, int(graph.neighbors(cut)[0]))]
    join = next(seed for seed in seeds if seed != cut)
    linked = set(graph.neighbors(join).tolist()) | {join}
    other = max(node for node in range(graph.num_nodes) if node not in linked)
    return ops + [("insert", join, other)]


def rebuilt(graph, ops):
    """``graph`` with ``ops`` applied, rebuilt from scratch from its edge set."""
    edges = set(graph.iter_edges())
    for kind, u, v in ops:
        (edges.add if kind == "insert" else edges.discard)((min(u, v), max(u, v)))
    return CSRGraph.from_edges(graph.num_nodes, sorted(edges), name=graph.name)


class TestCachedExtraction:
    """The cache's stage extractions equal the host-graph extraction."""

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_extraction_arrays_identical(self, graph, depth):
        centers = list(range(0, graph.num_nodes, 7)) + [0, 7]  # two repeats
        cache = SubgraphCache(32 << 20)
        cold = cache.extract_wave(graph, centers, depth)
        warm = cache.extract_wave(graph, centers[::-1], depth)
        assert cold.hits.tolist() == [False] * len(centers)
        assert warm.hits.tolist() == [True] * len(centers)
        for center, ball, warm_ball in zip(centers, cold.split(), warm.split()[::-1]):
            subgraph, bfs = extract_ego_subgraph(graph, center, depth)
            csr, size = subgraph.graph, subgraph.num_nodes
            # The operand is the CSR's inner rows, entry for entry.
            inner = int(np.count_nonzero(bfs.levels < depth))
            rows = np.repeat(np.arange(inner), csr.degrees()[:inner])
            entries = rows * size + csr.indices[: csr.indptr[inner]]
            for got in (ball, warm_ball):
                assert np.array_equal(got.nodes, bfs.nodes)
                assert np.array_equal(got.levels, bfs.levels)
                assert np.array_equal(got.degrees, csr.degrees())
                assert got.edges_scanned.tolist() == [bfs.edges_scanned]
                assert got.name == graph.name
                assert np.array_equal(np.sort(got.sources * size + got.targets), entries)
        stats = cache.stats
        assert stats.misses == len(centers)
        assert stats.hits == len(centers)
        assert stats.num_entries == len(set(centers))


@st.composite
def graph_and_queries(draw):
    """A random small BA or ER graph plus a query mix over it."""
    kind = draw(st.sampled_from(["ba", "er"]))
    rng = draw(st.integers(min_value=0, max_value=2**16))
    num_nodes = draw(st.integers(min_value=30, max_value=120))
    if kind == "ba":
        attachment = draw(st.integers(min_value=1, max_value=3))
        graph = barabasi_albert_graph(num_nodes, attachment, rng=rng)
    else:
        probability = draw(st.floats(min_value=0.02, max_value=0.12))
        graph = erdos_renyi_graph(num_nodes, probability, rng=rng)
    seeds = draw(
        st.lists(st.integers(min_value=0, max_value=num_nodes - 1), min_size=1, max_size=4)
    )
    length = draw(st.sampled_from([2, 4, 6]))
    queries = [PPRQuery(seed=seed, k=20, alpha=0.85, length=length) for seed in seeds]
    return graph, queries


class TestPropertyBased:
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=graph_and_queries(), budget=st.sampled_from([TIGHT_BYTES, 32 << 20]))
    def test_random_graphs_bit_identical(self, case, budget):
        graph, queries = case
        solver = MeLoPPRSolver(graph)
        reference = [solver.solve(query) for query in queries]
        with QueryEngine(
            MeLoPPRSolver(graph),
            backend=make_backend("thread:2"),
            cache=SubgraphCache(budget),
            result_cache=ScoreTableCache(),
        ) as engine:
            assert_same_scores(engine.solve_batch(queries), reference)
            assert_same_scores(engine.solve_batch(queries), reference)
