"""The update reach bound — the survival rule of ego-centred artefacts, once.

``reach[c] = min(D[c] + 1, P[c])`` (:func:`repro.graph.delta.update_reach_bound`)
claims that a depth-``d`` extraction centred on ``c`` is byte-identical on the
old and the new topology exactly when ``reach[c] > d``.  This module checks
the claim three ways:

* a hypothesis differential over random small graphs × random op batches ×
  every ``(centre, depth <= 4)``: soundness always, exactness whenever no two
  ops of the batch cancel, and the same array from either topology;
* tightness on named cases — the boundary is free, a pair on it is not;
* the serving engine under a churn script: after *every* update, every cached
  seed's served result — kept answer, resumed state or recompute — equals a
  fresh uncached solver on a from-scratch rebuild, metadata included, on
  both backends; with the pair clause removed the same check must fail.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.serving.engine as engine_module
from repro.graph.bfs import extract_ego_subgraph
from repro.graph.csr import CSRGraph
from repro.graph.delta import (
    DeltaGraph,
    update_distance_bound,
    update_reach_bound,
)
from repro.graph.generators import watts_strogatz_graph
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.selection import CountSelector
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.serving import (
    QueryEngine,
    ScoreTableCache,
    SubgraphCache,
    make_backend,
)
from repro.serving.result_cache import stage_one_key
from oracle import answer_bits

MAX_DEPTH = 4


def updated(graph: CSRGraph, ops) -> CSRGraph:
    delta = DeltaGraph(graph)
    delta.apply(ops)
    return delta.compact()


def extraction(graph: CSRGraph, center: int, depth: int):
    """Everything a cached extraction holds, as comparable bytes."""
    subgraph, bfs = extract_ego_subgraph(graph, center, depth)
    return (
        subgraph.global_ids.tobytes(),
        subgraph.graph.indptr.tobytes(),
        subgraph.graph.indices.tobytes(),
        bfs.edges_scanned,
    )


def check_rule(old: CSRGraph, ops) -> np.ndarray:
    """Assert the rule on every (centre, depth) of one update; returns reach."""
    new = updated(old, ops)
    reach = update_reach_bound(new, ops, MAX_DEPTH)
    # Either topology gives the same bound.
    assert np.array_equal(reach, update_reach_bound(old, ops, MAX_DEPTH))
    # It never drops less than the node bound did, and at most one hop less.
    node_bound = update_distance_bound(
        old, new, sorted({node for _, u, v in ops for node in (u, v)}), MAX_DEPTH
    )
    assert np.all((reach == node_bound) | (reach == node_bound + 1))
    cancelling = len({(u, v) for _, u, v in ops}) < len(ops)
    for center in range(old.num_nodes):
        for depth in range(MAX_DEPTH + 1):
            same = extraction(old, center, depth) == extraction(new, center, depth)
            if reach[center] > depth:
                assert same, (center, depth, ops)
            elif not cancelling:
                assert not same, (center, depth, ops)
    return reach


# ----------------------------------------------------------------------
# (a) Hypothesis differential
# ----------------------------------------------------------------------
@st.composite
def graphs_and_batches(draw):
    num_nodes = draw(st.integers(min_value=3, max_value=12))
    pairs = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
    edges = set(draw(st.lists(st.sampled_from(pairs), max_size=2 * num_nodes)))
    graph = CSRGraph.from_edges(num_nodes, sorted(edges), name="random")
    ops = []
    for pair in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=5)):
        # Valid by construction; a pair drawn twice is inserted and deleted
        # (or deleted and re-inserted) within the one batch.
        kind = "delete" if pair in edges else "insert"
        (edges.discard if kind == "delete" else edges.add)(pair)
        ops.append((kind, *pair))
    return graph, ops


@settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(graphs_and_batches())
def test_reach_decides_every_extraction(case):
    check_rule(*case)


def test_batches_beyond_one_label_pass_compose():
    # 40 ops need two labelled passes (32 ops a pass): reach is their minimum.
    graph = CSRGraph.from_edges(90, [(i, i + 1) for i in range(89)], name="path90")
    ops = [("insert", i, i + 2) for i in range(0, 80, 2)]
    assert len(ops) == 40
    reach = update_reach_bound(graph, ops, 3)
    assert np.array_equal(
        reach,
        np.minimum(
            update_reach_bound(graph, ops[:7], 3), update_reach_bound(graph, ops[7:], 3)
        ),
    )
    # Node 81 sits past the last chord (78, 80): one hop from its endpoint.
    assert reach[81] == 2 and reach[85] == 5
    with pytest.raises(ValueError):
        update_reach_bound(graph, ops, -1)


# ----------------------------------------------------------------------
# (b) Tightness, on named cases
# ----------------------------------------------------------------------
def path(num_nodes: int) -> CSRGraph:
    edges = [(i, i + 1) for i in range(num_nodes - 1)]
    return CSRGraph.from_edges(num_nodes, edges, name=f"path{num_nodes}")


#: Two three-hop arms from node 0: 0-1-2-3 and 0-4-5-6.
ARMS = CSRGraph.from_edges(
    7, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6)], name="arms"
)
#: Node 3 is three hops from node 0 one way round (0-1-2-3), five the other.
ROUND = CSRGraph.from_edges(
    8,
    [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7), (3, 7)],
    name="round",
)


@pytest.mark.parametrize(
    "graph, ops, center, expected",
    [
        # Endpoint 4 on the depth-3 boundary of node 1, the other end outside:
        # the ball survives (the node bound, 3, would have dropped it).
        pytest.param(path(12), [("insert", 4, 9)], 1, 4, id="boundary-free"),
        # Both ends on the boundary: the induced edge (3, 6) appears.
        pytest.param(ARMS, [("insert", 3, 6)], 0, 3, id="pair-on-boundary"),
        # Endpoint 3 at depth - 1: its new neighbour joins the ball.
        pytest.param(path(12), [("insert", 3, 9)], 1, 3, id="inside-by-one"),
        # Deleting (2, 3) sends node 3 from three hops to five.
        pytest.param(ROUND, [("delete", 2, 3)], 0, 3, id="delete-lengthens"),
        # Inserting (0, 6) brings node 6 from 5 hops to 2.
        pytest.param(path(9), [("insert", 0, 6)], 1, 2, id="insert-shortens"),
    ],
)
def test_named_cases(graph, ops, center, expected):
    reach = check_rule(graph, ops)
    assert reach[center] == expected


# ----------------------------------------------------------------------
# (c) The radius covers every stage an answer ran
# ----------------------------------------------------------------------
@pytest.mark.parametrize("split", [(2, 4), (1, 2, 3)], ids=["2+4", "1+2+3"])
def test_update_radius_covers_every_stage_of_an_answer(split):
    graph = path(40)
    config = MeLoPPRConfig(stage_lengths=split, track_memory=False)
    query = PPRQuery(seed=20, k=5, length=sum(split))
    cache = ScoreTableCache()
    with QueryEngine(MeLoPPRSolver(graph, config), result_cache=cache) as engine:
        (first,) = engine.solve_batch([query])
        assert cache.radius(graph) == max(split)
        # Far from every task: resolved out to the longest stage, the answer
        # is provably untouched and outlives the update.
        outcome = engine.apply_update([("insert", 0, 2)])
        assert outcome["radius"] == max(split)
        assert outcome["invalidated"]["result_answers_kept"] == 1
        (kept,) = engine.solve_batch([query])
        assert kept.metadata["serving"]["result_cache"] == "answer"
        assert kept.scores is first.scores
        # A bare state is folded from the stage-one ball alone.
        key = stage_one_key(query, config)
        cache.put(key, cache.get(key), engine.solver.graph)
        assert cache.radius(engine.solver.graph) == split[0]
        # A cache bound to another graph is no part of this graph's update.
        assert cache.radius(graph) == 0
    assert ScoreTableCache().radius(graph) == 0


# ----------------------------------------------------------------------
# (d) The engine under churn, against from-scratch rebuilds
# ----------------------------------------------------------------------
#: Small balls on a ring lattice (every node linked to its two nearest on
#: each side): centres equidistant from both ends of an op are everywhere.
CONFIG = MeLoPPRConfig(
    stage_lengths=(2, 2), selector=CountSelector(3), track_memory=False
)
NUM_NODES = 160


def make_engine(graph: CSRGraph, mode: str, cache_bytes=None) -> QueryEngine:
    return QueryEngine(
        MeLoPPRSolver(graph, CONFIG),
        backend=make_backend(mode),
        cache=SubgraphCache() if cache_bytes is None else SubgraphCache(cache_bytes),
        result_cache=ScoreTableCache(),
    )


def churn_script(graph: CSRGraph, steps: int, rng: np.random.Generator):
    """``steps`` batches of short chords: each inserts two, deletes the two
    the batch before inserted and, now and then, a lattice edge."""
    edges = set(graph.iter_edges())
    previous = []
    for _ in range(steps):
        ops = [("delete", u, v) for u, v in previous]
        previous = []
        while len(previous) < 2:
            u = int(rng.integers(NUM_NODES - 4))
            pair = (u, u + int(rng.integers(3, 5)))
            if pair not in edges:
                edges.add(pair)
                previous.append(pair)
                ops.append(("insert", *pair))
        if rng.random() < 0.3:
            u, v = sorted(edges)[int(rng.integers(len(edges)))]
            if (u, v) not in previous:
                ops.append(("delete", u, v))
        for kind, u, v in ops:
            if kind == "delete":
                edges.discard((u, v))
        yield ops, sorted(edges)


def churn_differential(mode: str, steps: int, cache_bytes=None):
    """Serve every cached seed after every update; count what disagrees with
    a fresh solver on the rebuilt graph: (comparisons, kept answers, wrong)."""
    graph = watts_strogatz_graph(NUM_NODES, 4, 0.0, rng=0, name="lattice")
    queries = [PPRQuery(seed=seed, k=6, length=4) for seed in range(0, NUM_NODES, 3)]
    comparisons = kept = wrong = 0
    with make_engine(graph, mode, cache_bytes) as engine:
        engine.solve_batch(queries)
        for ops, edges in churn_script(graph, steps, np.random.default_rng(7)):
            outcome = engine.apply_update(ops)
            kept += outcome["invalidated"]["result_answers_kept"]
            rebuilt = CSRGraph.from_edges(NUM_NODES, edges, name=graph.name)
            assert outcome["new_fingerprint"] == rebuilt.fingerprint()
            reference = MeLoPPRSolver(rebuilt, CONFIG)
            for query, served in zip(queries, engine.solve_batch(queries)):
                expected = reference.solve(query)
                comparisons += 1
                # Every engine here has a SubgraphCache.
                wrong += answer_bits(served, extraction_cache=True) != answer_bits(
                    expected, extraction_cache=True
                )
    return comparisons, kept, wrong


@pytest.mark.parametrize(
    "mode, steps, cache_bytes",
    [("serial", 15, None), ("thread:2", 6, None), ("serial", 6, 2048)],
    # ``tight``: an extraction cache that evicts while updates carry it.
    ids=["serial-15", "thread:2-6", "serial-tight-6"],
)
def test_every_served_result_after_every_update_equals_a_rebuild(mode, steps, cache_bytes):
    comparisons, kept, wrong = churn_differential(mode, steps, cache_bytes)
    assert comparisons == steps * 54
    assert wrong == 0
    # Most answers are out of reach of an update and are served as kept.
    assert kept > comparisons // 2


def test_without_the_pair_clause_the_differential_fails(monkeypatch):
    # The mutation check: drop `P[c]` and keep only `D[c] + 1`.
    def node_bound_plus_one(graph, ops, radius):
        touched = sorted({node for _, u, v in ops for node in (u, v)})
        return update_distance_bound(graph, graph, touched, radius) + 1

    monkeypatch.setattr(engine_module, "update_reach_bound", node_bound_plus_one)
    _, _, wrong = churn_differential("serial", 8)
    assert wrong > 0
