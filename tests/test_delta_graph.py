"""Dynamic graphs: DeltaGraph overlays, reach bounds, and surgical updates.

Covers the streaming-update substrate end to end:

* overlay semantics (insert/delete/cancel, merged neighbour reads, exact
  edge counts) and validation of wire-form edge-op batches;
* ``compact()`` bit-identity against from-scratch rebuilds — including a
  hypothesis-driven random update-stream suite;
* the conservative hop-distance bound that justifies surgical cache
  invalidation;
* ``QueryEngine.apply_update`` differentials across serial and thread-pool
  serving (answers must match a fresh solver on the rebuilt
  graph at every step), the writer barrier under concurrent
  batches, and the per-graph diffusion structure a compacted graph does not
  inherit from its base.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.diffusion import kernels
from repro.diffusion.diffusion import graph_diffusion, seed_vector
from repro.diffusion.kernels import structure_for
from repro.graph.csr import CSRGraph
from repro.graph.delta import (
    DeltaGraph,
    min_hop_distances,
    normalize_edge_ops,
    update_distance_bound,
)
from repro.graph.generators import barabasi_albert_graph
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.selection import RatioSelector
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.serving.backends import ThreadPoolBackend
from repro.serving.cache import SubgraphCache
from repro.serving.engine import QueryEngine
from repro.serving.result_cache import ScoreTableCache
from oracle import assert_same_answers, serial_answers


def edge_set(graph) -> set:
    """Canonical ``(u < v)`` edge pairs of a CSRGraph or DeltaGraph."""
    edges = set()
    for u in range(graph.num_nodes):
        for v in graph.neighbors(u):
            if u < int(v):
                edges.add((u, int(v)))
    return edges


def path_graph(num_nodes: int) -> CSRGraph:
    return CSRGraph.from_edges(
        num_nodes, [(i, i + 1) for i in range(num_nodes - 1)], name="path"
    )


@pytest.fixture
def base() -> CSRGraph:
    return barabasi_albert_graph(60, 2, rng=0)


# ----------------------------------------------------------------------
# normalize_edge_ops
# ----------------------------------------------------------------------
class TestNormalizeEdgeOps:
    def test_tuples_and_dicts_canonicalise(self):
        ops = normalize_edge_ops(
            [("insert", 5, 3), {"op": "delete", "u": 1, "v": 7}], 10
        )
        assert ops == [("insert", 3, 5), ("delete", 1, 7)]

    def test_numpy_endpoints_accepted(self):
        ops = normalize_edge_ops([("insert", np.int64(2), np.int32(4))], 10)
        assert ops == [("insert", 2, 4)]

    @pytest.mark.parametrize(
        "bad",
        [
            [("grow", 0, 1)],
            [("insert", 0, 0)],
            [("insert", -1, 2)],
            [("insert", 0, 99)],
            [("insert", True, 2)],
            [("insert", 0.5, 2)],
            [("insert", 0)],
            [{"op": "insert", "u": 0}],
            [],
            "insert",
            {"op": "insert", "u": 0, "v": 1},
        ],
    )
    def test_invalid_batches_raise(self, bad):
        with pytest.raises(ValueError):
            normalize_edge_ops(bad, 10)


# ----------------------------------------------------------------------
# DeltaGraph overlay semantics
# ----------------------------------------------------------------------
class TestDeltaGraphOverlay:
    def test_insert_delete_and_counts(self, base):
        delta = DeltaGraph(base)
        reference = edge_set(base)
        new_edge = next(
            (u, v)
            for u in range(base.num_nodes)
            for v in range(u + 1, base.num_nodes)
            if (u, v) not in reference
        )
        old_edge = min(reference)

        delta.insert_edge(*new_edge)
        delta.delete_edge(*old_edge)
        assert delta.compact().num_edges == base.num_edges
        assert delta.has_edge(*new_edge) and not delta.has_edge(*old_edge)
        expected = (reference | {new_edge}) - {old_edge}
        assert edge_set(delta) == expected
        # Base graph untouched.
        assert edge_set(base) == reference

    def test_untouched_row_is_base_view(self, base):
        delta = DeltaGraph(base)
        delta.delete_edge(0, int(base.neighbors(0)[0]))
        untouched = next(
            node
            for node in range(base.num_nodes)
            if node not in set(delta.touched_nodes().tolist())
        )
        assert delta.neighbors(untouched) is not None
        assert np.shares_memory(delta.neighbors(untouched), base.indices)

    def test_duplicate_insert_and_missing_delete_raise(self, base):
        delta = DeltaGraph(base)
        u, v = min(edge_set(base))
        with pytest.raises(ValueError, match="already exists"):
            delta.insert_edge(u, v)
        delta.delete_edge(u, v)
        with pytest.raises(ValueError, match="does not exist"):
            delta.delete_edge(u, v)
        with pytest.raises(ValueError, match="self-loop"):
            delta.insert_edge(3, 3)

    def test_cancelling_ops_restore_topology(self, base):
        delta = DeltaGraph(base)
        u, v = min(edge_set(base))
        delta.delete_edge(u, v)
        delta.insert_edge(u, v)  # cancels the delete log entry
        assert delta.compact().fingerprint() == base.fingerprint()
        # Touched set stays conservative: the endpoints are still reported.
        assert {u, v} <= set(delta.touched_nodes().tolist())

    def test_apply_is_sequential(self, base):
        delta = DeltaGraph(base)
        u, v = min(edge_set(base))
        delta.apply([("delete", u, v), ("insert", u, v), ("delete", u, v)])
        assert not delta.has_edge(u, v)


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------
class TestCompact:
    def test_empty_overlay_reuses_buffers_as_new_object(self, base):
        compacted = DeltaGraph(base).compact()
        assert compacted is not base
        assert compacted.fingerprint() == base.fingerprint()
        assert np.shares_memory(compacted.indptr, base.indptr)
        assert np.shares_memory(compacted.indices, base.indices)

    def test_compact_matches_from_scratch_rebuild(self, base):
        delta = DeltaGraph(base)
        reference = edge_set(base)
        removed = sorted(reference)[:3]
        for u, v in removed:
            delta.delete_edge(u, v)
            reference.discard((u, v))
        added = [(0, 59), (5, 58)]
        for u, v in added:
            if (u, v) not in reference and not base.has_edge(u, v):
                delta.insert_edge(u, v)
                reference.add((u, v))
        compacted = delta.compact()
        rebuilt = CSRGraph.from_edges(base.num_nodes, sorted(reference))
        assert np.array_equal(compacted.indptr, rebuilt.indptr)
        assert np.array_equal(compacted.indices, rebuilt.indices)
        assert compacted.fingerprint() == rebuilt.fingerprint()
        assert compacted.name == base.name

    def test_compact_can_isolate_a_node(self):
        graph = path_graph(4)
        delta = DeltaGraph(graph)
        delta.delete_edge(0, 1)
        compacted = delta.compact()
        assert compacted.degree(0) == 0
        assert compacted.num_edges == 2


# ----------------------------------------------------------------------
# Hypothesis: random update streams
# ----------------------------------------------------------------------
@st.composite
def update_streams(draw):
    """A small random base graph plus a random valid op stream over it."""
    num_nodes = draw(st.integers(min_value=4, max_value=24))
    backbone = [
        (node, draw(st.integers(min_value=0, max_value=node - 1)))
        for node in range(1, num_nodes)
    ]
    graph = CSRGraph.from_edges(num_nodes, backbone, name="hyp")
    current = edge_set(graph)
    num_ops = draw(st.integers(min_value=1, max_value=30))
    ops = []
    for _ in range(num_ops):
        existing = sorted(current)
        missing = [
            (u, v)
            for u in range(num_nodes)
            for v in range(u + 1, num_nodes)
            if (u, v) not in current
        ]
        delete = draw(st.booleans())
        if delete and existing:
            u, v = existing[draw(st.integers(0, len(existing) - 1))]
            ops.append(("delete", u, v))
            current.discard((u, v))
        elif missing:
            u, v = missing[draw(st.integers(0, len(missing) - 1))]
            ops.append(("insert", u, v))
            current.add((u, v))
    return graph, ops, current


class TestRandomUpdateStreams:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(update_streams())
    def test_overlay_tracks_reference_edge_set(self, stream):
        graph, ops, final_edges = stream
        delta = DeltaGraph(graph)
        delta.apply(ops)
        assert edge_set(delta) == final_edges
        rebuilt = CSRGraph.from_edges(graph.num_nodes, sorted(final_edges))
        compacted = delta.compact()
        assert np.array_equal(compacted.indptr, rebuilt.indptr)
        assert np.array_equal(compacted.indices, rebuilt.indices)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(update_streams(), st.integers(min_value=0, max_value=3))
    def test_distance_bound_is_conservative(self, stream, radius):
        """Brute force: every node whose depth-d ball sees a touched endpoint
        must have bound <= d."""
        graph, ops, final_edges = stream
        delta = DeltaGraph(graph)
        delta.apply(ops)
        new_graph = delta.compact()
        touched = delta.touched_nodes()
        if touched.size == 0:
            return
        bound = update_distance_bound(graph, new_graph, touched, radius)
        for host in (graph, new_graph):
            exact = min_hop_distances(host, touched, radius)
            assert np.all(bound <= exact)


# ----------------------------------------------------------------------
# Reach bounds
# ----------------------------------------------------------------------
class TestReachBounds:
    def test_min_hop_distances_on_a_path(self):
        graph = path_graph(6)
        distances = min_hop_distances(graph, [0], radius=3)
        assert distances.tolist() == [0, 1, 2, 3, 4, 4]  # 4 == radius + 1

    def test_multi_source_takes_nearest(self):
        graph = path_graph(7)
        distances = min_hop_distances(graph, [0, 6], radius=2)
        assert distances.tolist() == [0, 1, 2, 3, 2, 1, 0]

    def test_empty_sources_and_bad_sources(self):
        graph = path_graph(4)
        assert min_hop_distances(graph, [], radius=2).tolist() == [3, 3, 3, 3]
        with pytest.raises(ValueError):
            min_hop_distances(graph, [4], radius=2)
        with pytest.raises(ValueError):
            min_hop_distances(graph, [0], radius=-1)

    def test_bound_is_elementwise_min_over_both_topologies(self):
        # Entries computed on the old graph are judged by old-graph reach;
        # entries reused on the new graph by new-graph reach — the bound
        # must be the pointwise minimum so it covers both.
        graph = path_graph(8)
        delta = DeltaGraph(graph)
        delta.delete_edge(2, 3)
        delta.insert_edge(0, 7)
        new_graph = delta.compact()
        touched = delta.touched_nodes()
        assert set(touched.tolist()) == {0, 2, 3, 7}
        bound = update_distance_bound(graph, new_graph, touched, radius=4)
        old_exact = min_hop_distances(graph, touched, 4)
        new_exact = min_hop_distances(new_graph, touched, 4)
        assert np.array_equal(bound, np.minimum(old_exact, new_exact))

    def test_bound_diverges_from_single_topology_reach(self):
        # A lollipop: 0-1-2 chain plus a triangle 2-3-4, and an isolated
        # pair 5-6.  Deleting (1, 2) and inserting (1, 5) makes node 6
        # reachable only on the new topology — the min bound must see it.
        graph = CSRGraph.from_edges(
            7, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4), (5, 6)], name="lolly"
        )
        delta = DeltaGraph(graph)
        delta.delete_edge(1, 2)
        delta.insert_edge(1, 5)
        new_graph = delta.compact()
        touched = delta.touched_nodes()
        assert set(touched.tolist()) == {1, 2, 5}
        bound = update_distance_bound(graph, new_graph, touched, radius=3)
        old_exact = min_hop_distances(graph, touched, 3)
        new_exact = min_hop_distances(new_graph, touched, 3)
        # Node 6 sits by the insert endpoint: close on both.  Node 0 keeps
        # its old-graph reach; nothing strands it.  But the bound must not
        # simply be either single-topology map.
        assert np.array_equal(bound, np.minimum(old_exact, new_exact))
        assert bound[6] == 1


# ----------------------------------------------------------------------
# Engine-level differentials
# ----------------------------------------------------------------------
CONFIG = MeLoPPRConfig(
    stage_lengths=(2, 2),
    selector=RatioSelector(0.02),
    track_memory=False,
)


def churn_ops(current: set, num_nodes: int, rng: np.random.Generator, count=4):
    """A random valid op batch against (and mutating) ``current``."""
    ops = []
    for _ in range(count):
        if rng.random() < 0.5 and current:
            u, v = sorted(current)[rng.integers(len(current))]
            ops.append(("delete", u, v))
            current.discard((u, v))
        else:
            while True:
                u, v = int(rng.integers(num_nodes)), int(rng.integers(num_nodes))
                edge = (min(u, v), max(u, v))
                if u != v and edge not in current:
                    break
            ops.append(("insert", edge[0], edge[1]))
            current.add(edge)
    return ops


def assert_matches_rebuild(engine, queries, current_edges, num_nodes):
    rebuilt = CSRGraph.from_edges(num_nodes, sorted(current_edges))
    assert engine.solver.graph.fingerprint() == rebuilt.fingerprint()
    expected = serial_answers(rebuilt, CONFIG, queries)
    assert_same_answers(
        engine.solve_batch(queries), expected, extraction_cache=engine.cache is not None
    )


class TestEngineApplyUpdate:
    QUERIES = [PPRQuery(seed=s, k=15, length=4) for s in (1, 2, 3, 1, 2)]

    def run_churn(self, make_engine):
        graph = barabasi_albert_graph(120, 2, rng=3)
        current = edge_set(graph)
        rng = np.random.default_rng(11)
        with make_engine(graph) as engine:
            engine.solve_batch(self.QUERIES)
            for _ in range(3):
                ops = churn_ops(current, graph.num_nodes, rng)
                outcome = engine.apply_update(ops)
                assert outcome["ops"] == len(ops)
                assert outcome["new_fingerprint"] != outcome["old_fingerprint"]
                assert_matches_rebuild(
                    engine, self.QUERIES, current, graph.num_nodes
                )
            return engine

    def test_serial_with_both_caches(self):
        self.run_churn(
            lambda g: QueryEngine(
                MeLoPPRSolver(g, CONFIG),
                cache=SubgraphCache(1 << 20),
                result_cache=ScoreTableCache(1 << 20),
            )
        )

    def test_thread_pool(self):
        self.run_churn(
            lambda g: QueryEngine(
                MeLoPPRSolver(g, CONFIG),
                backend=ThreadPoolBackend(max_workers=2),
                cache=SubgraphCache(1 << 20),
                result_cache=ScoreTableCache(1 << 20),
            )
        )

    def test_thread_pool_result_cache_only(self):
        self.run_churn(
            lambda g: QueryEngine(
                MeLoPPRSolver(g, CONFIG),
                backend=ThreadPoolBackend(max_workers=2),
                result_cache=ScoreTableCache(1 << 20),
            )
        )

    def test_invalid_batch_changes_nothing(self):
        graph = barabasi_albert_graph(50, 2, rng=0)
        engine = QueryEngine(
            MeLoPPRSolver(graph, CONFIG), cache=SubgraphCache(1 << 20)
        )
        engine.solve_batch(self.QUERIES)
        fingerprint = engine.solver.graph.fingerprint()
        hits_before = engine.cache.stats.hits
        u, v = min(edge_set(graph))
        with pytest.raises(ValueError):
            engine.apply_update([("insert", u, v)])  # already exists
        with pytest.raises(ValueError):
            engine.apply_update([])
        assert engine.solver.graph.fingerprint() == fingerprint
        assert engine.solver.graph is graph
        assert engine.cache.stats.hits == hits_before

    def test_surgical_invalidation_keeps_far_entries(self):
        # Two far-apart communities: updating one must keep the other's
        # cached extractions and score tables (and rekey the survivors).
        left = [(i, i + 1) for i in range(0, 9)]
        right = [(i, i + 1) for i in range(20, 29)]
        graph = CSRGraph.from_edges(40, left + right + [(9, 20)], name="two")
        engine = QueryEngine(
            MeLoPPRSolver(graph, CONFIG),
            cache=SubgraphCache(1 << 20),
            result_cache=ScoreTableCache(1 << 20),
        )
        queries = [PPRQuery(seed=25, k=10, length=4)]
        engine.solve_batch(queries)
        outcome = engine.apply_update([("insert", 0, 2)])
        # Seed 25 is far from nodes {0, 2}: every cached artefact survives,
        # the finished answer included.
        assert outcome["invalidated"]["subgraph_entries_dropped"] == 0
        assert outcome["invalidated"]["result_entries_dropped"] == 0
        assert outcome["invalidated"]["result_entries_rekeyed"] == 1
        assert outcome["invalidated"]["result_answers_kept"] == 1
        assert outcome["invalidated"]["result_answers_stripped"] == 0
        (replayed,) = engine.solve_batch(queries)
        assert replayed.metadata["serving"]["result_cache"] == "answer"
        assert engine.stats().result_cache.hits == 1
        # A different k keys a different entry: it computes, on the surviving
        # extractions.
        before_hits = engine.cache.stats.hits
        engine.solve_batch([PPRQuery(seed=25, k=5, length=4)])
        assert engine.cache.stats.hits > before_hits
        assert_matches_rebuild(
            engine, queries, edge_set(graph) | {(0, 2)}, graph.num_nodes
        )

    def test_writer_barrier_under_concurrent_batches(self):
        graph = barabasi_albert_graph(150, 2, rng=5)
        current = edge_set(graph)
        rng = np.random.default_rng(13)
        op_batches = [churn_ops(current, graph.num_nodes, rng) for _ in range(4)]
        engine = QueryEngine(
            MeLoPPRSolver(graph, CONFIG),
            backend=ThreadPoolBackend(max_workers=2),
            cache=SubgraphCache(1 << 20),
            result_cache=ScoreTableCache(1 << 20),
        )
        queries = [PPRQuery(seed=s, k=10, length=4) for s in range(8)]
        errors = []
        stop = threading.Event()

        def hammer():
            try:
                while not stop.is_set():
                    engine.solve_batch(queries)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for ops in op_batches:
                engine.apply_update(ops)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors
        assert_matches_rebuild(engine, queries, current, graph.num_nodes)
        engine.close()


# ----------------------------------------------------------------------
# The per-graph diffusion structure (structure_for) across compaction
# ----------------------------------------------------------------------
class TestCompactedStructure:
    def test_a_compacted_graph_starts_with_no_structure(self, base):
        built = structure_for(base)
        compacted = DeltaGraph(base).compact()  # reuses the base buffers
        assert np.shares_memory(compacted.indices, base.indices)
        assert compacted._structure is None
        assert structure_for(compacted) is not built
        assert structure_for(base) is built

    def test_repeated_diffusions_build_one_structure(self, base, monkeypatch):
        built = []

        class Counting(kernels.GraphStructure):
            def __init__(self, indptr, indices):
                built.append(self)
                super().__init__(indptr, indices)

        monkeypatch.setattr(kernels, "GraphStructure", Counting)
        graph = CSRGraph(base.indptr, base.indices)
        for kernel in (None, *kernels.KERNELS):
            graph_diffusion(graph, seed_vector(graph.num_nodes, 0), 3, kernel=kernel)
        assert len(built) == 1 and structure_for(graph) is built[0]

    def test_changed_topology_gets_its_own_structure(self, base):
        u, v = min(edge_set(base))
        delta = DeltaGraph(base)
        delta.delete_edge(u, v)
        compacted = delta.compact()
        assert compacted.fingerprint() != base.fingerprint()
        assert structure_for(compacted) is not structure_for(base)
        # Differential: diffusion state derived from the compacted graph
        # matches a from-scratch rebuild, not the stale base topology.
        rebuilt = CSRGraph.from_edges(
            base.num_nodes, sorted(edge_set(base) - {(u, v)})
        )
        assert np.array_equal(structure_for(compacted).row_ids, structure_for(rebuilt).row_ids)
        assert np.array_equal(structure_for(compacted).indices, structure_for(rebuilt).indices)
        query = PPRQuery(seed=u, k=10, length=4)
        compact_scores = dict(
            MeLoPPRSolver(compacted, CONFIG).solve(query).scores.items()
        )
        rebuilt_scores = dict(
            MeLoPPRSolver(rebuilt, CONFIG).solve(query).scores.items()
        )
        assert compact_scores == rebuilt_scores
