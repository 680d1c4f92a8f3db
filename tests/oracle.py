"""Every reference the suite compares against, stated once.

Each serving mode of this reproduction is trusted because it returns, bit for
bit, what the paper's serial MeLoPPR solver returns (the stage and linear
decompositions of Sec. IV, one ball at a time).  This module is the one home
of that reference and of every other oracle a test holds the program to:

* **The serial answer.** :func:`serial_answers` is ``MeLoPPRSolver.solve``,
  which runs the per-ball spec and never the wave executor it judges;
  :func:`answer_bits` is the one comparator (score ids and values as exact
  bits, the ranking, the peak and every metadata key a mode may not change)
  and :func:`assert_same_answer` / :func:`assert_same_answers` apply it;
  :func:`wire_top` is the
  ``"top"`` list a front door sends for an answer.
* **The rebuild from scratch.** :func:`rebuilt` applies edge ops to a
  graph's edge set and builds a fresh CSR: what every update must equal.
* **The graph families.** :data:`FAMILIES` (hubs, long diameters,
  communities, triangles, isolated nodes) and :func:`role_seed`.
* **Closed forms and plain walks.** :func:`dense_transition` /
  :func:`sparse_transition` (``W`` from the edge list or from
  ``CSRGraph.to_scipy()``) and :func:`dense_diffusion` (Eq. 1 term by term
  over either), :func:`fixed_point_step` (the integer datapath's propagation
  as a dense int64 product), :func:`reference_bfs`
  / :func:`reference_induced` (row-at-a-time extraction), :class:`ScanTable`
  (the bounded score table with an O(capacity) victim scan).
* **The textbook solvers and identities.** :class:`PowerIterationSolver`
  (whole-graph diffusion: the precision ground truth),
  :class:`MonteCarloSolver` (alpha-decay random walks),
  :class:`NetworkXPPRSolver` (``networkx.pagerank`` on the ego ball),
  :func:`two_stage_diffusion` / :func:`multi_stage_diffusion` (Eq. 6 on one
  graph) and :func:`split_residual` / :func:`linear_decomposed_diffusion`
  (Eq. 7 on one graph).

No serving code imports this module, and nothing here calls the engine.
The closed forms, the textbook solvers and the identities apply ``W`` with
their own matrices, never a ``repro.diffusion`` kernel, so the kernels are
held to an independent implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.diffusion.sparse_vector import SparseScoreVector
from repro.graph.bfs import extract_ego_subgraph
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    barabasi_albert_graph,
    citation_graph,
    community_graph,
    erdos_renyi_graph,
    stochastic_block_model,
    watts_strogatz_graph,
)
from repro.memory.tracker import MemoryTracker
from repro.meloppr.aggregation import ScoreTableSnapshot
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.solver import MeLoPPRSolver
from repro.meloppr.stage import StagePlan
from repro.ppr.base import PPRQuery, PPRResult, PPRSolver
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.timing import TimingBreakdown
from repro.utils.validation import check_positive_int


# ----------------------------------------------------------------------
# The serial answer and the one comparator
# ----------------------------------------------------------------------
def serial_answers(
    graph: CSRGraph, config: Optional[MeLoPPRConfig], queries: Sequence[PPRQuery]
) -> List[PPRResult]:
    """``MeLoPPRSolver.solve`` on ``graph`` for each query, one at a time."""
    solver = MeLoPPRSolver(graph, config)
    return [solver.solve(query) for query in queries]


#: Metadata only a serving mode adds.
SERVING_KEYS = frozenset({"serving"})
#: Metadata counting an extraction cache's hits and misses: the serial
#: solver has no such cache, so an engine with one reports other counts.
EXTRACTION_CACHE_KEYS = frozenset({"cache_hits", "cache_misses"})


def answer_bits(result: PPRResult, counts: bool = True, extraction_cache: bool = False) -> tuple:
    """What a served answer must share with the serial one, order included.

    The query, the score vector's ids and values as raw bytes (so ``-0.0``
    and ``0.0`` differ) and the top-k ranking; with ``counts`` also the
    reported peak and every metadata key outside :data:`SERVING_KEYS`, and
    outside :data:`EXTRACTION_CACHE_KEYS` when the answer was served through
    an ``extraction_cache``.  A solver measuring its peak with tracemalloc
    reports a different figure on every run, so compare those with
    ``counts=False``.
    """
    bits = (
        result.query,
        result.scores.nodes().tobytes(),
        result.scores.values().tobytes(),
        result.top_k(),
    )
    if not counts:
        return bits
    skipped = SERVING_KEYS | EXTRACTION_CACHE_KEYS if extraction_cache else SERVING_KEYS
    metadata = {key: value for key, value in result.metadata.items() if key not in skipped}
    return bits + (result.peak_memory_bytes, metadata)


def assert_same_answer(
    result: PPRResult, expected: PPRResult, counts: bool = True, extraction_cache: bool = False
) -> None:
    """``result`` equals ``expected`` under :func:`answer_bits`."""
    assert answer_bits(result, counts, extraction_cache) == answer_bits(
        expected, counts, extraction_cache
    )


def assert_same_answers(
    results: Sequence[PPRResult],
    expected: Sequence[PPRResult],
    counts: bool = True,
    extraction_cache: bool = False,
) -> None:
    """Each result equals its expected answer under :func:`answer_bits`."""
    assert len(results) == len(expected)
    for result, want in zip(results, expected):
        assert_same_answer(result, want, counts, extraction_cache)


def wire_top(result: PPRResult) -> List[List[float]]:
    """The ``"top"`` list either front door sends for ``result``."""
    return [[int(node), float(score)] for node, score in result.top_k()]


def rebuilt(graph: CSRGraph, ops: Sequence[Tuple[str, int, int]]) -> CSRGraph:
    """``graph`` with ``("insert"|"delete", u, v)`` ops applied, rebuilt from
    scratch from its edge set."""
    edges = set(graph.iter_edges())
    for kind, u, v in ops:
        (edges.add if kind == "insert" else edges.discard)((min(u, v), max(u, v)))
    return CSRGraph.from_edges(graph.num_nodes, sorted(edges), name=graph.name)


# ----------------------------------------------------------------------
# Graph families
# ----------------------------------------------------------------------
def _star(num_leaves: int) -> CSRGraph:
    edges = [(0, leaf) for leaf in range(1, num_leaves + 1)]
    return CSRGraph.from_edges(num_leaves + 1, edges, name="star")


def _path(num_nodes: int) -> CSRGraph:
    edges = [(i, i + 1) for i in range(num_nodes - 1)]
    return CSRGraph.from_edges(num_nodes, edges, name="path")


def _disconnected() -> CSRGraph:
    """A scale-free component, a ring, then four isolated nodes."""
    first = barabasi_albert_graph(60, 2, rng=51)
    edges = list(first.iter_edges()) + [(60 + i, 60 + (i + 1) % 20) for i in range(20)]
    return CSRGraph.from_edges(84, edges, name="disconnected")


#: Graph shapes that stress extraction and diffusion differently, by name.
FAMILIES: Dict[str, Callable[[], CSRGraph]] = {
    "scale-free": lambda: barabasi_albert_graph(120, 2, rng=41, name="scale-free"),
    "random": lambda: erdos_renyi_graph(100, 0.04, rng=42, name="random"),
    "lattice": lambda: watts_strogatz_graph(80, 4, 0.0, rng=0, name="lattice"),
    "small-world": lambda: watts_strogatz_graph(100, 4, 0.2, rng=43, name="small-world"),
    "communities": lambda: stochastic_block_model(
        [35, 35, 30], 0.15, 0.01, rng=44, name="communities"
    ),
    "clustered": lambda: community_graph(120, 4.0, rng=45, name="clustered"),
    "citation": lambda: citation_graph(150, 3.0, rng=46, name="citation"),
    "star": lambda: _star(40),
    "path": lambda: _path(40),
    "disconnected": _disconnected,
}

ROLES = ("hub", "median", "least")


def role_seed(graph: CSRGraph, role: str) -> int:
    """The highest-degree, a median-degree or the least-degree node (lowest
    id on ties) — on some families an isolated node."""
    order = np.argsort(-graph.degrees(), kind="stable")
    position = {"hub": 0, "median": order.size // 2, "least": order.size - 1}
    return int(order[position[role]])


# ----------------------------------------------------------------------
# Dense closed forms and row-at-a-time walks
# ----------------------------------------------------------------------
def dense_transition(graph: CSRGraph) -> np.ndarray:
    """Dense ``W``: column ``s`` spreads node ``s``'s score evenly over its
    neighbours; an isolated node's column is zero."""
    degrees = graph.degrees().astype(np.float64)
    matrix = np.zeros((graph.num_nodes, graph.num_nodes))
    for u, v in graph.iter_edges():
        matrix[v, u] = 1.0 / degrees[u]
        matrix[u, v] = 1.0 / degrees[v]
    return matrix


def sparse_transition(graph: CSRGraph) -> sparse.csr_matrix:
    """``W = A D^-1`` as scipy CSR, from the graph's adjacency matrix."""
    degrees = graph.degrees().astype(np.float64)
    inverse = np.divide(1.0, degrees, out=np.zeros_like(degrees), where=degrees > 0)
    return (graph.to_scipy() @ sparse.diags(inverse)).tocsr()


def dense_diffusion(transition, initial: np.ndarray, length: int, alpha: float):
    """Eq. 1 term by term: ``(1-a) sum_{k<l} a^k W^k S0 + a^l W^l S0`` and
    ``W^l S0``, for ``W`` a dense or a scipy matrix."""
    power = np.array(initial, dtype=np.float64)
    accumulated = np.zeros_like(power)
    for step in range(length):
        accumulated += (1.0 - alpha) * alpha**step * power
        power = transition @ power
    return accumulated + alpha**length * power, power


def fixed_point_step(graph: CSRGraph, scores: np.ndarray) -> np.ndarray:
    """One propagation of the integer datapath: ``A @ (scores // degree)``
    with a dense int64 adjacency matrix (an isolated node pushes nothing)."""
    adjacency = np.zeros((graph.num_nodes, graph.num_nodes), dtype=np.int64)
    for u, v in graph.iter_edges():
        adjacency[u, v] = adjacency[v, u] = 1
    degrees = graph.degrees().astype(np.int64)
    return adjacency @ np.where(degrees > 0, scores // np.maximum(degrees, 1), 0)


def reference_bfs(graph: CSRGraph, source: int, depth: int):
    """Level-by-level BFS; each level's new nodes in ascending id order.
    Returns ``(nodes, levels, edges scanned)``."""
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


class ScanTable:
    """The bounded score table as first written: a dict, one update at a
    time, evicting by scanning every entry for the least ``(score, -node)``."""

    def __init__(self, capacity: Optional[int]) -> None:
        self.capacity = capacity
        self.scores: Dict[int, float] = {}
        self.updates = 0
        self.victims: List[int] = []

    def add(self, node: int, score: float) -> None:
        self.updates += 1
        if node in self.scores:
            self.scores[node] += score
            return
        self.scores[node] = 0.0 + score
        if self.capacity is not None and len(self.scores) > self.capacity:
            victim = min(self.scores.items(), key=lambda item: (item[1], -item[0]))[0]
            del self.scores[victim]
            self.victims.append(victim)

    def add_many(self, nodes, scores) -> None:
        for node, score in zip(nodes, scores):
            self.add(int(node), float(score))

    def snapshot(self) -> ScoreTableSnapshot:
        return ScoreTableSnapshot(
            capacity=self.capacity,
            ids=list(self.scores),
            scores=list(self.scores.values()),
            total_updates=self.updates,
            total_evictions=len(self.victims),
        )

    def top_k(self, k: int) -> List[Tuple[int, float]]:
        return sorted(self.scores.items(), key=lambda item: (-item[1], item[0]))[: max(k, 0)]


# ----------------------------------------------------------------------
# Textbook solvers
# ----------------------------------------------------------------------
class PowerIterationSolver(PPRSolver):
    """Whole-graph power iteration ``S <- (1 - a) e_s + a W S``.

    With ``max_iterations=None`` it runs the query's ``length`` steps, which
    makes it an exact evaluator of the finite-length diffusion ``GD(L)(S0)``:
    the paper's ground truth ``T(s, k)`` for precision.  Its working set is
    ``O(|V|)`` however local the query is.  ``tolerance > 0`` stops early
    once an iteration moves the scores by less than that in L1.
    """

    name = "power-iteration"

    def __init__(
        self,
        graph: CSRGraph,
        max_iterations: Optional[int] = None,
        tolerance: float = 0.0,
        track_memory: bool = False,
    ) -> None:
        super().__init__(graph)
        if max_iterations is not None and max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if tolerance < 0:
            raise ValueError("tolerance must be >= 0")
        self._max_iterations = max_iterations
        self._tolerance = float(tolerance)
        self._track_memory = bool(track_memory)
        self._transition = sparse_transition(graph)

    def solve(self, query: PPRQuery) -> PPRResult:
        timing = TimingBreakdown()
        tracker = MemoryTracker(enabled=self._track_memory)
        iterations = query.length if self._max_iterations is None else self._max_iterations
        with tracker:
            with timing.measure("diffusion"):
                initial = np.zeros(self._graph.num_nodes, dtype=np.float64)
                initial[query.seed] = 1.0
                scores = initial.copy()
                performed = 0
                for _ in range(iterations):
                    updated = (1.0 - query.alpha) * initial + query.alpha * (
                        self._transition @ scores
                    )
                    performed += 1
                    change = float(np.abs(updated - scores).sum())
                    scores = updated
                    if self._tolerance > 0 and change < self._tolerance:
                        break
            with timing.measure("aggregation"):
                sparse_scores = SparseScoreVector(np.arange(scores.size), scores)
        return PPRResult(
            query=query,
            scores=sparse_scores,
            timing=timing,
            peak_memory_bytes=tracker.peak_bytes,
            metadata={"iterations": performed},
        )


class MonteCarloSolver(PPRSolver):
    """Monte Carlo alpha-decay random walks (Sec. III's "low space, high
    accesses" extreme): ``pi(v)`` is the share of ``num_walks`` walks from
    the seed that end at ``v``.  Every walk step reads one neighbourhood,
    counted as ``neighborhood_accesses``."""

    name = "monte-carlo"

    def __init__(
        self,
        graph: CSRGraph,
        num_walks: int = 10_000,
        rng: RngLike = None,
        track_memory: bool = False,
    ) -> None:
        super().__init__(graph)
        self._num_walks = check_positive_int(num_walks, "num_walks")
        self._rng = ensure_rng(rng)
        self._track_memory = bool(track_memory)

    def solve(self, query: PPRQuery) -> PPRResult:
        timing = TimingBreakdown()
        tracker = MemoryTracker(enabled=self._track_memory)
        terminations: Dict[int, float] = {}
        memory_accesses = 0
        with tracker:
            with timing.measure("random_walks"):
                for _ in range(self._num_walks):
                    node = query.seed
                    for _ in range(query.length):
                        # Terminate with probability (1 - alpha).
                        if self._rng.random() >= query.alpha:
                            break
                        neighbors = self._graph.neighbors(node)
                        memory_accesses += 1
                        if neighbors.size == 0:
                            break
                        node = int(neighbors[int(self._rng.integers(0, neighbors.size))])
                    terminations[node] = terminations.get(node, 0.0) + 1.0
            with timing.measure("aggregation"):
                shares = np.fromiter(terminations.values(), dtype=np.float64)
                scores = SparseScoreVector(list(terminations), shares * (1.0 / self._num_walks))
        return PPRResult(
            query=query,
            scores=scores,
            timing=timing,
            peak_memory_bytes=tracker.peak_bytes,
            metadata={"num_walks": self._num_walks, "neighborhood_accesses": memory_accesses},
        )


class NetworkXPPRSolver(PPRSolver):
    """``networkx.pagerank`` personalised on the seed — the paper's software
    baseline (Sec. VI).  With ``local`` (the default) it runs on the
    depth-``L`` ego sub-graph, answering the same local query as the other
    solvers; otherwise on the whole graph.  ``max_iterations=None`` uses the
    query length."""

    name = "networkx-ppr"

    def __init__(
        self,
        graph: CSRGraph,
        local: bool = True,
        max_iterations: Optional[int] = None,
        track_memory: bool = False,
    ) -> None:
        super().__init__(graph)
        self._local = bool(local)
        self._max_iterations = max_iterations
        self._track_memory = bool(track_memory)

    def solve(self, query: PPRQuery) -> PPRResult:
        import networkx as nx

        timing = TimingBreakdown()
        tracker = MemoryTracker(enabled=self._track_memory)
        iterations = max(query.length, 1) if self._max_iterations is None else self._max_iterations
        with tracker:
            with timing.measure("bfs"):
                if self._local:
                    subgraph, _ = extract_ego_subgraph(self._graph, query.seed, query.length)
                    nx_graph = subgraph.graph.to_networkx()
                    personalization = {subgraph.to_local(query.seed): 1.0}
                    to_global = subgraph.to_global
                else:
                    nx_graph = self._graph.to_networkx()
                    personalization = {query.seed: 1.0}
                    to_global = int
            with timing.measure("diffusion"):
                try:
                    ranks = nx.pagerank(
                        nx_graph,
                        alpha=query.alpha,
                        personalization=personalization,
                        max_iter=iterations,
                        tol=1e-12,
                    )
                except nx.PowerIterationFailedConvergence:
                    # A small fixed budget often "fails" NetworkX's criterion;
                    # a larger budget with a loose tolerance always returns.
                    ranks = nx.pagerank(
                        nx_graph,
                        alpha=query.alpha,
                        personalization=personalization,
                        max_iter=max(100, iterations),
                        tol=1e-8,
                    )
            with timing.measure("aggregation"):
                summed: Dict[int, float] = {}
                for node, value in ranks.items():
                    node = to_global(int(node))
                    summed[node] = summed.get(node, 0.0) + float(value)
                scores = SparseScoreVector(list(summed), list(summed.values()))
        return PPRResult(
            query=query,
            scores=scores,
            timing=timing,
            peak_memory_bytes=tracker.peak_bytes,
            metadata={"local": self._local, "iterations": iterations},
        )


# ----------------------------------------------------------------------
# The decompositions on one graph (Eq. 6 and Eq. 7)
# ----------------------------------------------------------------------
def two_stage_diffusion(
    graph: CSRGraph, initial: np.ndarray, l1: int, l2: int, alpha: float
) -> np.ndarray:
    """The right-hand side of Eq. 6 with both stages on one graph:
    ``GD(l1)(S0) + a^l1 GD(l2)(W^l1 S0) - a^l1 W^l1 S0``, which equals
    ``GD(l1 + l2)(S0)`` up to rounding."""
    transition = sparse_transition(graph)
    accumulated, residual = dense_diffusion(transition, initial, l1, alpha)
    weight = alpha**l1
    stage_two, _ = dense_diffusion(transition, residual, l2, alpha)
    return accumulated + weight * stage_two - weight * residual


def multi_stage_diffusion(
    graph: CSRGraph,
    initial: np.ndarray,
    stage_lengths: Sequence[int],
    alpha: float,
) -> np.ndarray:
    """Eq. 6 applied stage after stage on one graph: each stage's residual
    seeds the next, its accumulated scores enter with weight ``a^(previous
    lengths)`` and each hand-off subtracts the weighted residual.  Equals
    ``GD(sum(lengths))(S0)``."""
    transition = sparse_transition(graph)
    plan = StagePlan.create(stage_lengths, alpha)
    total = np.zeros_like(np.asarray(initial, dtype=np.float64))
    current_seed = np.asarray(initial, dtype=np.float64)
    for index, length in enumerate(plan.stage_lengths):
        accumulated, residual = dense_diffusion(transition, current_seed, length, alpha)
        total += plan.weights[index] * accumulated
        if index + 1 < plan.num_stages:
            total -= plan.residual_correction(index) * residual
            current_seed = residual
    return total


@dataclass(frozen=True)
class ResidualComponent:
    """One term of the linear decomposition: node ``node`` with mass ``value``."""

    node: int
    value: float


def split_residual(
    nodes: np.ndarray, residuals: np.ndarray, tolerance: float = 0.0
) -> List[ResidualComponent]:
    """A residual vector (parallel arrays) as per-node components, entries
    with ``|value| <= tolerance`` dropped, in descending residual order (the
    order next-stage nodes are considered in)."""
    nodes = np.asarray(nodes, dtype=np.int64)
    residuals = np.asarray(residuals, dtype=np.float64)
    if nodes.shape != residuals.shape:
        raise ValueError("nodes and residuals must have the same shape")
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    components = [
        ResidualComponent(int(node), float(value))
        for node, value in zip(nodes, residuals)
        if abs(value) > tolerance
    ]
    components.sort(key=lambda component: (-component.value, component.node))
    return components


def linear_decomposed_diffusion(
    graph: CSRGraph,
    nodes: np.ndarray,
    residuals: np.ndarray,
    length: int,
    alpha: float,
) -> np.ndarray:
    """The right-hand side of Eq. 7 on one graph: one diffusion per non-zero
    residual component, summed.  In the solver each component diffuses on
    its own small sub-graph; here all share the graph, so the sum equals the
    diffusion of the whole residual."""
    transition = sparse_transition(graph)
    result = np.zeros(graph.num_nodes, dtype=np.float64)
    for component in split_residual(nodes, residuals):
        seed = np.zeros(graph.num_nodes, dtype=np.float64)
        seed[component.node] = component.value
        result += dense_diffusion(transition, seed, length, alpha)[0]
    return result
