"""Common interfaces for PPR solvers.

Every solver in the library — the single-stage local PPR baseline, the
full-graph power iteration, the Monte Carlo walker, the NetworkX wrapper and
MeLoPPR itself — implements :class:`PPRSolver` and returns a
:class:`PPRResult`, so experiments can swap solvers freely.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.diffusion.sparse_vector import SparseScoreVector
from repro.graph.csr import CSRGraph
from repro.utils.timing import TimingBreakdown

__all__ = ["PPRQuery", "PPRResult", "PPRSolver"]


@dataclass(frozen=True)
class PPRQuery:
    """One personalised-PageRank query.

    Attributes
    ----------
    seed:
        The source node ``s``.
    k:
        Number of top-ranked nodes requested (the paper uses ``k = 200``).
    alpha:
        Decay factor of the alpha-decay random walk.
    length:
        Maximum walk / diffusion length ``L`` (the paper uses ``L = 6``).
    """

    seed: int
    k: int = 200
    alpha: float = 0.85
    length: int = 6

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError(f"k must be > 0, got {self.k}")
        if self.length < 0:
            raise ValueError(f"length must be >= 0, got {self.length}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")


@dataclass
class PPRResult:
    """Result of one PPR query.

    Attributes
    ----------
    query:
        The query that produced this result.
    scores:
        Sparse PPR score vector over global node ids.
    timing:
        Wall-clock timing breakdown (``bfs``, ``diffusion``, ``aggregation``,
        ...).  The hardware co-simulation additionally attaches modelled
        FPGA time under dedicated bucket names.
    peak_memory_bytes:
        Peak working-set bytes measured (or modelled) while answering the
        query; the quantity compared in Table II.
    metadata:
        Free-form solver-specific details (sub-graph sizes, number of
        next-stage nodes expanded, cycle counts, ...).
    """

    query: PPRQuery
    scores: SparseScoreVector
    timing: TimingBreakdown = field(default_factory=TimingBreakdown)
    peak_memory_bytes: int = 0
    metadata: Dict[str, object] = field(default_factory=dict)

    def top_k(self, k: Optional[int] = None) -> List[Tuple[int, float]]:
        """Top-``k`` (node, score) pairs; defaults to the query's ``k``."""
        return self.scores.top_k(self.query.k if k is None else k)

    def top_k_nodes(self, k: Optional[int] = None) -> List[int]:
        """Top-``k`` node ids; defaults to the query's ``k``."""
        return self.scores.top_k_nodes(self.query.k if k is None else k)

    @property
    def elapsed_seconds(self) -> float:
        """Total wall-clock (or modelled) time spent answering the query."""
        return self.timing.total


class PPRSolver(abc.ABC):
    """Abstract base class of all PPR solvers.

    Parameters
    ----------
    graph:
        The host graph queries are answered on.
    """

    #: Short name used in reports and experiment tables.
    name: str = "ppr-solver"

    def __init__(self, graph: CSRGraph) -> None:
        self._graph = graph

    @property
    def graph(self) -> CSRGraph:
        """The host graph."""
        return self._graph

    def rebind_graph(self, graph: CSRGraph) -> None:
        """Point the solver at an updated host graph.

        Solvers read ``self._graph`` per call and keep no cross-call state
        derived from it (per-graph operator state is memoized on the graph
        object itself), so swapping the binding between calls is safe.  The
        serving engine's :meth:`~repro.serving.engine.QueryEngine.apply_update`
        calls this under its writer barrier after compacting an edge-update
        batch; the node set must be unchanged.
        """
        if graph.num_nodes != self._graph.num_nodes:
            raise ValueError(
                f"rebind_graph cannot change the node set: solver holds "
                f"{self._graph.num_nodes} nodes, got {graph.num_nodes}"
            )
        self._graph = graph

    @abc.abstractmethod
    def solve(self, query: PPRQuery) -> PPRResult:
        """Answer one PPR query."""

    def solve_many(self, queries: List[PPRQuery]) -> List[PPRResult]:
        """Answer a batch of queries through a serial query engine.

        Routing the batch through :class:`repro.serving.engine.QueryEngine`
        (serial backend, no cache) keeps one batching code path in the
        library while returning exactly what the historical sequential loop
        returned; per-query serving latency is attached under
        ``result.metadata["serving"]``.
        """
        from repro.serving.engine import QueryEngine  # deferred: avoids cycle

        return QueryEngine(self).solve_batch(list(queries))
