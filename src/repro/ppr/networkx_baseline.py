"""NetworkX-based PPR baseline.

The paper's software implementation "is based on NetworkX Python library,
which also serves as the comparison baseline" (Sec. VI).  This wrapper runs
``networkx.pagerank`` with a personalisation vector concentrated on the seed
node, restricted to the depth-``L`` ego sub-graph (so it answers the same
local query as the other solvers rather than a global one).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.diffusion.sparse_vector import SparseScoreVector
from repro.graph.bfs import extract_ego_subgraph
from repro.graph.csr import CSRGraph
from repro.memory.tracker import MemoryTracker
from repro.ppr.base import PPRQuery, PPRResult, PPRSolver
from repro.utils.timing import TimingBreakdown

if TYPE_CHECKING:  # pragma: no cover - networkx loads on the first solve()
    import networkx as nx

__all__ = ["NetworkXPPRSolver"]


class NetworkXPPRSolver(PPRSolver):
    """Personalised PageRank via ``networkx.pagerank``.

    Parameters
    ----------
    graph:
        Host graph.
    local:
        When true (default) the computation is restricted to the depth-``L``
        ego sub-graph of the seed, matching the paper's local baseline.  When
        false the full graph is used (global personalised PageRank).
    max_iterations:
        Iteration cap handed to NetworkX; ``None`` uses the query length.
    track_memory:
        Measure peak memory with ``tracemalloc``.
    """

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
        self._nx_graph_cache: Optional[nx.Graph] = None

    def _full_nx_graph(self) -> nx.Graph:
        """Build (and cache) the NetworkX view of the host graph."""
        if self._nx_graph_cache is None:
            self._nx_graph_cache = self._graph.to_networkx()
        return self._nx_graph_cache

    def solve(self, query: PPRQuery) -> PPRResult:
        """Answer the query with ``networkx.pagerank``."""
        # Imported where it is used: ``import repro`` reaches this module, and
        # no serving process should pay for 285 networkx modules it never calls.
        import networkx as nx

        timing = TimingBreakdown()
        tracker = MemoryTracker(enabled=self._track_memory)
        iterations = (
            max(query.length, 1) if self._max_iterations is None else self._max_iterations
        )

        with tracker:
            if self._local:
                with timing.measure("bfs"):
                    subgraph, _ = extract_ego_subgraph(
                        self._graph, query.seed, query.length
                    )
                    nx_graph = subgraph.graph.to_networkx()
                    personalization = {subgraph.to_local(query.seed): 1.0}
            else:
                with timing.measure("bfs"):
                    subgraph = None
                    nx_graph = self._full_nx_graph()
                    personalization = {query.seed: 1.0}

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
                    # A fixed, small iteration budget frequently "fails" to
                    # converge by NetworkX's criterion; fall back to a larger
                    # budget with a loose tolerance, which always returns.
                    ranks = nx.pagerank(
                        nx_graph,
                        alpha=query.alpha,
                        personalization=personalization,
                        max_iter=max(100, iterations),
                        tol=1e-8,
                    )

            with timing.measure("aggregation"):
                scores = SparseScoreVector()
                if subgraph is not None:
                    for local_node, value in ranks.items():
                        scores.add(subgraph.to_global(int(local_node)), float(value))
                else:
                    for node, value in ranks.items():
                        scores.add(int(node), float(value))

        return PPRResult(
            query=query,
            scores=scores,
            timing=timing,
            peak_memory_bytes=tracker.peak_bytes,
            metadata={"local": self._local, "iterations": iterations},
        )
