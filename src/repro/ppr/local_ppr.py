"""Single-stage local PPR — the paper's CPU baseline ("LocalPPR-CPU").

The baseline answers a query by

1. extracting the depth-``L`` ego sub-graph ``G_L(s)`` with BFS (this is the
   "ideal method" of Sec. IV-A / Fig. 2(b): the whole related sub-graph is
   loaded into memory), then
2. running a single graph diffusion of length ``L`` on that sub-graph.

Its memory footprint is ``O(G_L(s))``, which is what Table II compares
MeLoPPR against, and its latency is dominated by the exponentially growing
BFS plus the diffusion on the large sub-graph.
"""

from __future__ import annotations

from repro.diffusion.diffusion import graph_diffusion, seed_vector
from repro.diffusion.sparse_vector import SparseScoreVector
from repro.graph.bfs import extract_ego_subgraph
from repro.graph.csr import CSRGraph
from repro.memory.tracker import MemoryTracker
from repro.ppr.base import PPRQuery, PPRResult, PPRSolver
from repro.utils.timing import TimingBreakdown

__all__ = ["LocalPPRSolver"]


class LocalPPRSolver(PPRSolver):
    """Single-stage local PPR on the depth-``L`` ego sub-graph.

    Parameters
    ----------
    graph:
        Host graph.
    track_memory:
        When true (default) the solver measures its peak working set with
        :class:`~repro.memory.tracker.MemoryTracker` (``tracemalloc``), which
        is how the paper captures CPU memory for Table II.  Disable for
        latency-sensitive benchmarking where the tracing overhead matters.
    """

    name = "local-ppr-cpu"

    def __init__(self, graph: CSRGraph, track_memory: bool = True) -> None:
        super().__init__(graph)
        self._track_memory = bool(track_memory)

    def solve(self, query: PPRQuery) -> PPRResult:
        """Answer a query with BFS extraction plus one full-length diffusion."""
        timing = TimingBreakdown()
        tracker = MemoryTracker(enabled=self._track_memory)

        with tracker:
            with timing.measure("bfs"):
                subgraph, bfs = extract_ego_subgraph(
                    self._graph, query.seed, query.length
                )
            with timing.measure("diffusion"):
                initial = seed_vector(subgraph.num_nodes, subgraph.to_local(query.seed))
                diffusion = graph_diffusion(
                    subgraph.graph, initial, query.length, query.alpha
                )
            with timing.measure("aggregation"):
                scores = SparseScoreVector(subgraph.global_ids, diffusion.accumulated)

        # The analytical working-set estimate mirrors what the sub-graph and
        # score vectors occupy; used as a fallback when tracing is disabled.
        modelled_bytes = (
            subgraph.graph.nbytes()
            + diffusion.accumulated.nbytes
            + diffusion.residual.nbytes
        )
        peak = tracker.peak_bytes if self._track_memory else modelled_bytes

        return PPRResult(
            query=query,
            scores=scores,
            timing=timing,
            peak_memory_bytes=peak,
            metadata={
                "subgraph_nodes": subgraph.num_nodes,
                "subgraph_edges": subgraph.num_edges,
                "bfs_edges_scanned": bfs.edges_scanned,
                "propagations": diffusion.propagations,
                "modelled_bytes": modelled_bytes,
            },
        )
