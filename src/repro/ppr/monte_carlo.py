"""Monte Carlo alpha-decay random-walk PPR.

The classic zero-index-space PPR estimator discussed in Sec. III of the
paper: launch many alpha-decay random walks (:math:`\\alpha`-RW) from the seed
and estimate ``pi(v)`` as the fraction of walks terminating at ``v``.  The
paper cites this as the "low space, high accesses" extreme of Fig. 2(a) — its
on-chip memory overhead is (near) zero, but every walk step is an off-chip
memory access on a large graph.

The walker therefore also counts the number of node-neighbourhood accesses it
performs so the hardware model can charge off-chip access cost to it.
"""

from __future__ import annotations

from repro.diffusion.sparse_vector import SparseScoreVector
from repro.graph.csr import CSRGraph
from repro.memory.tracker import MemoryTracker
from repro.ppr.base import PPRQuery, PPRResult, PPRSolver
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.timing import TimingBreakdown
from repro.utils.validation import check_positive_int

__all__ = ["MonteCarloSolver"]


class MonteCarloSolver(PPRSolver):
    """Monte Carlo random-walk PPR estimator.

    Parameters
    ----------
    graph:
        Host graph.
    num_walks:
        Number of independent walks launched per query.
    rng:
        Seed or generator controlling the walks (deterministic by default).
    track_memory:
        Measure peak memory with ``tracemalloc``.
    """

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
        """Estimate PPR scores with ``num_walks`` terminating random walks."""
        timing = TimingBreakdown()
        tracker = MemoryTracker(enabled=self._track_memory)
        terminations = SparseScoreVector()
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
                    terminations.add(node, 1.0)
            with timing.measure("aggregation"):
                terminations.scale(1.0 / self._num_walks)

        return PPRResult(
            query=query,
            scores=terminations,
            timing=timing,
            peak_memory_bytes=tracker.peak_bytes,
            metadata={
                "num_walks": self._num_walks,
                "neighborhood_accesses": memory_accesses,
            },
        )
