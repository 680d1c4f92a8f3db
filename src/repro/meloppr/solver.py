"""The multi-stage MeLoPPR solver (CPU reference implementation).

This is the paper's primary contribution, assembled from the pieces in this
package:

1. **Stage one** — extract ``G_l1(s)`` with a depth-``l1`` BFS, run a
   length-``l1`` diffusion on it, fold the accumulated scores into the global
   score table, and keep the residual scores.
2. **Selection** — choose the next-stage nodes from the residual vector using
   the configured :class:`~repro.meloppr.selection.NextStageSelector`
   (sparsity exploitation, Sec. IV-D).
3. **Stage two (and later)** — for every selected node ``v`` with residual
   mass ``r_v``: subtract the ``alpha^l1 * r_v`` correction at ``v`` (Eq. 6),
   extract ``G_l2(v)``, diffuse a unit vector for ``l2`` steps, scale by
   ``alpha^l1 * r_v`` and fold into the global table (Eq. 8, by linearity).
   Unselected nodes simply keep their residual contribution in place, which
   is the zero-cost "0-step diffusion" approximation — total probability mass
   is preserved no matter how few nodes are expanded.
4. **Answer** — the top-``k`` entries of the global score table.

The solver never materialises any data structure proportional to
``G_L(s)``; its working set is bounded by the largest single sub-graph, which
is the memory saving reported in Table II.

The stage loop itself lives in :mod:`repro.meloppr.planner`: ``solve`` builds
a :class:`~repro.meloppr.planner.MeLoPPRPlan` (the planner) and drives it with
the serial reference executor.  The serving engine (:mod:`repro.serving`)
drives the same plans with batching, a sub-graph cache and pluggable
backends — one algorithmic code path for both.

Per-sub-graph work records (:class:`StageTaskRecord`) are attached to the
result so the FPGA co-simulation (:mod:`repro.hardware.cosim`) can replay the
exact same computation on the modelled accelerator without recomputing the
algorithmic part.
"""

from __future__ import annotations

from typing import Optional

from repro.graph.csr import CSRGraph
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.planner import (
    MeLoPPRPlan,
    StageTaskRecord,
    execute_plan,
    execute_stage_per_ball,
)
from repro.ppr.base import PPRQuery, PPRResult, PPRSolver

__all__ = ["MeLoPPRSolver", "StageTaskRecord"]


class MeLoPPRSolver(PPRSolver):
    """Memory-efficient low-latency multi-stage PPR (the paper's algorithm).

    Parameters
    ----------
    graph:
        Host graph.
    config:
        Stage split, next-stage selection strategy and score-table bound.
        Defaults to the paper's configuration (``l1 = l2 = 3``, ``c = 10``,
        2 % ratio selection).
    """

    name = "meloppr-cpu"

    def __init__(self, graph: CSRGraph, config: Optional[MeLoPPRConfig] = None) -> None:
        super().__init__(graph)
        self._config = config if config is not None else MeLoPPRConfig.paper_default()

    @property
    def config(self) -> MeLoPPRConfig:
        """The solver configuration."""
        return self._config

    # ------------------------------------------------------------------
    def plan(
        self, query: PPRQuery, track_memory: Optional[bool] = None
    ) -> MeLoPPRPlan:
        """Build the stage-task planner for one query (without executing it).

        The serving engine uses this to separate planning from execution;
        :meth:`solve` is exactly ``execute_plan(self.plan(query),
        run_stage=execute_stage_per_ball)``.
        ``track_memory`` overrides the config's tracemalloc switch (the
        engine disables it under concurrent backends, where the
        process-global trace cannot measure per-query peaks).
        """
        return MeLoPPRPlan(self._graph, self._config, query, track_memory=track_memory)

    def solve(self, query: PPRQuery) -> PPRResult:
        """Answer one PPR query with multi-stage decomposition.

        One ball at a time: this is the executor whose measured peak Table II
        reports, and the oracle the serving engine's wave executor is tested
        against — so it never runs the stage functions it judges.
        """
        return execute_plan(self.plan(query), run_stage=execute_stage_per_ball)
