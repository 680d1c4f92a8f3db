"""Processing-element (PE) model of the FPGA diffusion accelerator.

Fig. 4 of the paper shows one PE built from five components:

1. a **sub-graph table** storing, per node, the first/last neighbour address
   plus the concatenated neighbour lists,
2. a local **accumulated score table** (``pi_a`` per node),
3. a local **residual score table** (``pi_r`` per node),
4. a **diffuser** that walks the sub-graph table, fetches scores, computes one
   propagation and writes updated scores back, and
5. an **accumulator** folding propagation results into ``pi_a`` / ``pi_r``
   following the dataflow of Fig. 3(b).

The PE here is an *analytical cycle model*: given a diffusion task (sub-graph
size and the adjacency entries actually traversed), it reports the cycles each
phase takes and the BRAM bytes the three tables occupy.  The cycle
coefficients are per-operation costs of the pipelined HLS implementation:
one adjacency entry per cycle through the diffuser, plus per-node costs for
score reads/writes, table initialisation and the local aggregation pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.memory_model import subgraph_bram_bytes

__all__ = ["DiffusionTask", "PECycleCosts", "PECycleReport", "ProcessingElement"]


@dataclass(frozen=True)
class DiffusionTask:
    """One sub-graph diffusion to be executed on a PE.

    Attributes
    ----------
    task_id:
        Sequential identifier (dispatch order).
    stage_index:
        Which MeLoPPR stage the task belongs to (0 = stage one).
    subgraph_nodes, subgraph_edges:
        Size of the sub-graph loaded into the PE tables.
    propagations:
        Adjacency entries traversed across all diffusion iterations (from the
        software kernel's work counter).
    length:
        Number of diffusion iterations.
    bfs_edges_scanned:
        CPU-side BFS work that produced the sub-graph (charged to the host).
    """

    task_id: int
    stage_index: int
    subgraph_nodes: int
    subgraph_edges: int
    propagations: int
    length: int
    bfs_edges_scanned: int

    def __post_init__(self) -> None:
        if min(
            self.subgraph_nodes,
            self.subgraph_edges,
            self.propagations,
            self.length,
            self.bfs_edges_scanned,
        ) < 0:
            raise ValueError("task size fields must be non-negative")
        if self.subgraph_nodes == 0:
            raise ValueError("a diffusion task needs at least one node")

    @property
    def bram_bytes(self) -> int:
        """BRAM bytes of the three per-sub-graph tables for this task."""
        return subgraph_bram_bytes(self.subgraph_nodes, self.subgraph_edges)


@dataclass(frozen=True)
class PECycleCosts:
    """Per-operation cycle costs of the PE pipeline.

    Attributes
    ----------
    cycles_per_edge:
        Diffuser cost per adjacency entry traversed (pipelined, II = 1).
    cycles_per_node_per_iteration:
        Score-table read/update cost per node per iteration (accumulator).
    cycles_per_node_load:
        Table-initialisation cost per node when a new sub-graph is loaded.
    cycles_per_node_aggregate:
        Local-aggregation cost per node when folding the finished scores into
        the global score table.
    fixed_overhead_cycles:
        Per-task control overhead (start/drain of the pipeline).
    """

    cycles_per_edge: float = 1.0
    cycles_per_node_per_iteration: float = 2.0
    cycles_per_node_load: float = 1.0
    cycles_per_node_aggregate: float = 1.0
    fixed_overhead_cycles: float = 64.0


@dataclass(frozen=True)
class PECycleReport:
    """Cycle breakdown of one task on one PE."""

    task_id: int
    load_cycles: float
    diffusion_cycles: float
    aggregation_cycles: float
    score_table_writes: int

    @property
    def total_cycles(self) -> float:
        """All cycles the PE is busy with this task (excluding stalls)."""
        return self.load_cycles + self.diffusion_cycles + self.aggregation_cycles


class ProcessingElement:
    """Analytical cycle model of one PE.

    Parameters
    ----------
    costs:
        Per-operation cycle costs (defaults model the paper's pipelined HLS
        design at 100 MHz).
    """

    def __init__(self, costs: PECycleCosts | None = None) -> None:
        self._costs = costs if costs is not None else PECycleCosts()

    def execute(self, task: DiffusionTask) -> PECycleReport:
        """Return the cycle breakdown for ``task``.

        The diffuser streams ``propagations`` adjacency entries at one per
        cycle; the accumulator touches every node once per iteration; loading
        initialises every node entry of the three tables; aggregation reads
        every node's final score once.
        """
        costs = self._costs
        load = (
            costs.cycles_per_node_load * task.subgraph_nodes
            + costs.fixed_overhead_cycles
        )
        diffusion = (
            costs.cycles_per_edge * task.propagations
            + costs.cycles_per_node_per_iteration
            * task.subgraph_nodes
            * max(task.length, 1)
        )
        aggregation = costs.cycles_per_node_aggregate * task.subgraph_nodes
        # Score-table traffic the scheduler must arbitrate between PEs: one
        # write per propagated edge (the diffuser pushing mass to a neighbour)
        # plus one accumulated/residual update per node per iteration (the
        # accumulator of Fig. 3(b)).
        writes = int(task.propagations + task.subgraph_nodes * max(task.length, 1))
        return PECycleReport(
            task_id=task.task_id,
            load_cycles=load,
            diffusion_cycles=diffusion,
            aggregation_cycles=aggregation,
            score_table_writes=writes,
        )
