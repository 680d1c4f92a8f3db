"""CPU + FPGA co-simulation: the "MeLoPPR-FPGA" system of the paper.

The co-designed system of Fig. 4 splits the work between the processing
system (PS — the host CPU) and the programmable logic (PL — the FPGA):

* the **CPU** extracts sub-graphs with BFS, reorganises them into node /
  neighbour lists, streams them to the FPGA and collects the final result;
* the **FPGA** runs the graph diffusions on ``P`` parallel PEs, maintains the
  per-PE score tables and the global top-``c*k`` score table, and only ships
  the final top-``k`` nodes back.

:class:`MeLoPPRFPGASolver` produces *numerically identical* results to the
CPU solver (same sub-graphs, same diffusions, same aggregation) — what
changes is the latency accounting: the diffusion/aggregation time is replaced
by the modelled FPGA time, while the BFS time remains the real measured CPU
time.  This mirrors the paper's measurement methodology, where speedups are
reported against the measured CPU baseline and the FPGA contribution comes
from the 100 MHz implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.graph.csr import CSRGraph
from repro.hardware.accelerator import FPGAAccelerator, FPGAExecutionReport
from repro.hardware.pe import DiffusionTask, PECycleCosts
from repro.hardware.platform import FPGASpec, KC705
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.solver import MeLoPPRSolver, StageTaskRecord
from repro.ppr.base import PPRQuery, PPRResult, PPRSolver
from repro.utils.timing import TimingBreakdown

__all__ = ["CoSimulationReport", "MeLoPPRFPGASolver", "tasks_from_records"]


def tasks_from_records(
    records: List[StageTaskRecord], stage_lengths: tuple[int, ...]
) -> List[DiffusionTask]:
    """Convert the solver's :class:`StageTaskRecord` list into hardware tasks."""
    tasks: List[DiffusionTask] = []
    for task_id, record in enumerate(records):
        stage_length = stage_lengths[min(record.stage_index, len(stage_lengths) - 1)]
        tasks.append(
            DiffusionTask(
                task_id=task_id,
                stage_index=record.stage_index,
                subgraph_nodes=record.subgraph_nodes,
                subgraph_edges=record.subgraph_edges,
                propagations=record.propagations,
                length=stage_length,
                bfs_edges_scanned=record.bfs_edges_scanned,
            )
        )
    return tasks


@dataclass(frozen=True)
class CoSimulationReport:
    """Latency decomposition of one co-simulated query.

    Attributes
    ----------
    cpu_seconds:
        Host-side time (BFS extraction + sub-graph reorganisation + control).
    fpga_report:
        The modelled FPGA execution (diffusion / scheduling / data movement).
    total_seconds:
        End-to-end query latency of the co-designed system.
    bfs_fraction:
        Share of the total latency spent in CPU BFS — the light-blue bars of
        Fig. 7; it grows with ``P`` because the FPGA part shrinks.
    """

    cpu_seconds: float
    fpga_report: FPGAExecutionReport
    total_seconds: float
    bfs_fraction: float


class MeLoPPRFPGASolver(PPRSolver):
    """MeLoPPR on the hybrid CPU + FPGA platform (modelled).

    Parameters
    ----------
    graph:
        Host graph.
    config:
        MeLoPPR algorithm configuration (shared with the CPU solver).
    parallelism:
        Number of FPGA PEs ``P`` (the paper uses 16 for the Fig. 7 results).
    device:
        FPGA board description.
    pe_costs:
        Optional override of the PE cycle-cost coefficients.
    """

    name = "meloppr-fpga"

    def __init__(
        self,
        graph: CSRGraph,
        config: Optional[MeLoPPRConfig] = None,
        parallelism: int = 16,
        device: FPGASpec = KC705,
        pe_costs: Optional[PECycleCosts] = None,
    ) -> None:
        super().__init__(graph)
        self._config = config if config is not None else MeLoPPRConfig.paper_default()
        self._parallelism = parallelism
        self._device = device
        self._pe_costs = pe_costs
        self._software = MeLoPPRSolver(graph, self._config)

    # ------------------------------------------------------------------
    def solve(self, query: PPRQuery) -> PPRResult:
        """Answer the query and attach the co-simulation latency breakdown."""
        software_result = self._software.solve(query)
        records: List[StageTaskRecord] = software_result.metadata["tasks"]
        stage_lengths: tuple[int, ...] = software_result.metadata["stage_lengths"]
        tasks = tasks_from_records(records, stage_lengths)

        accelerator = FPGAAccelerator(
            parallelism=self._parallelism,
            device=self._device,
            pe_costs=self._pe_costs,
            k=query.k,
            score_table_factor=self._config.score_table_factor or 10,
        )
        fpga_report = accelerator.execute(tasks)

        # The CPU share is the wall-clock BFS time measured while running the
        # algorithm, as the paper charges it.
        cpu_seconds = software_result.timing.seconds.get("bfs", 0.0)

        total_seconds = cpu_seconds + fpga_report.fpga_seconds
        bfs_fraction = cpu_seconds / total_seconds if total_seconds > 0 else 0.0
        report = CoSimulationReport(
            cpu_seconds=cpu_seconds,
            fpga_report=fpga_report,
            total_seconds=total_seconds,
            bfs_fraction=bfs_fraction,
        )

        timing = TimingBreakdown()
        timing.add("cpu_bfs", cpu_seconds)
        timing.add("fpga_diffusion", fpga_report.diffusion_seconds)
        timing.add("fpga_scheduling", fpga_report.scheduling_seconds)
        timing.add("fpga_data_movement", fpga_report.data_movement_seconds)

        metadata = dict(software_result.metadata)
        metadata.update(
            {
                "parallelism": self._parallelism,
                "cosim": report,
                "fpga_peak_pe_bram_bytes": fpga_report.peak_pe_bram_bytes,
                "fpga_total_bram_bytes": fpga_report.total_bram_bytes,
                "resources": fpga_report.resources,
            }
        )

        return PPRResult(
            query=query,
            scores=software_result.scores,
            timing=timing,
            peak_memory_bytes=fpga_report.peak_pe_bram_bytes,
            metadata=metadata,
        )
