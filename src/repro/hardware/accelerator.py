"""The FPGA accelerator model: P processing elements + scheduler + transfers.

This module assembles the PE cycle model, the conflict-arbitrating scheduler
and the data-transfer model into a single object that, given the diffusion
tasks of one MeLoPPR query, reports

* the FPGA latency split into diffusion, scheduling and data-movement time
  (the stacked components of Fig. 5),
* the peak per-PE BRAM requirement (the MeLoPPR-FPGA memory column of
  Table II), and
* the resource utilisation of the chosen parallelism (Table I).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.hardware.data_transfer import TransferModel, TransferReport
from repro.hardware.memory_model import FPGAMemoryModel
from repro.hardware.pe import DiffusionTask, PECycleCosts, ProcessingElement
from repro.hardware.platform import FPGASpec, KC705
from repro.hardware.resources import ResourceModel, ResourceUsage
from repro.hardware.scheduler import Scheduler, ScheduleResult

__all__ = ["FPGAExecutionReport", "FPGAAccelerator"]


@dataclass(frozen=True)
class FPGAExecutionReport:
    """Modelled outcome of running one query's diffusion tasks on the FPGA.

    Attributes
    ----------
    parallelism:
        Number of PEs used.
    diffusion_seconds:
        Time the PEs spend doing useful diffusion work (critical path over the
        PE timeline, excluding stalls).
    scheduling_seconds:
        Extra time caused by score-table write conflicts between diffusers.
    data_movement_seconds:
        Host↔card streaming time (sub-graph uploads + result download).
    makespan_seconds:
        End-to-end FPGA-side latency (critical path + data movement).
    peak_pe_bram_bytes:
        Largest per-sub-graph table footprint across all tasks — the on-chip
        memory requirement reported in Table II.
    total_bram_bytes:
        ``P`` worst-case PE footprints plus the global score table.
    schedule:
        The underlying cycle-level schedule.
    transfers:
        The underlying transfer report.
    resources:
        LUT/BRAM/DSP utilisation of this parallelism on the device.
    """

    parallelism: int
    diffusion_seconds: float
    scheduling_seconds: float
    data_movement_seconds: float
    makespan_seconds: float
    peak_pe_bram_bytes: int
    total_bram_bytes: int
    schedule: ScheduleResult
    transfers: TransferReport
    resources: ResourceUsage

    @property
    def fpga_seconds(self) -> float:
        """Total modelled FPGA-side time (what the co-simulation adds to CPU time)."""
        return self.makespan_seconds


class FPGAAccelerator:
    """Analytical model of the MeLoPPR FPGA accelerator.

    Parameters
    ----------
    parallelism:
        Number of processing elements ``P`` (the paper evaluates 1–16).
    device:
        FPGA board description (defaults to the KC705).
    pe_costs:
        Optional override of the PE cycle-cost coefficients.
    k:
        Top-k of the queries (sizes the global score table).
    score_table_factor:
        The ``c`` of the global score table.
    """

    def __init__(
        self,
        parallelism: int = 16,
        device: FPGASpec = KC705,
        pe_costs: Optional[PECycleCosts] = None,
        k: int = 200,
        score_table_factor: int = 10,
    ) -> None:
        if parallelism <= 0:
            raise ValueError(f"parallelism must be > 0, got {parallelism}")
        self._parallelism = parallelism
        self._device = device
        self._pe = ProcessingElement(pe_costs)
        self._scheduler = Scheduler(parallelism, self._pe)
        self._transfer = TransferModel(device)
        self._memory = FPGAMemoryModel(
            parallelism=parallelism, k=k, score_table_factor=score_table_factor
        )
        self._resources = ResourceModel(device=device)
        self._k = k

    # ------------------------------------------------------------------
    def execute(self, tasks: Sequence[DiffusionTask]) -> FPGAExecutionReport:
        """Model the execution of ``tasks`` and return the latency breakdown."""
        tasks = list(tasks)
        schedule = self._scheduler.run(tasks)

        # Split the makespan into useful diffusion time and conflict stalls in
        # proportion to the cycle totals: the stall fraction of the work is
        # also the stall fraction of the critical path under the greedy
        # first-idle-PE policy (stalls are spread uniformly over the tasks).
        makespan_seconds = self._device.cycles_to_seconds(schedule.makespan_cycles)
        busy_and_stall = schedule.diffusion_cycles + schedule.scheduling_cycles
        stall_fraction = (
            schedule.scheduling_cycles / busy_and_stall if busy_and_stall > 0 else 0.0
        )
        scheduling_seconds = makespan_seconds * stall_fraction
        diffusion_seconds = makespan_seconds - scheduling_seconds

        num_next_stage = sum(1 for task in tasks if task.stage_index > 0)
        transfers = self._transfer.query_report(
            subgraph_sizes=[(t.subgraph_nodes, t.subgraph_edges) for t in tasks],
            num_next_stage_nodes=num_next_stage,
            k=self._k,
        )

        peak_pe_bytes = max((task.bram_bytes for task in tasks), default=0)
        max_nodes = max((task.subgraph_nodes for task in tasks), default=0)
        max_edges = max((task.subgraph_edges for task in tasks), default=0)
        total_bram = self._memory.total_bytes(max_nodes, max_edges) if tasks else 0

        total_seconds = (
            diffusion_seconds + scheduling_seconds + transfers.seconds
        )

        return FPGAExecutionReport(
            parallelism=self._parallelism,
            diffusion_seconds=diffusion_seconds,
            scheduling_seconds=scheduling_seconds,
            data_movement_seconds=transfers.seconds,
            makespan_seconds=total_seconds,
            peak_pe_bram_bytes=peak_pe_bytes,
            total_bram_bytes=total_bram,
            schedule=schedule,
            transfers=transfers,
            resources=self._resources.usage(self._parallelism),
        )
