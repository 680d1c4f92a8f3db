"""Hardware simulation substrate: PE model, scheduler, FPGA accelerator, co-sim."""

from repro.hardware.accelerator import FPGAAccelerator, FPGAExecutionReport
from repro.hardware.cosim import CoSimulationReport, MeLoPPRFPGASolver, tasks_from_records
from repro.hardware.data_transfer import TransferModel, TransferReport
from repro.hardware.memory_model import (
    BYTES_PER_WORD,
    FPGAMemoryModel,
    accumulated_table_bytes,
    global_score_table_bytes,
    residual_table_bytes,
    subgraph_bram_bytes,
    subgraph_table_bytes,
)
from repro.hardware.pe import DiffusionTask, PECycleCosts, PECycleReport, ProcessingElement
from repro.hardware.platform import FPGASpec, KC705
from repro.hardware.resources import PAPER_TABLE_I, ResourceModel, ResourceUsage
from repro.hardware.scheduler import (
    ScheduleResult,
    ScheduledTask,
    Scheduler,
    conflict_probability,
    conflict_stall_cycles,
)

__all__ = [
    "FPGAAccelerator",
    "FPGAExecutionReport",
    "CoSimulationReport",
    "MeLoPPRFPGASolver",
    "tasks_from_records",
    "TransferModel",
    "TransferReport",
    "BYTES_PER_WORD",
    "FPGAMemoryModel",
    "accumulated_table_bytes",
    "global_score_table_bytes",
    "residual_table_bytes",
    "subgraph_bram_bytes",
    "subgraph_table_bytes",
    "DiffusionTask",
    "PECycleCosts",
    "PECycleReport",
    "ProcessingElement",
    "FPGASpec",
    "KC705",
    "PAPER_TABLE_I",
    "ResourceModel",
    "ResourceUsage",
    "ScheduleResult",
    "ScheduledTask",
    "Scheduler",
    "conflict_probability",
    "conflict_stall_cycles",
]
