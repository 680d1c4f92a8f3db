"""Experiment E3 — memory-efficiency comparison (Table II of the paper).

Table II compares, per dataset and across seed nodes, the memory required by

* **LocalPPR-CPU** — the single-stage baseline: its working set is the
  depth-``L`` ego sub-graph plus its score vectors,
* **MeLoPPR-CPU** — the multi-stage solver: its working set is bounded by the
  largest *single* sub-graph it touches, and
* **MeLoPPR-FPGA** — the accelerator: the BRAM bytes of the three per-sub-graph
  tables (Sec. VI-B formula).

The paper reports min/max per-query memory in MB plus per-graph average
reduction factors (1.51x–13.43x on CPU, 73.6x–8699x on FPGA), with denser /
larger graphs enjoying larger savings.  That ordering is the shape this
reproduction checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.reporting import format_megabytes, format_ratio, format_table
from repro.experiments.workloads import (
    PAPER_ALPHA,
    PAPER_K,
    PAPER_LENGTH,
    PAPER_STAGE_SPLIT,
    Workload,
    make_workload,
)
from repro.hardware.memory_model import subgraph_bram_bytes
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.selection import RatioSelector
from repro.meloppr.solver import MeLoPPRSolver
from repro.memory.report import MemorySummary, summarize_bytes
from repro.ppr.local_ppr import LocalPPRSolver
from repro.utils.rng import RngLike

__all__ = ["MemoryRow", "MemoryStudy", "run_table2", "format_table2"]


@dataclass(frozen=True)
class MemoryRow:
    """Per-dataset memory comparison (one row of Table II)."""

    dataset: str
    graph_nodes: int
    graph_edges: int
    baseline: MemorySummary
    meloppr_cpu: MemorySummary
    meloppr_fpga: MemorySummary
    cpu_reduction_mean: float
    fpga_reduction_mean: float


@dataclass(frozen=True)
class MemoryStudy:
    """The full Table II sweep across datasets."""

    rows: Tuple[MemoryRow, ...]
    num_seeds: int
    measurement: str


def _memory_for_baseline(workload: Workload, measured: bool) -> Tuple[List[float], List[float]]:
    """Per-query baseline memory (bytes) and modelled bytes."""
    solver = LocalPPRSolver(workload.graph, track_memory=measured)
    measured_bytes: List[float] = []
    modelled_bytes: List[float] = []
    for result in map(solver.solve, workload.queries):
        measured_bytes.append(float(result.peak_memory_bytes))
        modelled_bytes.append(float(result.metadata["modelled_bytes"]))
    return measured_bytes, modelled_bytes


def _memory_for_meloppr(
    workload: Workload, config: MeLoPPRConfig, measured: bool
) -> Tuple[List[float], List[float], List[float]]:
    """Per-query MeLoPPR CPU memory (measured, modelled) and FPGA BRAM bytes.

    Each query runs through ``MeLoPPRSolver.solve``, one sub-graph at a time:
    the executor whose peak Table II reports (the serving engine's waves hold
    several balls at once).
    """
    solver = MeLoPPRSolver(workload.graph, config)
    measured_bytes: List[float] = []
    modelled_bytes: List[float] = []
    fpga_bytes: List[float] = []
    for result in map(solver.solve, workload.queries):
        measured_bytes.append(float(result.peak_memory_bytes))
        modelled_bytes.append(float(result.metadata["modelled_bytes"]))
        records = result.metadata["tasks"]
        fpga_bytes.append(
            float(
                max(
                    subgraph_bram_bytes(r.subgraph_nodes, r.subgraph_edges)
                    for r in records
                )
            )
        )
    return measured_bytes, modelled_bytes, fpga_bytes


def run_table2(
    datasets: Sequence[str] = ("G1", "G2", "G3", "G4", "G5", "G6"),
    num_seeds: int = 10,
    selection_ratio: float = 0.02,
    rng: RngLike = 11,
    use_tracemalloc: bool = True,
    scale: Optional[float] = None,
) -> MemoryStudy:
    """Run the Table II memory comparison.

    Parameters
    ----------
    datasets:
        Dataset keys to include (all six by default).
    num_seeds:
        Seeds per dataset (the paper averages over all nodes implicitly via
        random queries; 10–50 is enough for stable reduction factors on the
        stand-ins).
    selection_ratio:
        Next-stage selection ratio used by MeLoPPR.
    use_tracemalloc:
        When true, CPU memory is measured with ``tracemalloc`` exactly as the
        paper does; when false, the analytical working-set model is used
        (faster, deterministic — handy for unit tests).
    scale:
        Optional dataset down-scaling override.
    """
    config = MeLoPPRConfig(
        stage_lengths=PAPER_STAGE_SPLIT,
        selector=RatioSelector(selection_ratio),
        score_table_factor=10,
        track_memory=use_tracemalloc,
    )
    rows: List[MemoryRow] = []
    for index, dataset in enumerate(datasets):
        workload = make_workload(
            dataset,
            num_seeds=num_seeds,
            k=PAPER_K,
            length=PAPER_LENGTH,
            alpha=PAPER_ALPHA,
            rng=(rng if not isinstance(rng, (int, np.integer)) else int(rng) + index),
            scale=scale,
        )
        base_measured, base_modelled = _memory_for_baseline(workload, use_tracemalloc)
        mel_measured, mel_modelled, fpga_bytes = _memory_for_meloppr(
            workload, config, use_tracemalloc
        )
        baseline_values = base_measured if use_tracemalloc else base_modelled
        meloppr_values = mel_measured if use_tracemalloc else mel_modelled

        cpu_reductions = [
            b / m if m > 0 else float("inf")
            for b, m in zip(baseline_values, meloppr_values)
        ]
        fpga_reductions = [
            b / f if f > 0 else float("inf")
            for b, f in zip(baseline_values, fpga_bytes)
        ]
        rows.append(
            MemoryRow(
                dataset=dataset,
                graph_nodes=workload.graph.num_nodes,
                graph_edges=workload.graph.num_edges,
                baseline=summarize_bytes(baseline_values),
                meloppr_cpu=summarize_bytes(meloppr_values),
                meloppr_fpga=summarize_bytes(fpga_bytes),
                cpu_reduction_mean=float(np.mean(cpu_reductions)),
                fpga_reduction_mean=float(np.mean(fpga_reductions)),
            )
        )
    return MemoryStudy(
        rows=tuple(rows),
        num_seeds=num_seeds,
        measurement="tracemalloc" if use_tracemalloc else "modelled",
    )


def format_table2(study: MemoryStudy) -> str:
    """Render the study as a text table mirroring Table II."""
    headers = [
        "Graph",
        "|V|",
        "|E|",
        "LocalPPR-CPU (MB min~max)",
        "MeLoPPR-CPU (MB min~max)",
        "CPU avg red.",
        "MeLoPPR-FPGA (MB min~max)",
        "FPGA avg red.",
    ]
    rows = []
    for row in study.rows:
        rows.append(
            [
                row.dataset,
                row.graph_nodes,
                row.graph_edges,
                f"{format_megabytes(row.baseline.minimum)}~{format_megabytes(row.baseline.maximum)}",
                f"{format_megabytes(row.meloppr_cpu.minimum)}~{format_megabytes(row.meloppr_cpu.maximum)}",
                format_ratio(row.cpu_reduction_mean),
                f"{format_megabytes(row.meloppr_fpga.minimum)}~{format_megabytes(row.meloppr_fpga.maximum)}",
                format_ratio(row.fpga_reduction_mean),
            ]
        )
    title = (
        f"Table II — memory comparison ({study.measurement}, "
        f"{study.num_seeds} seeds per graph)"
    )
    return format_table(headers, rows, title=title)
