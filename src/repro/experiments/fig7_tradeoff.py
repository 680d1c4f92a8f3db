"""Experiment E5 — precision-latency trade-off across all graphs (Fig. 7).

Fig. 7 shows, for each of the six graphs and a sweep of next-stage node
budgets, four series:

* the speedup of **MeLoPPR-CPU** over the LocalPPR-CPU baseline (yellow bars;
  values range from slowdowns at high precision to ~2.6x),
* the speedup of **MeLoPPR-FPGA** (P = 16) over the same baseline (grey bars /
  annotated values; 3.1x–707.9x depending on graph and operating point),
* the fraction of MeLoPPR-FPGA latency spent in CPU-side BFS (light-blue
  bars), which grows as the FPGA part shrinks, and
* the resulting top-k precision (dark-blue stars), which rises as more
  next-stage nodes are computed.

The headline shape to reproduce: precision improves and speedup decreases as
the number of computed next-stage nodes grows; the FPGA implementation is
consistently faster than the CPU one; and the BFS share of the co-designed
system grows with the node budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.reporting import format_ratio, format_table
from repro.experiments.workloads import (
    PAPER_ALPHA,
    PAPER_K,
    PAPER_LENGTH,
    PAPER_STAGE_SPLIT,
    make_workload,
)
from repro.hardware.accelerator import FPGAAccelerator
from repro.hardware.cosim import tasks_from_records
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.selection import RatioSelector
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.local_ppr import LocalPPRSolver
from repro.ppr.metrics import result_precision
from repro.utils.rng import RngLike

__all__ = ["TradeoffPoint", "TradeoffStudy", "run_fig7", "format_fig7"]

#: Selection ratios forming the operating points of Fig. 7 (left-to-right the
#: paper increases the number of computed next-stage nodes).
PAPER_RATIOS: Tuple[float, ...] = (0.01, 0.02, 0.05, 0.10)

#: FPGA parallelism used for the Fig. 7 results.
PAPER_PARALLELISM = 16


@dataclass(frozen=True)
class TradeoffPoint:
    """One operating point (dataset x selection ratio) of Fig. 7."""

    dataset: str
    ratio: float
    precision: float
    baseline_seconds: float
    meloppr_cpu_seconds: float
    meloppr_fpga_seconds: float
    bfs_fraction: float
    mean_next_stage_tasks: float

    @property
    def cpu_speedup(self) -> float:
        """MeLoPPR-CPU speedup over the LocalPPR-CPU baseline."""
        if self.meloppr_cpu_seconds == 0:
            return float("inf")
        return self.baseline_seconds / self.meloppr_cpu_seconds

    @property
    def fpga_speedup(self) -> float:
        """MeLoPPR-FPGA speedup over the LocalPPR-CPU baseline."""
        if self.meloppr_fpga_seconds == 0:
            return float("inf")
        return self.baseline_seconds / self.meloppr_fpga_seconds


@dataclass(frozen=True)
class TradeoffStudy:
    """The full Fig. 7 sweep."""

    points: Tuple[TradeoffPoint, ...]
    num_seeds: int
    parallelism: int

    def for_dataset(self, dataset: str) -> List[TradeoffPoint]:
        """Points of one dataset, ordered by increasing ratio."""
        return sorted(
            (point for point in self.points if point.dataset == dataset),
            key=lambda point: point.ratio,
        )

    def datasets(self) -> Tuple[str, ...]:
        """Datasets present in the study, in first-appearance order."""
        seen: List[str] = []
        for point in self.points:
            if point.dataset not in seen:
                seen.append(point.dataset)
        return tuple(seen)


def run_fig7(
    datasets: Sequence[str] = ("G1", "G2", "G3", "G4", "G5", "G6"),
    ratios: Sequence[float] = PAPER_RATIOS,
    num_seeds: int = 5,
    parallelism: int = PAPER_PARALLELISM,
    rng: RngLike = 17,
    scale: Optional[float] = None,
) -> TradeoffStudy:
    """Run the Fig. 7 precision-latency trade-off sweep.

    For every dataset and selection ratio the study measures the LocalPPR-CPU
    baseline wall-clock latency, the MeLoPPR-CPU wall-clock latency, the
    modelled MeLoPPR-FPGA latency (measured CPU BFS + modelled FPGA time at
    ``parallelism`` PEs) and the top-k precision against the exact result.
    """
    points: List[TradeoffPoint] = []
    for dataset_index, dataset in enumerate(datasets):
        workload = make_workload(
            dataset,
            num_seeds=num_seeds,
            k=PAPER_K,
            length=PAPER_LENGTH,
            alpha=PAPER_ALPHA,
            rng=(int(rng) + dataset_index if isinstance(rng, int) else rng),
            scale=scale,
        )
        baseline_solver = LocalPPRSolver(workload.graph, track_memory=False)
        baseline_results = [baseline_solver.solve(q) for q in workload.queries]
        baseline_seconds = float(
            np.mean([r.elapsed_seconds for r in baseline_results])
        )

        accelerator = FPGAAccelerator(
            parallelism=parallelism, k=PAPER_K, score_table_factor=10
        )
        for ratio in ratios:
            config = MeLoPPRConfig(
                stage_lengths=PAPER_STAGE_SPLIT,
                selector=RatioSelector(ratio),
                score_table_factor=10,
                track_memory=False,
            )
            solver = MeLoPPRSolver(workload.graph, config)
            precisions: List[float] = []
            cpu_seconds: List[float] = []
            fpga_seconds: List[float] = []
            bfs_fractions: List[float] = []
            task_counts: List[float] = []
            for query, exact in zip(workload.queries, baseline_results):
                result = solver.solve(query)
                precisions.append(result_precision(result, exact))
                cpu_seconds.append(result.elapsed_seconds)
                records = result.metadata["tasks"]
                tasks = tasks_from_records(records, result.metadata["stage_lengths"])
                report = accelerator.execute(tasks)
                bfs_time = result.timing.seconds.get("bfs", 0.0)
                total = bfs_time + report.fpga_seconds
                fpga_seconds.append(total)
                bfs_fractions.append(bfs_time / total if total > 0 else 0.0)
                task_counts.append(float(result.metadata["num_next_stage_tasks"]))
            points.append(
                TradeoffPoint(
                    dataset=dataset,
                    ratio=float(ratio),
                    precision=float(np.mean(precisions)),
                    baseline_seconds=baseline_seconds,
                    meloppr_cpu_seconds=float(np.mean(cpu_seconds)),
                    meloppr_fpga_seconds=float(np.mean(fpga_seconds)),
                    bfs_fraction=float(np.mean(bfs_fractions)),
                    mean_next_stage_tasks=float(np.mean(task_counts)),
                )
            )
    return TradeoffStudy(
        points=tuple(points), num_seeds=num_seeds, parallelism=parallelism
    )


def format_fig7(study: TradeoffStudy) -> str:
    """Render the sweep as a text table mirroring the Fig. 7 annotations."""
    headers = [
        "Graph",
        "Ratio",
        "Precision",
        "MeLoPPR-CPU speedup",
        "MeLoPPR-FPGA speedup",
        "BFS fraction",
        "Next-stage tasks",
    ]
    rows = []
    for dataset in study.datasets():
        for point in study.for_dataset(dataset):
            rows.append(
                [
                    point.dataset,
                    f"{point.ratio:.0%}",
                    f"{point.precision:.1%}",
                    format_ratio(point.cpu_speedup),
                    format_ratio(point.fpga_speedup),
                    f"{point.bfs_fraction:.0%}",
                    f"{point.mean_next_stage_tasks:.1f}",
                ]
            )
    title = (
        f"Fig. 7 — precision-latency trade-off (P={study.parallelism}, "
        f"{study.num_seeds} seeds per graph)"
    )
    return format_table(headers, rows, title=title)
