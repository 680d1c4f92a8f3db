"""Experiment E8 (ablation) — choice of the stage split ``L = l1 + l2 (+ ...)``.

The paper fixes ``l1 = l2 = 3`` and notes the decomposition extends to more
terms.  This ablation sweeps alternative splits of the same total length
(``(1,5)``, ``(2,4)``, ``(3,3)``, ``(4,2)``, ``(5,1)`` and the three-stage
``(2,2,2)``) and reports, for each:

* the top-k precision at a fixed selection ratio,
* the peak sub-graph size (the memory proxy — a large ``l1`` drags the
  stage-one sub-graph back towards ``G_L(s)``), and
* the total diffusion work.

The expected shape: balanced splits minimise the peak sub-graph size, while
very unbalanced splits either lose precision (small ``l1`` leaves most mass
un-diffused before selection) or lose the memory benefit (large ``l1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.reporting import format_table
from repro.experiments.workloads import (
    PAPER_ALPHA,
    PAPER_K,
    PAPER_LENGTH,
    make_workload,
)
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.selection import RatioSelector
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.local_ppr import LocalPPRSolver
from repro.ppr.metrics import result_precision
from repro.utils.rng import RngLike

__all__ = ["StageSplitRow", "StageSplitStudy", "run_stage_split_ablation", "format_stage_split"]

#: Splits of the paper's L = 6 compared by the ablation.
DEFAULT_SPLITS: Tuple[Tuple[int, ...], ...] = (
    (1, 5),
    (2, 4),
    (3, 3),
    (4, 2),
    (5, 1),
    (2, 2, 2),
)


@dataclass(frozen=True)
class StageSplitRow:
    """Outcome of one stage split."""

    stage_lengths: Tuple[int, ...]
    precision: float
    mean_peak_subgraph_nodes: float
    mean_total_tasks: float
    mean_elapsed_seconds: float


@dataclass(frozen=True)
class StageSplitStudy:
    """The full stage-split ablation."""

    dataset: str
    num_seeds: int
    selection_ratio: float
    rows: Tuple[StageSplitRow, ...]


def run_stage_split_ablation(
    dataset: str = "G2",
    splits: Sequence[Sequence[int]] = DEFAULT_SPLITS,
    num_seeds: int = 8,
    selection_ratio: float = 0.05,
    rng: RngLike = 31,
    scale: Optional[float] = None,
) -> StageSplitStudy:
    """Run the stage-split ablation on one dataset."""
    workload = make_workload(
        dataset,
        num_seeds=num_seeds,
        k=PAPER_K,
        length=PAPER_LENGTH,
        alpha=PAPER_ALPHA,
        rng=rng,
        scale=scale,
    )
    exact = [
        LocalPPRSolver(workload.graph, track_memory=False).solve(q)
        for q in workload.queries
    ]

    rows: List[StageSplitRow] = []
    for split in splits:
        split = tuple(int(length) for length in split)
        if sum(split) != PAPER_LENGTH:
            raise ValueError(
                f"split {split} does not sum to the paper's L={PAPER_LENGTH}"
            )
        config = MeLoPPRConfig(
            stage_lengths=split,
            selector=RatioSelector(selection_ratio),
            score_table_factor=10,
            track_memory=False,
        )
        solver = MeLoPPRSolver(workload.graph, config)
        precisions: List[float] = []
        peaks: List[float] = []
        tasks: List[float] = []
        elapsed: List[float] = []
        for query, reference in zip(workload.queries, exact):
            result = solver.solve(query)
            precisions.append(result_precision(result, reference))
            peaks.append(float(result.metadata["max_subgraph_nodes"]))
            tasks.append(float(result.metadata["num_tasks"]))
            elapsed.append(result.elapsed_seconds)
        rows.append(
            StageSplitRow(
                stage_lengths=split,
                precision=float(np.mean(precisions)),
                mean_peak_subgraph_nodes=float(np.mean(peaks)),
                mean_total_tasks=float(np.mean(tasks)),
                mean_elapsed_seconds=float(np.mean(elapsed)),
            )
        )
    return StageSplitStudy(
        dataset=dataset,
        num_seeds=num_seeds,
        selection_ratio=selection_ratio,
        rows=tuple(rows),
    )


def format_stage_split(study: StageSplitStudy) -> str:
    """Render the ablation as a text table."""
    headers = [
        "Split",
        "Precision",
        "Peak sub-graph |V|",
        "Tasks per query",
        "CPU time (ms)",
    ]
    rows = [
        [
            "+".join(str(length) for length in row.stage_lengths),
            f"{row.precision:.1%}",
            f"{row.mean_peak_subgraph_nodes:.0f}",
            f"{row.mean_total_tasks:.1f}",
            f"{row.mean_elapsed_seconds * 1e3:.2f}",
        ]
        for row in study.rows
    ]
    title = (
        f"Ablation — stage split choice on {study.dataset} "
        f"(ratio {study.selection_ratio:.0%}, {study.num_seeds} seeds)"
    )
    return format_table(headers, rows, title=title)
