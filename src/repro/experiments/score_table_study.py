"""Experiment E7 — global score-table size study (Sec. V-B of the paper).

The global score table kept in FPGA BRAM holds only the top ``c * k`` scores.
The paper reports that ``c > 8`` costs less than 0.2 % precision while
``c < 4`` costs more than 3 %, and deploys ``c = 10``.

The study runs MeLoPPR with an unbounded score table (the reference) and with
bounded tables across a sweep of ``c`` values, reporting the precision loss
attributable purely to the bounded table.
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
    PAPER_STAGE_SPLIT,
    make_workload,
)
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.selection import RatioSelector
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.local_ppr import LocalPPRSolver
from repro.ppr.metrics import result_precision
from repro.utils.rng import RngLike

__all__ = ["ScoreTableRow", "ScoreTableStudy", "run_score_table_study", "format_score_table"]

#: Score-table size factors swept (the paper discusses c < 4, c > 8, c = 10).
PAPER_FACTORS: Tuple[int, ...] = (2, 4, 8, 10, 16)


@dataclass(frozen=True)
class ScoreTableRow:
    """Precision at one table-size factor ``c``."""

    factor: int
    precision: float
    precision_loss_vs_unbounded: float
    mean_evictions: float


@dataclass(frozen=True)
class ScoreTableStudy:
    """The full Sec. V-B sweep."""

    dataset: Tuple[str, ...]
    num_seeds: int
    selection_ratio: float
    unbounded_precision: float
    rows: Tuple[ScoreTableRow, ...]

    def loss_at(self, factor: int) -> float:
        """Precision loss at a given ``c`` (raises if not swept)."""
        for row in self.rows:
            if row.factor == factor:
                return row.precision_loss_vs_unbounded
        raise KeyError(f"factor {factor} not part of the study")


def run_score_table_study(
    datasets: Sequence[str] = ("G1", "G2"),
    factors: Sequence[int] = PAPER_FACTORS,
    num_seeds: int = 8,
    selection_ratio: float = 0.05,
    rng: RngLike = 29,
    scale: Optional[float] = None,
) -> ScoreTableStudy:
    """Run the bounded-score-table precision study of Sec. V-B."""
    workloads = [
        make_workload(
            dataset,
            num_seeds=num_seeds,
            k=PAPER_K,
            length=PAPER_LENGTH,
            alpha=PAPER_ALPHA,
            rng=(int(rng) + index if isinstance(rng, int) else rng),
            scale=scale,
        )
        for index, dataset in enumerate(datasets)
    ]
    exact_results = [
        [LocalPPRSolver(w.graph, track_memory=False).solve(q) for q in w.queries]
        for w in workloads
    ]

    def _run_with_factor(factor: Optional[int]) -> Tuple[float, float]:
        precisions: List[float] = []
        evictions: List[float] = []
        for workload, exacts in zip(workloads, exact_results):
            config = MeLoPPRConfig(
                stage_lengths=PAPER_STAGE_SPLIT,
                selector=RatioSelector(selection_ratio),
                score_table_factor=factor,
                track_memory=False,
            )
            solver = MeLoPPRSolver(workload.graph, config)
            for query, exact in zip(workload.queries, exacts):
                result = solver.solve(query)
                precisions.append(result_precision(result, exact))
                evictions.append(float(result.metadata["score_table_evictions"]))
        return float(np.mean(precisions)), float(np.mean(evictions))

    unbounded_precision, _ = _run_with_factor(None)

    rows = []
    for factor in factors:
        precision, mean_evictions = _run_with_factor(int(factor))
        rows.append(
            ScoreTableRow(
                factor=int(factor),
                precision=precision,
                precision_loss_vs_unbounded=max(0.0, unbounded_precision - precision),
                mean_evictions=mean_evictions,
            )
        )
    return ScoreTableStudy(
        dataset=tuple(datasets),
        num_seeds=num_seeds,
        selection_ratio=selection_ratio,
        unbounded_precision=unbounded_precision,
        rows=tuple(rows),
    )


def format_score_table(study: ScoreTableStudy) -> str:
    """Render the study as a text table."""
    headers = ["c (table = c*k)", "Precision", "Loss vs unbounded", "Mean evictions"]
    rows = [
        [
            row.factor,
            f"{row.precision:.1%}",
            f"{row.precision_loss_vs_unbounded:.2%}",
            f"{row.mean_evictions:.0f}",
        ]
        for row in study.rows
    ]
    title = (
        f"Sec. V-B — global score-table size study "
        f"(unbounded precision {study.unbounded_precision:.1%}, "
        f"{study.num_seeds} seeds per graph)"
    )
    return format_table(headers, rows, title=title)
