"""Experiment E4 — PPR-vector sparsity and precision vs selection ratio (Fig. 6).

Fig. 6 has two panels:

* **top** — average top-k precision as a function of the percentage of
  next-stage nodes selected for the second stage, averaged over random seeds
  on G1, G2 and G3.  The paper reports ~73.8 % precision at 1 %, 78.1 % at
  2 %, 85.2 % at 3 %, 96.1 % at 20 % and 96.9 % at 30 % — a steep rise
  followed by saturation;
* **bottom** — the distribution of normalised stage-one PPR scores in log
  scale, showing that more than 90 % of the nodes have near-zero scores while
  fewer than 1 % carry large scores.

This module computes both: the precision curve over a configurable ratio
sweep and a histogram of normalised residual scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.diffusion.diffusion import graph_diffusion, seed_vector
from repro.experiments.reporting import format_table
from repro.experiments.workloads import (
    PAPER_ALPHA,
    PAPER_K,
    PAPER_LENGTH,
    PAPER_STAGE_SPLIT,
    Workload,
    make_workload,
)
from repro.graph.bfs import extract_ego_subgraph
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.selection import RatioSelector
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.local_ppr import LocalPPRSolver
from repro.ppr.metrics import result_precision
from repro.utils.rng import RngLike

__all__ = [
    "SparsityCurvePoint",
    "ScoreDistribution",
    "SparsityStudy",
    "run_fig6",
    "format_fig6",
]

#: Selection ratios swept in the zoomed-in portion of Fig. 6 plus the tail.
PAPER_RATIOS: Tuple[float, ...] = (0.01, 0.02, 0.03, 0.05, 0.10, 0.20, 0.30)


@dataclass(frozen=True)
class SparsityCurvePoint:
    """Average precision at one selection ratio (one point of the top panel)."""

    ratio: float
    precision: float
    precision_per_dataset: Dict[str, float]
    mean_next_stage_tasks: float


@dataclass(frozen=True)
class ScoreDistribution:
    """Histogram of normalised stage-one residual scores (bottom panel).

    Attributes
    ----------
    bin_edges:
        Log10 bin edges of the normalised scores.
    counts:
        Node counts per bin, summed over all sampled seeds.
    near_zero_fraction:
        Fraction of nodes whose normalised score falls below
        ``near_zero_threshold`` — the paper reports more than 90 % of nodes
        carry near-zero scores.
    large_score_fraction:
        Fraction of nodes with normalised score above ``large_threshold`` —
        the paper reports less than 1 %.
    top_decile_mass_fraction:
        Fraction of the total residual mass held by the highest-scoring 10 %
        of nodes.  This is the property the next-stage selection exploits: a
        small subset of nodes carries most of the remaining probability mass.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    near_zero_fraction: float
    large_score_fraction: float
    top_decile_mass_fraction: float


@dataclass(frozen=True)
class SparsityStudy:
    """The full Fig. 6 reproduction."""

    datasets: Tuple[str, ...]
    num_seeds: int
    curve: Tuple[SparsityCurvePoint, ...]
    distribution: ScoreDistribution


def _residual_scores(workload: Workload, stage_length: int, alpha: float) -> np.ndarray:
    """Collect normalised stage-one residual scores over all workload seeds."""
    values: List[np.ndarray] = []
    for query in workload.queries:
        subgraph, _ = extract_ego_subgraph(workload.graph, query.seed, stage_length)
        initial = seed_vector(subgraph.num_nodes, subgraph.to_local(query.seed))
        result = graph_diffusion(subgraph.graph, initial, stage_length, alpha)
        residual = result.residual
        peak = residual.max()
        if peak > 0:
            values.append(residual / peak)
    if not values:
        return np.zeros(0)
    return np.concatenate(values)


def run_fig6(
    datasets: Sequence[str] = ("G1", "G2", "G3"),
    ratios: Sequence[float] = PAPER_RATIOS,
    num_seeds: int = 10,
    rng: RngLike = 13,
    near_zero_threshold: float = 0.05,
    large_threshold: float = 0.5,
    scale: Optional[float] = None,
) -> SparsityStudy:
    """Run the Fig. 6 precision-vs-ratio sweep and score-distribution study."""
    workloads = {
        dataset: make_workload(
            dataset,
            num_seeds=num_seeds,
            k=PAPER_K,
            length=PAPER_LENGTH,
            alpha=PAPER_ALPHA,
            rng=(int(rng) + index if isinstance(rng, int) else rng),
            scale=scale,
        )
        for index, dataset in enumerate(datasets)
    }

    # Ground truth (the exact single-stage local PPR) once per query.
    exact_results = {
        dataset: [LocalPPRSolver(w.graph).solve(q) for q in w.queries]
        for dataset, w in workloads.items()
    }

    curve: List[SparsityCurvePoint] = []
    for ratio in ratios:
        per_dataset: Dict[str, float] = {}
        task_counts: List[float] = []
        for dataset, workload in workloads.items():
            config = MeLoPPRConfig(
                stage_lengths=PAPER_STAGE_SPLIT,
                selector=RatioSelector(ratio),
                score_table_factor=10,
                track_memory=False,
            )
            solver = MeLoPPRSolver(workload.graph, config)
            precisions = []
            for query, exact in zip(workload.queries, exact_results[dataset]):
                approx = solver.solve(query)
                precisions.append(result_precision(approx, exact))
                task_counts.append(float(approx.metadata["num_next_stage_tasks"]))
            per_dataset[dataset] = float(np.mean(precisions))
        curve.append(
            SparsityCurvePoint(
                ratio=float(ratio),
                precision=float(np.mean(list(per_dataset.values()))),
                precision_per_dataset=per_dataset,
                mean_next_stage_tasks=float(np.mean(task_counts)),
            )
        )

    # Score distribution over the first dataset's stage-one residuals (the
    # paper's bottom panel uses one representative real-world graph).
    scores = np.concatenate(
        [
            _residual_scores(workload, PAPER_STAGE_SPLIT[0], PAPER_ALPHA)
            for workload in workloads.values()
        ]
    )
    positive = scores[scores > 0]
    if positive.size:
        log_scores = np.log10(positive)
        counts, bin_edges = np.histogram(log_scores, bins=20)
    else:
        counts, bin_edges = np.zeros(1, dtype=np.int64), np.zeros(2)
    near_zero = float(np.mean(scores < near_zero_threshold)) if scores.size else 0.0
    large = float(np.mean(scores > large_threshold)) if scores.size else 0.0
    if scores.size:
        ordered = np.sort(scores)[::-1]
        top_count = max(1, int(np.ceil(0.1 * ordered.size)))
        total_mass = ordered.sum()
        top_decile_mass = float(ordered[:top_count].sum() / total_mass) if total_mass > 0 else 0.0
    else:
        top_decile_mass = 0.0

    return SparsityStudy(
        datasets=tuple(datasets),
        num_seeds=num_seeds,
        curve=tuple(curve),
        distribution=ScoreDistribution(
            bin_edges=bin_edges,
            counts=counts,
            near_zero_fraction=near_zero,
            large_score_fraction=large,
            top_decile_mass_fraction=top_decile_mass,
        ),
    )


def format_fig6(study: SparsityStudy) -> str:
    """Render the precision curve and sparsity summary as text."""
    headers = ["Selection ratio", "Precision (avg)", *study.datasets, "Avg next-stage tasks"]
    rows = []
    for point in study.curve:
        rows.append(
            [
                f"{point.ratio:.0%}",
                f"{point.precision:.1%}",
                *[f"{point.precision_per_dataset[d]:.1%}" for d in study.datasets],
                f"{point.mean_next_stage_tasks:.1f}",
            ]
        )
    table = format_table(
        headers,
        rows,
        title=(
            f"Fig. 6 (top) — precision vs next-stage selection ratio "
            f"({study.num_seeds} seeds per graph)"
        ),
    )
    sparsity = (
        "Fig. 6 (bottom) — normalised residual score distribution: "
        f"{study.distribution.near_zero_fraction:.1%} of nodes near zero, "
        f"{study.distribution.large_score_fraction:.1%} with large scores, "
        f"top 10% of nodes hold {study.distribution.top_decile_mass_fraction:.1%} "
        "of the residual mass"
    )
    return table + "\n\n" + sparsity
