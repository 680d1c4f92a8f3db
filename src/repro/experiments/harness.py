"""One-stop experiment harness: run every paper artefact and print its table.

``python -m repro.experiments.harness`` regenerates all
tables and figures of the paper in text form — the per-experiment modules do
the work; this module only sequences them and collects their reports.  The
``quick`` profile keeps seed counts small so the whole sweep finishes in a few
minutes; the ``paper`` profile uses seed counts closer to the paper's
averaging.
"""

from __future__ import annotations

import argparse
from typing import Callable, List, Optional, Tuple

from repro.experiments.ablation_stage_split import format_stage_split, run_stage_split_ablation
from repro.experiments.fig5_scalability import format_fig5, run_fig5
from repro.experiments.fig6_sparsity import format_fig6, run_fig6
from repro.experiments.fig7_tradeoff import format_fig7, run_fig7
from repro.experiments.profiles import PAPER_PROFILE, QUICK_PROFILE, ExperimentProfile
from repro.experiments.quantization_study import format_quantization, run_quantization_study
from repro.experiments.score_table_study import format_score_table, run_score_table_study
from repro.experiments.soak_study import format_soak, run_soak_study
from repro.experiments.table1_resources import format_table1, run_table1
from repro.experiments.table2_memory import format_table2, run_table2

__all__ = ["ExperimentProfile", "QUICK_PROFILE", "PAPER_PROFILE", "EXPERIMENTS", "main"]


#: Every experiment in report order: ``(experiment id, profile -> rendered table)``.
EXPERIMENTS: Tuple[Tuple[str, Callable[[ExperimentProfile], str]], ...] = (
    ("E1_fig5", lambda p: format_fig5(run_fig5(num_seeds=p.num_seeds_small))),
    ("E2_table1", lambda p: format_table1(run_table1())),
    (
        "E3_table2",
        lambda p: format_table2(run_table2(p.memory_datasets, num_seeds=p.num_seeds_large)),
    ),
    ("E4_fig6", lambda p: format_fig6(run_fig6(num_seeds=p.num_seeds_small))),
    (
        "E5_fig7",
        lambda p: format_fig7(run_fig7(p.tradeoff_datasets, num_seeds=p.num_seeds_large)),
    ),
    (
        "E6_quantization",
        lambda p: format_quantization(run_quantization_study(num_seeds=p.num_seeds_small)),
    ),
    (
        "E7_score_table",
        lambda p: format_score_table(run_score_table_study(num_seeds=p.num_seeds_small)),
    ),
    (
        "E8_stage_split",
        lambda p: format_stage_split(run_stage_split_ablation(num_seeds=p.num_seeds_small)),
    ),
    (
        "E15_soak",
        lambda p: format_soak(
            run_soak_study(
                num_seeds=p.num_seeds_small,
                num_arrivals=12 * p.num_seeds_small,
                multipliers=(0.5, 1.0, 10.0) if p.name == "quick" else (0.5, 1.0, 2.0, 10.0),
            )
        ),
    ),
)


def main(argv: Optional[List[str]] = None) -> int:
    """Command-line entry point: run the selected experiments, print their tables."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--profile",
        choices=("quick", "paper"),
        default="quick",
        help="seed-count profile (quick keeps runtimes to a few minutes)",
    )
    parser.add_argument(
        "--only",
        default=None,
        help="run only the experiments whose id contains this substring",
    )
    args = parser.parse_args(argv)
    profile = QUICK_PROFILE if args.profile == "quick" else PAPER_PROFILE

    for experiment_id, run in EXPERIMENTS:
        if args.only and args.only not in experiment_id:
            continue
        print(f"\n{'=' * 78}\n{experiment_id}\n{'=' * 78}")
        print(run(profile))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI only
    raise SystemExit(main())
