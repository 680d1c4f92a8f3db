"""Experiment harness: one module per paper table/figure plus ablations."""

from repro.experiments.ablation_stage_split import (
    StageSplitRow,
    StageSplitStudy,
    format_stage_split,
    run_stage_split_ablation,
)
from repro.experiments.fig5_scalability import (
    ScalabilityPoint,
    ScalabilityStudy,
    format_fig5,
    run_fig5,
)
from repro.experiments.fig6_sparsity import (
    ScoreDistribution,
    SparsityCurvePoint,
    SparsityStudy,
    format_fig6,
    run_fig6,
)
from repro.experiments.fig7_tradeoff import (
    TradeoffPoint,
    TradeoffStudy,
    format_fig7,
    run_fig7,
)
from repro.experiments.harness import (
    PAPER_PROFILE,
    QUICK_PROFILE,
    ExperimentProfile,
    run_all,
)
from repro.experiments.quantization_study import (
    QuantizationRow,
    QuantizationStudy,
    format_quantization,
    run_quantization_study,
)
from repro.experiments.reporting import format_table
from repro.experiments.score_table_study import (
    ScoreTableRow,
    ScoreTableStudy,
    format_score_table,
    run_score_table_study,
)
from repro.experiments.table1_resources import (
    ResourceRow,
    ResourceStudy,
    format_table1,
    run_table1,
)
from repro.experiments.table2_memory import (
    MemoryRow,
    MemoryStudy,
    format_table2,
    run_table2,
)
from repro.experiments.workloads import (
    PAPER_K,
    PAPER_LENGTH,
    PAPER_STAGE_SPLIT,
    Workload,
    make_workload,
)

__all__ = [
    "StageSplitRow",
    "StageSplitStudy",
    "format_stage_split",
    "run_stage_split_ablation",
    "ScalabilityPoint",
    "ScalabilityStudy",
    "format_fig5",
    "run_fig5",
    "ScoreDistribution",
    "SparsityCurvePoint",
    "SparsityStudy",
    "format_fig6",
    "run_fig6",
    "TradeoffPoint",
    "TradeoffStudy",
    "format_fig7",
    "run_fig7",
    "PAPER_PROFILE",
    "QUICK_PROFILE",
    "ExperimentProfile",
    "run_all",
    "QuantizationRow",
    "QuantizationStudy",
    "format_quantization",
    "run_quantization_study",
    "format_table",
    "ScoreTableRow",
    "ScoreTableStudy",
    "format_score_table",
    "run_score_table_study",
    "ResourceRow",
    "ResourceStudy",
    "format_table1",
    "run_table1",
    "MemoryRow",
    "MemoryStudy",
    "format_table2",
    "run_table2",
    "PAPER_K",
    "PAPER_LENGTH",
    "PAPER_STAGE_SPLIT",
    "Workload",
    "make_workload",
]
