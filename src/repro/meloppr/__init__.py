"""MeLoPPR core: stage/linear decomposition, selection, aggregation, solver."""

from repro.meloppr.aggregation import GlobalScoreTable
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.fixed_point import (
    FixedPointDiffusionResult,
    FixedPointFormat,
    fixed_point_diffusion,
    quantize_alpha,
)
from repro.meloppr.linear import (
    ResidualComponent,
    linear_decomposed_diffusion,
    split_residual,
)
from repro.meloppr.selection import (
    AllSelector,
    CountSelector,
    NextStageSelector,
    RatioSelector,
)
from repro.meloppr.planner import (
    MeLoPPRPlan,
    StageTask,
    StageTaskOutcome,
    StageWaveOutcome,
    execute_plan,
    execute_stage,
    execute_stage_per_ball,
    execute_stage_task,
)
from repro.meloppr.solver import MeLoPPRSolver, StageTaskRecord
from repro.meloppr.stage import (
    StagePlan,
    multi_stage_diffusion,
    split_length,
    stage_weights,
    two_stage_diffusion,
)

__all__ = [
    "GlobalScoreTable",
    "MeLoPPRConfig",
    "FixedPointDiffusionResult",
    "FixedPointFormat",
    "fixed_point_diffusion",
    "quantize_alpha",
    "ResidualComponent",
    "linear_decomposed_diffusion",
    "split_residual",
    "AllSelector",
    "CountSelector",
    "NextStageSelector",
    "RatioSelector",
    "MeLoPPRPlan",
    "StageTask",
    "StageTaskOutcome",
    "StageWaveOutcome",
    "execute_plan",
    "execute_stage",
    "execute_stage_per_ball",
    "execute_stage_task",
    "MeLoPPRSolver",
    "StageTaskRecord",
    "StagePlan",
    "multi_stage_diffusion",
    "split_length",
    "stage_weights",
    "two_stage_diffusion",
]
