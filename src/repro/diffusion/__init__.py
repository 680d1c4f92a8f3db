"""Diffusion substrate: the transition operator and graph-diffusion kernel."""

from repro.diffusion.diffusion import (
    DEFAULT_ALPHA,
    DiffusionResult,
    diffusion_work,
    graph_diffusion,
    seed_vector,
    stage_diffusion,
)
from repro.diffusion.sparse_vector import SparseScoreVector
from repro.diffusion.transition import TransitionOperator

__all__ = [
    "DEFAULT_ALPHA",
    "DiffusionResult",
    "diffusion_work",
    "graph_diffusion",
    "seed_vector",
    "stage_diffusion",
    "SparseScoreVector",
    "TransitionOperator",
]
