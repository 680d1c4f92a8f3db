"""Diffusion substrate: graph diffusion ``GD(l)(S0)`` and its kernels."""

from repro.diffusion.diffusion import (
    DEFAULT_ALPHA,
    DiffusionResult,
    graph_diffusion,
    seed_vector,
    stage_diffusion,
)
from repro.diffusion.sparse_vector import SparseScoreVector

__all__ = [
    "DEFAULT_ALPHA",
    "DiffusionResult",
    "graph_diffusion",
    "seed_vector",
    "stage_diffusion",
    "SparseScoreVector",
]
