"""PPR solver interfaces, the single-stage local baseline and quality metrics."""

from repro.ppr.base import PPRQuery, PPRResult, PPRSolver
from repro.ppr.local_ppr import LocalPPRSolver
from repro.ppr.metrics import precision_at_k, result_precision

__all__ = [
    "PPRQuery",
    "PPRResult",
    "PPRSolver",
    "LocalPPRSolver",
    "precision_at_k",
    "result_precision",
]
