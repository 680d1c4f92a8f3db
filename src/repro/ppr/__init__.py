"""PPR solvers and quality metrics (baselines + interfaces)."""

from repro.ppr.base import PPRQuery, PPRResult, PPRSolver
from repro.ppr.local_ppr import LocalPPRSolver
from repro.ppr.metrics import precision_at_k, result_precision
from repro.ppr.monte_carlo import MonteCarloSolver
from repro.ppr.networkx_baseline import NetworkXPPRSolver
from repro.ppr.power_iteration import PowerIterationSolver

__all__ = [
    "PPRQuery",
    "PPRResult",
    "PPRSolver",
    "LocalPPRSolver",
    "precision_at_k",
    "result_precision",
    "MonteCarloSolver",
    "NetworkXPPRSolver",
    "PowerIterationSolver",
]
