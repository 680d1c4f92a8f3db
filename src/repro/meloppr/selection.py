"""Next-stage node selection strategies (the sparsity exploitation of Sec. IV-D).

After the stage-one diffusion, the residual vector ``S^r_l1`` tells how much
un-diffused probability mass sits at each node of ``G_l1(s)``.  Expanding
*all* of them recovers the exact length-``L`` diffusion but costs one BFS and
one diffusion per node; the paper observes that the residual vector is highly
sparse, so selecting only the largest-residual nodes retains most of the
precision at a fraction of the cost.

Three strategies are provided, and they are the only ones
:class:`~repro.meloppr.config.MeLoPPRConfig` accepts (each ``repr`` names
every parameter exactly, so it can key the serving layer's caches):

* :class:`RatioSelector` — the paper's knob: expand the top ``ratio`` fraction
  of candidate nodes (Fig. 6 sweeps this from 0 % to 30 %).
* :class:`CountSelector` — expand a fixed number of nodes.
* :class:`AllSelector` — expand everything (exact MeLoPPR; used by tests to
  verify the decomposition identity of Eq. 8).
"""

from __future__ import annotations

import abc
import math

import numpy as np

__all__ = [
    "NextStageSelector",
    "RatioSelector",
    "CountSelector",
    "AllSelector",
]


class NextStageSelector(abc.ABC):
    """Strategy deciding which next-stage nodes to expand.

    ``select`` receives the candidate nodes (global ids) and their residual
    scores and returns the chosen subset ordered by descending residual, which
    is the order the scheduler dispatches them to processing elements.

    The plan passes each candidate once, in ascending node order.  The answer
    — which nodes, in which order — must not depend on the input order: the
    built-ins order by residual, then by node id.
    """

    #: Short name used in experiment tables.
    name: str = "selector"

    @abc.abstractmethod
    def select(self, nodes: np.ndarray, residuals: np.ndarray) -> np.ndarray:
        """Return the selected node ids, ordered by descending residual."""

    @staticmethod
    def _order_by_residual(nodes: np.ndarray, residuals: np.ndarray) -> np.ndarray:
        """Order ``nodes`` by descending residual, ties broken by node id."""
        nodes = np.asarray(nodes, dtype=np.int64)
        residuals = np.asarray(residuals, dtype=np.float64)
        if nodes.shape != residuals.shape:
            raise ValueError("nodes and residuals must have the same shape")
        order = np.lexsort((nodes, -residuals))
        return nodes[order]

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RatioSelector(NextStageSelector):
    """Select the top ``ratio`` fraction of candidates (at least ``minimum``).

    Parameters
    ----------
    ratio:
        Fraction of the candidate set to expand, in ``[0, 1]``.  The paper's
        Fig. 6 shows ~80 % precision at 2 % and ~96 % at 20 %.
    minimum:
        Lower bound on the number of selected nodes whenever the candidate
        set is non-empty (defaults to 1 so stage two always runs).
    """

    name = "ratio"

    def __init__(self, ratio: float, minimum: int = 1) -> None:
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"ratio must be in [0, 1], got {ratio}")
        if minimum < 0:
            raise ValueError(f"minimum must be >= 0, got {minimum}")
        self.ratio = float(ratio)
        self.minimum = int(minimum)

    def select(self, nodes: np.ndarray, residuals: np.ndarray) -> np.ndarray:
        ordered = self._order_by_residual(nodes, residuals)
        if ordered.size == 0:
            return ordered
        count = int(math.ceil(self.ratio * ordered.size))
        count = max(count, min(self.minimum, ordered.size))
        return ordered[:count]

    def __repr__(self) -> str:
        return f"RatioSelector(ratio={self.ratio}, minimum={self.minimum})"


class CountSelector(NextStageSelector):
    """Select a fixed number of highest-residual candidates."""

    name = "count"

    def __init__(self, count: int) -> None:
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self.count = int(count)

    def select(self, nodes: np.ndarray, residuals: np.ndarray) -> np.ndarray:
        ordered = self._order_by_residual(nodes, residuals)
        return ordered[: self.count]

    def __repr__(self) -> str:
        return f"CountSelector(count={self.count})"


class AllSelector(NextStageSelector):
    """Select every candidate (exact multi-stage MeLoPPR)."""

    name = "all"

    def select(self, nodes: np.ndarray, residuals: np.ndarray) -> np.ndarray:
        return self._order_by_residual(nodes, residuals)
