"""A minimal sparse score vector keyed by node id.

The global PPR vector ``S_L`` is extremely sparse for local queries (Fig. 6
bottom: >90 % of entries are near zero), so the library carries score vectors
as parallel ``nodes`` / ``values`` NumPy arrays in insertion order instead of
dense vectors over the whole host graph.  This is also the structure the FPGA
implementation stores in its score tables.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["FrozenScoreVectorError", "SparseScoreVector", "top_k_pairs"]


class FrozenScoreVectorError(TypeError):
    """An in-place update was attempted on a frozen :class:`SparseScoreVector`."""


def top_k_pairs(nodes: np.ndarray, values: np.ndarray, k: int) -> List[Tuple[int, float]]:
    """The ``k`` best ``(node, score)`` pairs: descending score, ties by node id.

    A partition on score keeps every tie of the ``k``-th value, so only the
    survivors are ordered and the id tie-break stays exact.
    """
    if k <= 0:
        return []
    if k < nodes.size:
        kth = np.partition(values, nodes.size - k)[nodes.size - k]
        keep = np.flatnonzero(values >= kth)
        nodes, values = nodes[keep], values[keep]
    order = np.lexsort((nodes, -values))[:k]
    return list(zip(nodes[order].tolist(), values[order].tolist()))


class SparseScoreVector:
    """A sparse mapping from node id to floating-point score.

    The container supports the small set of operations the solvers need:
    accumulation (``add``), scaling, top-k selection and conversion to/from
    dense vectors.  Zero entries created by cancellation are kept until
    :meth:`prune` is called.  Whole-vector operations work on the arrays;
    point access (``add``, ``get``, ``in``) goes through a node -> position
    index built the first time it is needed.

    :meth:`freeze` turns the vector into a shareable constant: the serving
    layer hands one cached answer to any number of callers and threads, so
    ``add`` / ``scale`` / ``prune`` on a frozen vector raise
    :class:`FrozenScoreVectorError` instead of corrupting it for the rest.
    """

    __slots__ = ("_nodes", "_values", "_index", "_frozen", "__weakref__")

    def __init__(self, scores: Dict[int, float] | None = None) -> None:
        scores = scores or {}
        self._nodes = np.fromiter(scores.keys(), dtype=np.int64, count=len(scores))
        self._values = np.fromiter(scores.values(), dtype=np.float64, count=len(scores))
        self._index: Optional[Dict[int, int]] = None
        self._frozen = False

    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls, nodes: np.ndarray, values: np.ndarray, assume_unique: bool = False
    ) -> "SparseScoreVector":
        """Build from parallel ``nodes`` / ``values`` arrays.

        A node that repeats accumulates its values in input order; pass
        ``assume_unique=True`` to skip the check when ids are known distinct.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if nodes.shape != values.shape:
            raise ValueError("nodes and values must have the same shape")
        vector = cls()
        if assume_unique or np.unique(nodes).size == nodes.size:
            vector._nodes, vector._values = nodes.copy(), 0.0 + values
        else:
            for node, value in zip(nodes.tolist(), values.tolist()):
                vector.add(node, value)
        return vector

    @classmethod
    def from_dense(cls, dense: np.ndarray, tolerance: float = 0.0) -> "SparseScoreVector":
        """Build from a dense vector, keeping entries with ``|value| > tolerance``."""
        dense = np.asarray(dense, dtype=np.float64)
        (nonzero,) = np.nonzero(np.abs(dense) > tolerance)
        return cls.from_arrays(nonzero, dense[nonzero], assume_unique=True)

    def _positions(self) -> Dict[int, int]:
        if self._index is None:
            self._index = {node: at for at, node in enumerate(self._nodes.tolist())}
        return self._index

    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        """Whether :meth:`freeze` was called (in-place updates now raise)."""
        return self._frozen

    def freeze(self) -> "SparseScoreVector":
        """Make the vector read-only for good (idempotent); returns ``self``."""
        self._nodes.setflags(write=False)
        self._values.setflags(write=False)
        self._frozen = True
        return self

    def _check_mutable(self) -> None:
        if self._frozen:
            raise FrozenScoreVectorError(
                "this score vector is frozen (a cached answer shared between "
                "callers); build a new vector from its nodes() and values() "
                "before updating"
            )

    def add(self, node: int, value: float) -> None:
        """Accumulate ``value`` onto ``node``."""
        self._check_mutable()
        index = self._positions()
        at = index.get(node)
        if at is None:
            index[int(node)] = len(index)
            self._nodes = np.append(self._nodes, node)
            self._values = np.append(self._values, 0.0 + value)
        else:
            self._values[at] += value

    def scale(self, factor: float) -> None:
        """Multiply every entry by ``factor`` in place."""
        self._check_mutable()
        self._values *= factor

    def prune(self, tolerance: float = 0.0) -> None:
        """Drop entries with ``|value| <= tolerance``."""
        self._check_mutable()
        keep = np.abs(self._values) > tolerance
        self._nodes, self._values, self._index = self._nodes[keep], self._values[keep], None

    # ------------------------------------------------------------------
    def get(self, node: int, default: float = 0.0) -> float:
        """Score of ``node`` (``default`` when absent)."""
        at = self._positions().get(node)
        return default if at is None else float(self._values[at])

    def items(self) -> Iterable[Tuple[int, float]]:
        """Iterate over ``(node, score)`` pairs."""
        return zip(self._nodes.tolist(), self._values.tolist())

    def nodes(self) -> np.ndarray:
        """Array of nodes with stored entries."""
        return self._nodes.copy()

    def values(self) -> np.ndarray:
        """Array of stored scores, aligned with :meth:`nodes`."""
        return self._values.copy()

    def sum(self) -> float:
        """Sum of all stored scores."""
        return float(sum(self._values.tolist()))

    def top_k(self, k: int) -> list[Tuple[int, float]]:
        """Return the ``k`` highest-scoring ``(node, score)`` pairs.

        Ties are broken by ascending node id so results are deterministic.
        """
        return top_k_pairs(self._nodes, self._values, k)

    def top_k_nodes(self, k: int) -> list[int]:
        """Return only the node ids of :meth:`top_k`."""
        return [node for node, _ in self.top_k(k)]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._nodes.size
