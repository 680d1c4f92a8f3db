"""A minimal sparse score vector keyed by node id.

The global PPR vector ``S_L`` is extremely sparse for local queries (Fig. 6
bottom: >90 % of entries are near zero), so the library carries score vectors
as parallel ``nodes`` / ``values`` NumPy arrays in insertion order instead of
dense vectors over the whole host graph.  This is also the structure the FPGA
implementation stores in its score tables.  An answer is a read-only top-k,
so a vector is a value: built once, never changed.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

__all__ = ["SparseScoreVector", "top_k_pairs"]


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
    """An immutable sparse mapping from node id to floating-point score.

    Built once from parallel ``nodes`` / ``values`` sequences whose ids are
    distinct (the caller's guarantee: a score table or a sub-graph's id map
    holds each node once).  Only the nonzero entries are kept, in input
    order, and both arrays are read-only, so an answer can be shared by any
    number of callers and threads and memoised by identity.  There is no
    method that changes a vector; build a new one instead.
    """

    __slots__ = ("_nodes", "_values", "__weakref__")

    def __init__(self, nodes, values) -> None:
        nodes = np.asarray(nodes, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if nodes.shape != values.shape:
            raise ValueError("nodes and values must have the same shape")
        keep = np.abs(values) > 0.0
        self._nodes, self._values = nodes[keep], values[keep]
        self._nodes.setflags(write=False)
        self._values.setflags(write=False)

    def items(self) -> Iterable[Tuple[int, float]]:
        """Iterate over ``(node, score)`` pairs."""
        return zip(self._nodes.tolist(), self._values.tolist())

    def nodes(self) -> np.ndarray:
        """Read-only array of the nodes with stored entries."""
        return self._nodes

    def values(self) -> np.ndarray:
        """Read-only array of stored scores, aligned with :meth:`nodes`."""
        return self._values

    def top_k(self, k: int) -> list[Tuple[int, float]]:
        """Return the ``k`` highest-scoring ``(node, score)`` pairs.

        Ties are broken by ascending node id so results are deterministic.
        """
        return top_k_pairs(self._nodes, self._values, k)

    def top_k_nodes(self, k: int) -> list[int]:
        """Return only the node ids of :meth:`top_k`."""
        return [node for node, _ in self.top_k(k)]

    def __len__(self) -> int:
        return self._nodes.size
