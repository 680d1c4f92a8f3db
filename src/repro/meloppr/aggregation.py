"""Global score aggregation with a bounded top-``c*k`` table (Sec. V-B).

After every sub-graph diffusion, the accumulated scores must be folded into
the global PPR vector ``S_L`` (the summation of Eq. 8).  Keeping the whole
vector costs ``O(G_L(s))`` memory and, in the co-designed system, a
CPU↔FPGA transfer per diffusion.  Since only the top-``k`` ranking matters,
the paper keeps a fixed-size table of the ``c * k`` best scores in FPGA BRAM
("localized score aggregation").  The experiments show ``c >= 8`` loses less
than 0.2 % precision while ``c < 4`` loses more than 3 %; the paper settles on
``c = 10``.

:class:`GlobalScoreTable` implements that bounded table; an unbounded mode
(``capacity=None``) is provided for the pure-software solver and for
measuring the precision loss attributable to the bound (the E7 study).

The victim of an eviction is the entry with the smallest ``(score, -node)``
key.  Finding it is ``O(log capacity)``: a min-heap of lower bounds on every
stored entry's key, built the first time the table overflows, so a table
that never fills carries no heap at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.diffusion.sparse_vector import SparseScoreVector

__all__ = ["GlobalScoreTable", "ScoreTableSnapshot"]


@dataclass(frozen=True)
class ScoreTableSnapshot:
    """Immutable copy of a :class:`GlobalScoreTable`'s full state.

    Captures everything :meth:`GlobalScoreTable.from_snapshot` needs to
    rebuild a table that behaves **bit-identically** to the original from
    that point on: the stored and evicted entries *in insertion order* (the
    victim of an eviction depends only on the stored ``(score, node)`` pairs,
    but preserving order keeps the restored table indistinguishable), the
    capacity/eviction mode, and the bookkeeping counters.  The eviction heap
    is derived from the stored entries and is not part of a snapshot: the
    restored table rebuilds it if it ever overflows.  The serving layer caches
    these snapshots to resume multi-stage plans past their first stage
    (cross-query score-table reuse).
    """

    capacity: Optional[int]
    evictions_are_final: bool
    scores: Tuple[Tuple[int, float], ...]
    evicted: Tuple[Tuple[int, float], ...]
    total_updates: int
    total_evictions: int

    @property
    def num_entries(self) -> int:
        """Stored entries at snapshot time."""
        return len(self.scores)


class GlobalScoreTable:
    """Accumulates node scores, optionally bounded to the top ``capacity`` nodes.

    Parameters
    ----------
    capacity:
        Maximum number of entries kept (``c * k`` in the paper).  ``None``
        keeps every touched node.
    evictions_are_final:
        The hardware table cannot resurrect an evicted node: if a node is
        evicted and later receives more score, the earlier contribution is
        lost.  This models the BRAM table faithfully and is the source of the
        small precision loss measured in Sec. V-B.  Setting this to false
        gives an idealised table that remembers evicted totals (used to
        isolate the effect in the E7 study).
    """

    def __init__(
        self, capacity: Optional[int] = None, evictions_are_final: bool = True
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be > 0 or None, got {capacity}")
        self._capacity = capacity
        self._evictions_are_final = bool(evictions_are_final)
        self._scores: Dict[int, float] = {}
        self._evicted: Dict[int, float] = {}
        self._total_updates = 0
        self._total_evictions = 0
        # Min-heap of (score lower bound, -node), built at the first overflow.
        self._heap: Optional[List[Tuple[float, int]]] = None

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> Optional[int]:
        """Maximum number of entries kept (``None`` = unbounded)."""
        return self._capacity

    @property
    def num_entries(self) -> int:
        """Current number of stored entries."""
        return len(self._scores)

    @property
    def total_updates(self) -> int:
        """Number of score contributions accepted so far."""
        return self._total_updates

    @property
    def total_evictions(self) -> int:
        """Number of entries evicted due to the capacity bound."""
        return self._total_evictions

    # ------------------------------------------------------------------
    def add(self, node: int, score: float) -> None:
        """Accumulate ``score`` onto ``node``, evicting the minimum if full."""
        self._fold((int(node),), (score,))

    def add_many(self, nodes: Iterable[int], scores: Iterable[float]) -> None:
        """Accumulate many ``(node, score)`` contributions, in order.

        Raises ``ValueError`` (before folding anything) when the two inputs
        differ in length.
        """
        if isinstance(nodes, np.ndarray):
            nodes = nodes.astype(np.int64, copy=False).tolist()
        else:
            nodes = [int(node) for node in nodes]
        if isinstance(scores, np.ndarray):
            scores = scores.astype(np.float64, copy=False).tolist()
        else:
            scores = [float(score) for score in scores]
        if len(nodes) != len(scores):
            raise ValueError(
                f"nodes and scores must have equal length "
                f"({len(nodes)} != {len(scores)})"
            )
        self._fold(nodes, scores)

    def add_sparse(self, vector: SparseScoreVector, scale: float = 1.0) -> None:
        """Accumulate ``scale *`` every entry of a sparse vector."""
        for node, value in vector.items():
            self.add(node, scale * value)

    def _fold(self, nodes: Iterable[int], scores: Iterable[float]) -> None:
        """Accumulate paired Python-int nodes and scores; the one update loop.

        Heap invariant (once ``self._heap`` exists): every stored node has an
        entry ``(bound, -node)`` with ``bound <=`` its current score.  An
        insert or a decrease pushes the exact key; an increase leaves the old
        entry behind as a lower bound, corrected when it reaches the top.
        Entries of evicted nodes are dropped when they reach the top.
        """
        table = self._scores
        capacity = self._capacity
        heap = self._heap
        for node, score in zip(nodes, scores):
            self._total_updates += 1
            if node in table:
                value = table[node] + score
                table[node] = value
                if heap is not None and score < 0:
                    heappush(heap, (value, -node))
                    if len(heap) > 2 * capacity:
                        # Only decreases grow the heap (an insert's push is
                        # paid back by its eviction); the next overflow
                        # rebuilds it from the stored entries.
                        heap = self._heap = None
                continue
            previous = 0.0
            if not self._evictions_are_final:
                previous = self._evicted.pop(node, 0.0)
            value = previous + score
            table[node] = value
            if capacity is None or len(table) <= capacity:
                continue
            if heap is None:
                heap = self._heap = [(stored, -key) for key, stored in table.items()]
                heapify(heap)
            else:
                heappush(heap, (value, -node))
            self._evict_minimum(heap)

    def _evict_minimum(self, heap: List[Tuple[float, int]]) -> None:
        """Drop the entry with the smallest score (ties: largest node id)."""
        table = self._scores
        while True:
            bound, negated = heap[0]
            current = table.get(-negated)
            if current is None:  # left behind by an earlier eviction
                heappop(heap)
            elif current > bound:  # increased since it was pushed
                heapreplace(heap, (current, negated))
            else:
                break
        heappop(heap)
        victim = -negated
        value = table.pop(victim)
        self._total_evictions += 1
        if not self._evictions_are_final:
            self._evicted[victim] = self._evicted.get(victim, 0.0) + value

    # ------------------------------------------------------------------
    def snapshot(self) -> ScoreTableSnapshot:
        """Freeze the table's full state into a :class:`ScoreTableSnapshot`."""
        return ScoreTableSnapshot(
            capacity=self._capacity,
            evictions_are_final=self._evictions_are_final,
            scores=tuple(self._scores.items()),
            evicted=tuple(self._evicted.items()),
            total_updates=self._total_updates,
            total_evictions=self._total_evictions,
        )

    @classmethod
    def from_snapshot(cls, snapshot: ScoreTableSnapshot) -> "GlobalScoreTable":
        """Rebuild a table whose future behaviour is bit-identical.

        The restored table holds the same entries in the same insertion
        order, the same evicted-mass ledger and the same counters, so any
        sequence of :meth:`add` calls produces exactly the folds, evictions
        and final ranking the original table would have produced.
        """
        table = cls(
            capacity=snapshot.capacity,
            evictions_are_final=snapshot.evictions_are_final,
        )
        table._scores = dict(snapshot.scores)
        table._evicted = dict(snapshot.evicted)
        table._total_updates = snapshot.total_updates
        table._total_evictions = snapshot.total_evictions
        return table

    # ------------------------------------------------------------------
    def get(self, node: int, default: float = 0.0) -> float:
        """Current score of ``node`` (``default`` if not stored)."""
        return self._scores.get(int(node), default)

    def top_k(self, k: int) -> List[Tuple[int, float]]:
        """Top-``k`` (node, score) pairs, descending score, ties by node id."""
        if k <= 0:
            return []
        ordered = sorted(self._scores.items(), key=lambda item: (-item[1], item[0]))
        return ordered[:k]

    def top_k_nodes(self, k: int) -> List[int]:
        """Node ids of :meth:`top_k`."""
        return [node for node, _ in self.top_k(k)]

    def to_sparse_vector(self) -> SparseScoreVector:
        """Export the table as a :class:`SparseScoreVector`."""
        return SparseScoreVector(dict(self._scores))

    def nbytes(self) -> int:
        """Modelled storage: 4-byte node id + 4-byte score per entry.

        This matches the paper's 32-bit integer score representation on the
        FPGA (Sec. V-A).
        """
        return 8 * len(self._scores)

    def __len__(self) -> int:
        return len(self._scores)

    def __contains__(self, node: int) -> bool:
        return int(node) in self._scores

    def __repr__(self) -> str:
        bound = "unbounded" if self._capacity is None else f"capacity={self._capacity}"
        return f"GlobalScoreTable({bound}, num_entries={len(self._scores)})"
