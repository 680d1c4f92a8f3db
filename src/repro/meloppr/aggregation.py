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

Like the BRAM table, the state is two parallel arrays — node ids and scores,
in insertion order — and nothing else.  A full table that receives an absent
node evicts the entry with the smallest ``(score, -node)`` key.  The scalar
:meth:`GlobalScoreTable.add` does that one update at a time (victim by
``argmin``) and is the specification; :meth:`GlobalScoreTable.add_many` folds
a whole sub-graph in one vectorised pass that ends in the same arrays and
counters (see :meth:`GlobalScoreTable._fold_overflow` for the rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.diffusion.sparse_vector import SparseScoreVector, top_k_pairs

__all__ = ["GlobalScoreTable", "ScoreTableSnapshot"]


@dataclass(frozen=True, eq=False)
class ScoreTableSnapshot:
    """Immutable copy of a :class:`GlobalScoreTable`'s full state.

    Everything :meth:`GlobalScoreTable.from_snapshot` needs to rebuild a
    table that behaves **bit-identically** from that point on: the stored
    ``ids`` / ``scores`` arrays and the evicted ledger *in insertion order*,
    the capacity/eviction mode and the counters.  The arrays are private
    read-only copies, so one snapshot can resume plans on any number of
    threads; two snapshots are equal when ids, score bits, order, ledger and
    counters all match.  The serving layer caches these to resume multi-stage
    plans past their first stage (cross-query score-table reuse).
    """

    capacity: Optional[int]
    evictions_are_final: bool
    ids: np.ndarray
    scores: np.ndarray
    evicted: Tuple[Tuple[int, float], ...]
    total_updates: int
    total_evictions: int

    def __post_init__(self) -> None:
        for name, dtype in (("ids", np.int64), ("scores", np.float64)):
            frozen = np.array(getattr(self, name), dtype=dtype)
            frozen.setflags(write=False)
            object.__setattr__(self, name, frozen)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreTableSnapshot):
            return NotImplemented
        return self._identity() == other._identity()

    def _identity(self) -> tuple:
        return (
            self.capacity, self.evictions_are_final, self.ids.tobytes(),
            self.scores.tobytes(), self.evicted, self.total_updates, self.total_evictions,
        )

    @property
    def num_entries(self) -> int:
        """Stored entries at snapshot time."""
        return self.ids.size


#: Overflowing updates are folded this many at a time: the pairwise work of
#: settling re-entries grows with the square of it (flat from 384 to 768).
_CHUNK = 512


def _outranks(score, node, than_score, than_node):
    """Whether key ``(score, -node)`` is above ``(than_score, -than_node)``."""
    return (score > than_score) | ((score == than_score) & (node < than_node))


def _as_array(items: Iterable, dtype: type) -> np.ndarray:
    if isinstance(items, np.ndarray):
        return items.astype(dtype, copy=False)
    return np.fromiter(items, dtype=dtype)


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
        self._ids = np.empty(0, dtype=np.int64)  # insertion order
        self._values = np.empty(0, dtype=np.float64)  # aligned with _ids
        self._evicted: Dict[int, float] = {}
        self._total_updates = 0
        self._total_evictions = 0

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> Optional[int]:
        """Maximum number of entries kept (``None`` = unbounded)."""
        return self._capacity

    @property
    def num_entries(self) -> int:
        """Current number of stored entries."""
        return self._ids.size

    @property
    def total_updates(self) -> int:
        """Number of score contributions accepted so far."""
        return self._total_updates

    @property
    def total_evictions(self) -> int:
        """Number of entries evicted due to the capacity bound."""
        return self._total_evictions

    # ------------------------------------------------------------------
    def _slot(self, node: int) -> int:
        """Position of ``node`` in the arrays, -1 when it is not stored."""
        match = self._ids == node
        at = int(match.argmax()) if match.size else 0
        return at if match.size and match[at] else -1

    def add(self, node: int, score: float) -> None:
        """Accumulate ``score`` onto ``node``, evicting the minimum if full."""
        node = int(node)
        self._total_updates += 1
        at = self._slot(node)
        if at >= 0:
            self._values[at] += score
            return
        previous = 0.0
        if not self._evictions_are_final:
            previous = self._evicted.pop(node, 0.0)
        self._ids = np.append(self._ids, node)
        self._values = np.append(self._values, previous + score)
        if self._capacity is None or self._ids.size <= self._capacity:
            return
        # Drop the entry with the smallest score (ties: largest node id).
        lowest = np.flatnonzero(self._values == self._values.min())
        at = lowest[np.argmax(self._ids[lowest])]
        victim, value = int(self._ids[at]), float(self._values[at])
        self._ids = np.delete(self._ids, at)
        self._values = np.delete(self._values, at)
        self._total_evictions += 1
        if not self._evictions_are_final:
            self._evicted[victim] = self._evicted.get(victim, 0.0) + value

    def add_many(self, nodes: Iterable[int], scores: Iterable[float]) -> None:
        """Accumulate many ``(node, score)`` contributions, in order.

        Ends in exactly the state one :meth:`add` per pair would reach.
        Raises ``ValueError`` (before folding anything) when the two inputs
        differ in length.
        """
        ids, values = _as_array(nodes, np.int64), _as_array(scores, np.float64)
        if ids.size != values.size:
            raise ValueError(
                f"nodes and scores must have equal length "
                f"({ids.size} != {values.size})"
            )
        order = np.argsort(ids, kind="stable")
        ranked = ids[order]
        if (
            not self._evictions_are_final
            or np.count_nonzero(values < 0)
            or np.count_nonzero(ranked[1:] == ranked[:-1])
        ):
            # The batch rule needs distinct ids whose keys only rise and
            # evictions that are final; anything else goes one by one.
            for node, score in zip(ids.tolist(), values.tolist()):
                self.add(node, score)
            return
        self._total_updates += ids.size
        if not self._ids.size and (self._capacity is None or ids.size <= self._capacity):
            self._ids, self._values = ids.copy(), 0.0 + values  # nothing to look up
            return
        if not ids.size:
            return
        # Which stored ids the batch hits, by searching them in the sorted
        # batch: O(table) scratch, not O(num_nodes).
        where = np.minimum(np.searchsorted(ranked, self._ids), ids.size - 1)
        (stored,) = (ranked[where] == self._ids).nonzero()
        hits = order[where[stored]]
        fresh = np.ones(ids.size, dtype=bool)
        fresh[hits] = False
        # Until the table is full nothing is evicted: increments land in
        # place and absent ids append.  The rest meets a full table.
        cut = ids.size
        if self._capacity is not None:
            room = self._capacity - self._ids.size
            if np.count_nonzero(fresh) > room:
                cut = fresh.nonzero()[0][room]
        early = hits < cut
        self._values[stored[early]] += values[hits[early]]
        self._ids = np.concatenate((self._ids, ids[:cut][fresh[:cut]]))
        self._values = np.concatenate((self._values, 0.0 + values[:cut][fresh[:cut]]))
        if cut < ids.size:
            slot = np.full(ids.size, -1)
            slot[hits] = stored
            for start in range(cut, ids.size, _CHUNK):
                stop = start + _CHUNK
                keep = self._fold_overflow(ids[start:stop], values[start:stop], slot[start:stop])
                if stop < ids.size:
                    # Survivors moved up; a node this chunk evicted is absent to the next.
                    moved = np.where(keep, np.cumsum(keep) - 1, -1)
                    slot[stop:] = np.where(slot[stop:] >= 0, moved[slot[stop:]], -1)

    def _fold_overflow(self, ids: np.ndarray, values: np.ndarray, slot: np.ndarray) -> np.ndarray:
        """Fold distinct non-negative updates into a *full* table at once.

        Keys only rise, so after every event the table is the top
        ``capacity`` of everything that has arrived, each under its current
        key.  Hence (i) an increment finds its node still stored iff fewer
        than ``capacity`` arrived keys exceed the node's old key at that
        moment; otherwise the node was evicted earlier in this batch and
        re-enters from 0.0 as a fresh insertion; (ii) given those, the final
        table is the top ``capacity`` of the final keys, every insertion
        cost one eviction, survivors keep their slots' order and insertions
        append in batch order.  Returns which of the old slots survived.
        """
        held_ids, held = self._ids, self._values
        inserts = slot < 0
        evictions = np.count_nonzero(inserts)  # of final keys; a re-entry also evicts its old one
        keep = np.ones(held.size, dtype=bool)
        if not evictions:  # only increments: nothing leaves
            held[slot] += values
            return keep
        # Each event lifts at most one key past a stored one, so the
        # (events+1)-th smallest stored score bounds the final threshold:
        # only scores at or below it can be evicted or need exact ranking.
        bound = np.partition(held, ids.size)[ids.size] if ids.size < held.size else np.inf
        (doubt,) = (~inserts & (held[slot] <= bound)).nonzero()
        grown = held.copy()
        grown[slot[~inserts]] += values[~inserts]
        old = held[slot[doubt]]
        while True:
            # Evict the smallest final keys: a partition on score, then the
            # largest ids of the tie group it cuts.
            new_ids, new = ids[inserts], 0.0 + values[inserts]
            (low,), (new_low,) = (keep & (grown <= bound)).nonzero(), (new <= bound).nonzero()
            scores = np.concatenate((grown[low], new[new_low]))
            cut = np.partition(scores, evictions - 1)[evictions - 1]
            if not doubt.size or old.min() > cut:
                break
            # An old score at or below the cut may have been evicted before
            # its increment arrived: settle those exactly, once, and if any
            # was, select again without its slot.  (A fresh key 0.0 + x is
            # below the raised key only from old >= 0.)
            (rows,) = (old <= (cut if old.min() >= 0 else bound)).nonzero()
            back = doubt[self._reentered(ids, values, slot, doubt, rows, bound)]
            doubt = doubt[:0]
            if not back.size:
                break
            inserts[back] = True
            keep[slot[back]] = False
        out = scores < cut
        (tied,) = (scores == cut).nonzero()
        spare = tied.size + np.count_nonzero(out) - evictions
        if spare:
            nodes = np.concatenate((held_ids[low], new_ids[new_low]))[tied]
            tied = tied[np.argsort(nodes)[spare:]]
        out[tied] = True
        keep[low[out[: low.size]]] = False
        new_keep = np.ones(new.size, dtype=bool)
        new_keep[new_low[out[low.size :]]] = False
        self._ids = np.concatenate((held_ids[keep], new_ids[new_keep]))
        self._values = np.concatenate((grown[keep], new[new_keep]))
        self._total_evictions += int(np.count_nonzero(inserts))
        return keep

    def _reentered(self, ids, values, slot, doubt, rows, bound) -> np.ndarray:
        """Which of the ``doubt`` increments find their node already evicted.

        Only ``doubt[rows]`` are in question.  Row ``q`` counts the arrived
        keys above increment ``q``'s old key: stored ones, absent ids inserted
        before it, and earlier doubtful increments ``w`` — one that rose past
        it if ``w`` was still stored, its fresh key if ``w`` re-entered.  Each
        answer depends only on earlier ones, so iterating settles them in
        batch order.
        """
        held_ids, held = self._ids, self._values
        at, count = slot[doubt], doubt.size
        (low,), (absent,) = (held <= bound).nonzero(), (slot < 0).nonzero()
        # One column per key: stored at or below the bound, absent ids, then
        # every doubtful increment's raised key and its fresh key.
        scores = np.concatenate(
            (held[low], 0.0 + values[absent], held[at] + values[doubt], 0.0 + values[doubt])
        )
        nodes = np.concatenate((held_ids[low], ids[absent], ids[doubt], ids[doubt]))
        arrival = np.concatenate((np.full(low.size, -1), absent, doubt, doubt))
        above = _outranks(scores, nodes, held[at[rows]][:, None], held_ids[at[rows]][:, None])
        above &= arrival < doubt[rows][:, None]
        fixed = held.size - low.size + np.count_nonzero(above[:, : -2 * count], axis=1)
        rose = above[:, -2 * count : -count] & ~above[:, np.searchsorted(low, at)]
        back = above[:, -count:]
        reentered = np.zeros(count, dtype=bool)
        for _ in rows:  # the i-th row is final after i + 1 rounds
            moving = np.count_nonzero(np.where(reentered, back, rose), axis=1)
            settled = fixed + moving >= held.size
            if np.array_equal(settled, reentered[rows]):
                break
            reentered[rows] = settled
        return reentered

    # ------------------------------------------------------------------
    def snapshot(self) -> ScoreTableSnapshot:
        """Freeze the table's full state into a :class:`ScoreTableSnapshot`."""
        return ScoreTableSnapshot(
            capacity=self._capacity,
            evictions_are_final=self._evictions_are_final,
            ids=self._ids,
            scores=self._values,
            evicted=tuple(self._evicted.items()),
            total_updates=self._total_updates,
            total_evictions=self._total_evictions,
        )

    @classmethod
    def from_snapshot(cls, snapshot: ScoreTableSnapshot) -> "GlobalScoreTable":
        """Rebuild a table whose future behaviour is bit-identical.

        The restored table holds private copies of the same entries in the
        same insertion order, the same evicted-mass ledger and the same
        counters, so any sequence of :meth:`add` calls produces exactly the
        folds, evictions and final ranking the original table would have
        produced.
        """
        table = cls(
            capacity=snapshot.capacity,
            evictions_are_final=snapshot.evictions_are_final,
        )
        table._ids = snapshot.ids.copy()
        table._values = snapshot.scores.copy()
        table._evicted = dict(snapshot.evicted)
        table._total_updates = snapshot.total_updates
        table._total_evictions = snapshot.total_evictions
        return table

    # ------------------------------------------------------------------
    def get(self, node: int, default: float = 0.0) -> float:
        """Current score of ``node`` (``default`` if not stored)."""
        at = self._slot(int(node))
        return float(self._values[at]) if at >= 0 else default

    def top_k(self, k: int) -> List[Tuple[int, float]]:
        """Top-``k`` (node, score) pairs, descending score, ties by node id."""
        return top_k_pairs(self._ids, self._values, k)

    def top_k_nodes(self, k: int) -> List[int]:
        """Node ids of :meth:`top_k`."""
        return [node for node, _ in self.top_k(k)]

    def to_sparse_vector(self) -> SparseScoreVector:
        """Export the table as a :class:`SparseScoreVector`."""
        return SparseScoreVector.from_arrays(self._ids, self._values, assume_unique=True)

    def nbytes(self) -> int:
        """Modelled storage: 4-byte node id + 4-byte score per entry.

        This matches the paper's 32-bit integer score representation on the
        FPGA (Sec. V-A).
        """
        return 8 * self._ids.size

    def __len__(self) -> int:
        return self._ids.size

    def __contains__(self, node: int) -> bool:
        return self._slot(int(node)) >= 0

    def __repr__(self) -> str:
        bound = "unbounded" if self._capacity is None else f"capacity={self._capacity}"
        return f"GlobalScoreTable({bound}, num_entries={self._ids.size})"
