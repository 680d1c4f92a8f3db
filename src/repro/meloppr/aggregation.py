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
a whole stage wave — its balls in order, each ball's ids distinct — in one
call that ends in the same arrays and counters: the wave is sorted and looked
up in the table once, then each ball is folded as one vectorised chunk (see
:meth:`GlobalScoreTable._fold_overflow` for the rule and
:meth:`GlobalScoreTable._reentered` for its one exact settlement).
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


#: A ball meeting a full table is folded at most this many updates at a time:
#: the pairwise work of settling re-entries grows with the square of it (on
#: ``cold_wide``, flat from 512 to 768; 384 and 1024 ~4 % slower, 256 ~11 %).
_CHUNK = 512

#: A batch's ids are compared as the imaginary part of a complex key, exact
#: below this magnitude (a larger stored id still sorts above every smaller one).
_EXACT_IDS = 2**53


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
        (lowest,) = (self._values == self._values.min()).nonzero()
        at = lowest[np.argmax(self._ids[lowest])]
        victim, value = int(self._ids[at]), float(self._values[at])
        self._ids = np.delete(self._ids, at)
        self._values = np.delete(self._values, at)
        self._total_evictions += 1
        if not self._evictions_are_final:
            self._evicted[victim] = self._evicted.get(victim, 0.0) + value

    def add_many(
        self, nodes: Iterable[int], scores: Iterable[float], bounds: Optional[Iterable[int]] = None
    ) -> None:
        """Accumulate many ``(node, score)`` contributions, in order.

        Ends in exactly the state one :meth:`add` per pair would reach.
        ``bounds`` (offsets ``0 = b_0 <= b_1 <= ... = len(nodes)``) cuts the
        pairs into batches, such as a stage wave's balls: an id may recur in a
        later batch.  Raises ``ValueError`` (before folding anything) when the
        two inputs differ in length or ``bounds`` does not cover them.

        The batch rule needs finite non-negative scores, ids distinct within
        each batch and below ``2**53`` in magnitude, and evictions that are
        final; anything else goes one by one.  Otherwise the pairs are sorted
        and the stored ids looked up once for the whole call
        (``O(table + pairs)`` working memory, not ``O(num_nodes)``).  Batches are
        then folded in order: increments land in place and absent ids append
        until the table is full, and a batch meeting a full table is folded
        by :meth:`_fold_overflow`, chunk by chunk.  Within the call an evicted
        entry stays in place as a NaN tombstone, so no slot moves: an id a
        chunk appended is found at its slot by its next occurrence, and an id
        a chunk evicted is absent to the next one.  The tombstones are dropped
        at the end.
        """
        ids, values = _as_array(nodes, np.int64), _as_array(scores, np.float64)
        if ids.size != values.size:
            raise ValueError(
                f"nodes and scores must have equal length "
                f"({ids.size} != {values.size})"
            )
        offsets = [0, ids.size] if bounds is None else [int(bound) for bound in bounds]
        if not offsets or offsets[0] != 0 or offsets[-1] != ids.size or offsets != sorted(offsets):
            raise ValueError(f"bounds must rise from 0 to {ids.size}, got {offsets}")
        ends = np.asarray(offsets[1:])
        order = ids.argsort(kind="stable")
        ranked = ids[order]
        # Each repeated id's occurrence and its next one, in arrival order.
        (repeat,) = (ranked[1:] == ranked[:-1]).nonzero()
        first, then = order[repeat], order[repeat + 1]
        if (
            not self._evictions_are_final
            or not 0.0 <= values.min(initial=0.0) <= values.max(initial=0.0) < np.inf
            or np.count_nonzero(then < ends[ends.searchsorted(first, side="right")])
            or (ids.size and not -_EXACT_IDS < ranked[0] <= ranked[-1] < _EXACT_IDS)
        ):
            for node, score in zip(ids.tolist(), values.tolist()):
                self.add(node, score)
            return
        self._total_updates += ids.size
        fits = self._capacity is None or ids.size <= self._capacity
        if not self._ids.size and not first.size and fits:
            self._ids, self._values = ids.copy(), 0.0 + values  # nothing to look up
            return
        # Each pair's slot in the table (-1: absent), plus a sink at the end
        # for ids that do not recur.
        slot = np.full(ids.size + 1, -1)
        if self._ids.size and ids.size:
            where = np.minimum(ranked.searchsorted(self._ids), ids.size - 1)
            (stored,) = (ranked[where] == self._ids).nonzero()
            slot[order[where[stored]]] = stored
        later = np.full(ids.size, ids.size)
        later[first] = then
        room = ids.size if self._capacity is None else self._capacity - self._ids.size
        dead = False
        start = 0
        for end in offsets[1:]:
            while start < end:
                part = slot[start:end]
                if room:
                    # Nothing is evicted yet: append the absent ids, then add
                    # every score in place (a fresh entry from 0.0).
                    (new,) = (part < 0).nonzero()
                    stop = end if new.size <= room else start + new[room]
                    part, new = part[: stop - start], new[:room]
                    part[new] = self._ids.size + np.arange(new.size)
                    self._ids = np.concatenate((self._ids, ids[start:stop][new]))
                    self._values = np.concatenate((self._values, np.zeros(new.size)))
                    self._values[part] += values[start:stop]
                    room -= new.size
                else:
                    stop = min(end, start + _CHUNK)
                    chunk = ids[start:stop], values[start:stop], part[: stop - start]
                    dead = self._fold_overflow(*chunk) or dead
                if first.size:
                    slot[later[start:stop]] = slot[start:stop]  # the next occurrence's slot
                start = stop
        if dead:
            live = self._values == self._values
            self._ids, self._values = self._ids[live], self._values[live]

    def _fold_overflow(self, ids: np.ndarray, values: np.ndarray, slot: np.ndarray) -> bool:
        """Fold distinct non-negative updates into a *full* table at once.

        Keys only rise, so after every event the table is the top
        ``capacity`` of everything that has arrived, each under its current
        key.  Hence (i) an increment finds its node still stored iff fewer
        than ``capacity`` arrived keys exceed the node's old key at that
        moment; otherwise the node was evicted earlier in this chunk and
        re-enters from 0.0 as a fresh insertion; (ii) given those, the final
        table is the top ``capacity`` of the final keys, every insertion
        cost one eviction, survivors keep their slots' order and insertions
        append in batch order.  Only an increment whose old key is at or
        below the cut of (ii) taken without re-entries can have been evicted
        (below the ``(events+1)``-th smallest stored score when an old score
        is negative, since a fresh key then lands above the raised one):
        :meth:`_reentered` settles those exactly, once.  The evicted entries
        become NaN tombstones and ``slot`` is set to each insertion's slot;
        returns whether anything was evicted.
        """
        held = self._values
        old = held[slot]
        # An id whose slot holds a tombstone was evicted earlier in the call.
        inserts = (slot < 0) | np.isnan(old)
        evictions = np.count_nonzero(inserts)
        if not evictions:  # only increments: nothing leaves
            held[slot] += values
            return False
        rise = ~inserts
        at = slot[rise]
        # Every final key, the stored ones first; evict the smallest.
        keys = np.concatenate((held, 0.0 + values[inserts]))
        keys[at] += values[rise]
        cut = np.partition(keys, evictions - 1)[evictions - 1]
        lowest = old[rise].min(initial=np.inf)
        if lowest <= cut:
            limit = cut
            if lowest < 0 and ids.size < self._capacity:
                limit = np.partition(held, ids.size)[ids.size]
            elif lowest < 0:
                limit = np.inf
            (rows,) = (rise & (old <= limit)).nonzero()
            back = self._reentered(ids, values, slot, inserts, rows)
            if back.size:
                # The old key leaves first; the fresh one appends in batch order.
                inserts[back] = True
                evictions += back.size
                keys[slot[back]] = -np.inf
                keys = np.concatenate((keys[: held.size], 0.0 + values[inserts]))
                cut = np.partition(keys, evictions - 1)[evictions - 1]
        out = keys <= cut
        spare = np.count_nonzero(out) - evictions
        new_ids = np.concatenate((self._ids, ids[inserts]))
        if spare:  # the tie group at the cut keeps its smallest ids
            (tied,) = (keys == cut).nonzero()
            out[tied[new_ids[tied].argsort()[:spare]]] = False
        keys[out] = np.nan
        slot[inserts] = held.size + np.arange(evictions)
        self._ids, self._values = new_ids, keys
        self._total_evictions += evictions
        return True

    def _reentered(
        self,
        ids: np.ndarray,
        values: np.ndarray,
        slot: np.ndarray,
        inserts: np.ndarray,
        rows: np.ndarray,
    ) -> np.ndarray:
        """The increments at chunk positions ``rows`` whose node was evicted first.

        A key is ``(score, -node)``, here one complex number (numpy orders
        complex numbers by real part, then imaginary).  Increment ``u`` finds
        its node evicted iff the events before it lifted more keys from below
        its old key ``K`` to above it than there are stored keys below ``K``.
        One sort of the low stored keys ranks everything: the stored count is
        ``K``'s rank, and a key is above ``K`` iff its rank is higher.  Absent
        ids lift their fresh key, counted in arrival order; an earlier row
        ``w`` lifts its raised key, or its fresh key if ``w`` re-entered.
        Only that last term couples rows, through a rows × rows matrix: the
        answer assuming no re-entry is final for every row whose count does
        not depend on one, and the rest are settled in batch order in one
        pass.
        """
        held_ids, held = self._ids, self._values
        node, gain = ids[rows], values[rows]
        key = held[slot[rows]] - 1j * node
        low = held <= key.real.max()
        stored = np.sort(held[low] - 1j * held_ids[low])  # holds every row's key
        below = stored.searchsorted(key)[:, None]
        (absent,) = inserts.nonzero()
        lifted = stored.searchsorted(values[absent] - 1j * ids[absent]) > below
        passed = (lifted & (absent < rows[:, None])).sum(1)
        under = (below.T < below) & (rows < rows[:, None])  # w below u and before it
        rose = under & (stored.searchsorted(key + gain) > below)
        back = under & (stored.searchsorted(gain - 1j * node) > below)
        short = below[:, 0] + 1 - passed - rose.sum(1)
        settled = short <= 0
        mixed = rose != back
        if np.count_nonzero(mixed & settled):
            for u in mixed.any(axis=1).nonzero()[0].tolist():
                moved = np.count_nonzero(rose[u] & settled) - np.count_nonzero(back[u] & settled)
                settled[u] = short[u] + moved <= 0
        return rows[settled]

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
