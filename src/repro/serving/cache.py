"""Byte-budgeted LRU cache of extracted ego balls.

Every MeLoPPR stage task starts with a depth-``l`` BFS extraction, and across
a batch of queries the same ego balls recur constantly: hot seeds are
queried repeatedly, and popular high-degree nodes are selected as next-stage
centres by many different queries.  The extraction is deterministic — a ball
only depends on ``(center, depth)`` and the host graph — so a cache can hand
the same ball to every task that needs it.

:class:`SubgraphCache` keys entries by ``(center, depth)`` and keeps each
ball in the form the wave executor diffuses: a one-ball
:class:`~repro.graph.bfs.EgoWave` in ball-local ids (its push-form entries,
degrees, global ids, levels and BFS count), whose frozen arrays are shared
by every thread that is served it.  It bounds the total retained bytes of
those arrays and evicts in least-recently-used order.  Hit / miss /
eviction counts are exposed via :attr:`SubgraphCache.stats` and surfaced by
the serving engine in ``PPRResult.metadata`` and its throughput reports.

The cache is thread-safe: bookkeeping is guarded by a lock, while the BFS
extraction itself runs outside it so concurrent misses do not serialise each
other.  Two threads missing on the same key may both extract; the second
insert simply replaces the first with an identical entry, which is harmless
because extraction is deterministic.

What it shares with the stage-one result cache
(:class:`~repro.serving.result_cache.ScoreTableCache`) lives in one base:
byte-charged entries in LRU order under one lock, a binding to the graph they
serve, and one path by which entries come and go, which keeps the bytes and a
**centre index** in step.  The index is what lets an edge update find its
victims without scanning the cache.

Keys name no graph, so the cache checks its graph on every call that reads,
writes or carries entries for one: each such call names the graph it serves,
and under the same lock as the work itself the cache binds to it when
unbound, or does nothing for it when bound to another graph.  So a cache
bound to another graph is bypassed (:meth:`SubgraphCache.extract_wave`
extracts that graph's stage uncached), and engines sharing one cache keep
serving after either updates.  An edge update
reaches the entries by one door, :meth:`~_LRUCache.carry`, which drops what
the update changes and moves the binding in one locked step; a reload is
:meth:`~_LRUCache.bind`.
"""

from __future__ import annotations

import operator
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.bfs import EgoWave, extract_wave
from repro.graph.csr import CSRGraph
from repro.serving.telemetry import StatsRecord, exported, metric

__all__ = ["CacheStats", "SubgraphCache", "DEFAULT_CACHE_BYTES"]

#: Default byte budget — roomy for the paper-scale stand-ins (tens of MB).
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024


@dataclass
class CacheStats(StatsRecord):
    """Counters of a :class:`SubgraphCache`.

    The cache's running counters are one of these; :attr:`_LRUCache.stats`
    snapshots it.  On ``/metrics`` every field is a family labelled by tier
    (``cache="combined"|"subgraph"|"result"``).

    Attributes
    ----------
    hits, misses:
        Lookup outcomes since construction.
    evictions:
        Entries dropped to stay within the byte budget.
    rejected:
        Extractions too large to ever fit the budget (served uncached).
    expired:
        Entries dropped because their TTL passed (always 0 for caches
        without a TTL, e.g. :class:`SubgraphCache`; an expired lookup also
        counts as a miss).
    current_bytes, num_entries:
        Present size of the cache.
    """

    hits: int = metric("repro_cache_hits_total", "counter", "Cache lookups served from the cache.")
    misses: int = metric("repro_cache_misses_total", "counter", "Cache lookups that had to compute.")
    evictions: int = metric(
        "repro_cache_evictions_total", "counter", "Entries evicted under byte-budget pressure."
    )
    rejected: int = metric(
        "repro_cache_rejected_total", "counter", "Entries larger than the whole budget, never cached."
    )
    expired: int = metric("repro_cache_expired_total", "counter", "Entries dropped by TTL expiry.")
    current_bytes: int = metric("repro_cache_bytes", "gauge", "Bytes currently retained.")
    num_entries: int = metric("repro_cache_entries", "gauge", "Entries currently retained.")

    def _combine(self, other: "CacheStats", op: Callable[[int, int], int]) -> "CacheStats":
        return CacheStats(
            *(op(getattr(self, item.name), getattr(other, item.name)) for item in fields(self))
        )

    def __add__(self, other: "CacheStats") -> "CacheStats":
        """Counter-wise sum: how the engine rolls its tiers up."""
        return self._combine(other, operator.add)

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        """Counter-wise difference, clamped at zero: a tier taken back out."""
        return self._combine(other, lambda mine, theirs: max(0, mine - theirs))

    @property
    def lookups(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @exported("repro_cache_hit_ratio", "gauge", "Lifetime hit ratio (hits / lookups; 0 before traffic).")
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


def _entry_nbytes(ball: EgoWave) -> int:
    """Retained bytes of one cache entry: every array of its ball."""
    return sum(value.nbytes for value in vars(ball).values() if isinstance(value, np.ndarray))


#: node -> {cache key: depth}: the entries an update reaching ``node`` within
#: ``depth`` hops invalidates.
CentreIndex = Dict[int, Dict[Hashable, int]]


def _link(index: CentreIndex, node: int, key: Hashable, depth: int, sign: int) -> None:
    """Add (``sign=1``) or remove (``-1``) ``key``'s row under ``node``."""
    if sign > 0:
        index.setdefault(node, {})[key] = depth
        return
    row = index[node]
    del row[key]
    if not row:
        del index[node]


def _reached(index: CentreIndex, reach: np.ndarray, radius: int) -> List[Hashable]:
    """Every key with a row where ``reach[node] <= depth``, visiting only
    the nodes the update's reach bound puts within ``radius``."""
    keys: Dict[Hashable, None] = {}
    for node in index.keys() & (reach <= radius).nonzero()[0].tolist():
        distance = int(reach[node])
        for key, depth in index[node].items():
            if distance <= depth:
                keys[key] = None
    return list(keys)


class _LRUCache:
    """Byte-budgeted LRU entries under one lock, bound to one graph.

    Every insertion and removal — LRU eviction, TTL expiry, clear, resize,
    an update's drops and strips, a store over an existing
    key — goes through :meth:`_store_locked`, which keeps the charged bytes,
    the entries-per-depth counts (the update radius, read not searched) and
    the subclass's centre index in step; :meth:`validate` rebuilds the
    latter two from the entries and raises on drift.  Which graph the
    entries belong to is decided here too, under the lock of every call that
    names one (:meth:`_claim_locked`): :meth:`bind`, :meth:`radius`,
    :meth:`carry`, :meth:`_insert` and the subclasses' reads.
    """

    #: Position of an entry's charged bytes in its tuple.
    _NBYTES: int

    def __init__(self, max_bytes: int) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be > 0, got {max_bytes}")
        self._max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self._current_bytes = 0
        self._depths: Counter = Counter()
        self._stats = CacheStats()  # the running counters; sizes are read live
        self._graph: Optional[CSRGraph] = None  # see _claim_locked()

    @property
    def max_bytes(self) -> int:
        """The configured byte budget."""
        return self._max_bytes

    @property
    def graph(self) -> Optional[CSRGraph]:
        """The graph the cache is bound to (``None`` while unbound)."""
        return self._graph

    @property
    def stats(self) -> CacheStats:
        """A consistent snapshot of the counters."""
        with self._lock:
            return replace(
                self._stats, current_bytes=self._current_bytes, num_entries=len(self._entries)
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    def _index_locked(self, key: Hashable, entry: tuple, sign: int) -> None:
        """Count ``entry`` in (``sign=1``) or out (``-1``) of the depth
        counts and the centre index."""
        raise NotImplementedError

    def _measure(self, entry: tuple) -> int:
        """The bytes ``entry`` should be charged, recomputed."""
        raise NotImplementedError

    def _index_state(self) -> tuple:
        """Everything :meth:`_index_locked` maintains, for :meth:`validate`."""
        return (+self._depths,)

    def _store_locked(self, key: Hashable, entry: Optional[tuple]) -> None:
        """Put ``entry`` under ``key`` (in place when present) or, for
        ``None``, remove the key: the one path entries come and go by."""
        old = self._entries.pop(key, None) if entry is None else self._entries.get(key)
        if old is not None:
            self._current_bytes -= old[self._NBYTES]
            self._index_locked(key, old, -1)
        if entry is not None:
            self._entries[key] = entry
            self._current_bytes += entry[self._NBYTES]
            self._index_locked(key, entry, 1)

    def _sweep_expired_locked(self) -> None:
        """Drop every TTL-expired entry (none without a TTL)."""

    def _evict_locked(self, room: int) -> int:
        """Evict LRU entries until ``room`` more bytes fit; returns how many."""
        evicted = 0
        while self._entries and self._current_bytes + room > self._max_bytes:
            self._store_locked(next(iter(self._entries)), None)
            evicted += 1
        self._stats.evictions += evicted
        return evicted

    def _insert(self, key: Hashable, entry: tuple, graph: CSRGraph) -> bool:
        """:meth:`_put_locked` under the lock while the entries are still
        ``graph``'s, the graph the entry was computed on."""
        with self._lock:
            return self._claim_locked(graph) and self._put_locked(key, entry)

    def _put_locked(self, key: Hashable, entry: tuple) -> bool:
        """Insert ``entry`` as the most recent, evicting LRU entries until it
        fits; one larger than the whole budget is rejected instead."""
        nbytes = entry[self._NBYTES]
        if nbytes > self._max_bytes:
            self._stats.rejected += 1
            return False
        if key in self._entries:
            self._store_locked(key, None)
        # Reclaim entries whose TTL already passed before evicting live
        # ones — eviction metrics must never blame budget pressure for
        # ordinary expiry.
        self._sweep_expired_locked()
        self._evict_locked(nbytes)
        self._store_locked(key, entry)
        return True

    def _clear_locked(self) -> None:
        for key in list(self._entries):
            self._store_locked(key, None)

    def _radius_locked(self) -> int:
        return max(+self._depths, default=0)

    # ------------------------------------------------------------------
    def _claim_locked(self, graph: CSRGraph) -> bool:
        """Whether the entries are ``graph``'s, binding an unbound cache to
        it; caller holds the lock."""
        if self._graph is None:
            self._graph = graph
        return self._graph is graph

    def bind(self, graph: CSRGraph) -> None:
        """Serve ``graph`` from now on — the reload path.

        Binding to a different topology clears the cache; a graph with the
        same fingerprint (a rebuild of it) keeps every entry.
        """
        with self._lock:
            old = self._graph
            if old is not None and old.fingerprint() != graph.fingerprint():
                self._clear_locked()
            self._graph = graph

    def radius(self, graph: CSRGraph) -> int:
        """How far an update of ``graph`` must resolve its reach bound: the
        largest depth a retained entry tests (:meth:`_update_locked`), read
        from the per-depth counts; 0 when empty or bound to another graph."""
        with self._lock:
            return self._radius_locked() if self._claim_locked(graph) else 0

    def _update_locked(self, reach: np.ndarray) -> object:
        """Drop or strip what an update with reach bound ``reach`` changes."""
        raise NotImplementedError

    def carry(self, old_graph: CSRGraph, new_graph: CSRGraph, distances):
        """Carry the cache across the edge update ``old_graph -> new_graph``
        — the one door an update has to the entries.

        If the entries are ``old_graph``'s, drop what the reach bound
        ``distances`` (:func:`repro.graph.delta.update_reach_bound`) changes
        and move the binding to ``new_graph``, atomically, returning the
        subclass's counts; a cache bound to another graph is left alone
        (``None``).  Drops are explicit invalidations, not evictions.
        """
        with self._lock:
            if not self._claim_locked(old_graph):
                return None
            counts = self._update_locked(np.asarray(distances))
            self._graph = new_graph
            return counts

    def resize(self, max_bytes: int) -> int:
        """Change the byte budget in place, evicting LRU entries past it.

        The hot-reload path of a live server: shrinking evicts (counted in
        ``stats.evictions``) until the retained bytes fit, growing just
        raises the ceiling — either way no lookup is ever interrupted and
        surviving entries stay warm.  Returns the number of evictions the
        resize forced.  TTL-expired entries are swept first, so a shrink
        never evicts a live entry to keep a dead one's bytes.
        """
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be > 0, got {max_bytes}")
        with self._lock:
            self._max_bytes = int(max_bytes)
            self._sweep_expired_locked()
            return self._evict_locked(0)

    def validate(self) -> None:
        """Check the internal invariants, raising ``AssertionError`` on drift.

        Invariants: ``current_bytes`` equals the sum of the retained entries'
        sizes, never exceeds the budget, every retained entry's recorded
        size matches a recomputation, and the depth counts and centre index
        equal a rebuild from the entries.  Used by the concurrency stress
        tests; cheap enough to call after any sequence of operations.
        """
        with self._lock:
            recomputed = 0
            for entry in self._entries.values():
                nbytes, actual = entry[self._NBYTES], self._measure(entry)
                if actual != nbytes:
                    raise AssertionError(
                        f"entry records {nbytes} bytes but holds {actual}"
                    )
                recomputed += nbytes
            if recomputed != self._current_bytes:
                raise AssertionError(
                    f"current_bytes={self._current_bytes} but entries sum to "
                    f"{recomputed}"
                )
            if self._current_bytes > self._max_bytes:
                raise AssertionError(
                    f"current_bytes={self._current_bytes} exceeds the budget "
                    f"{self._max_bytes}"
                )
            shadow = type(self)(self._max_bytes)
            for key, entry in self._entries.items():
                shadow._store_locked(key, entry)
            if shadow._index_state() != self._index_state():
                raise AssertionError("the depth counts or centre index drifted")


class SubgraphCache(_LRUCache):
    """LRU cache of ``(center, depth) ->`` one-ball :class:`~repro.graph.bfs.EgoWave`.

    Parameters
    ----------
    max_bytes:
        Byte budget for retained entries.  Inserting past the budget evicts
        least-recently-used entries until the new entry fits; an entry larger
        than the whole budget is never cached (counted in ``stats.rejected``).

    Notes
    -----
    A cache instance is bound to one host graph and bypassed for any other;
    keying by ``(center, depth)`` alone keeps lookups cheap.  Each entry is
    a one-ball wave of :meth:`~repro.graph.bfs.EgoWave.split`, ball-major
    like every wave, so a stage restacks its hits with its misses by
    concatenation.  Its centre index is ``centre -> {(centre, depth): depth}``.

    :meth:`extract_wave` looks a whole stage up before it inserts any
    of it.  Its hit / miss counts can differ from a ball-by-ball order only
    when the stage's own inserts would have evicted one of its later lookups
    (a budget below one stage) or a centre repeats inside the stage; the
    balls served, hence the answers, cannot.
    """

    _NBYTES = 1

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        super().__init__(max_bytes)
        self._centres: CentreIndex = {}

    def _index_locked(self, key: Tuple[int, int], entry: tuple, sign: int) -> None:
        self._depths[key[1]] += sign
        _link(self._centres, key[0], key, key[1], sign)

    def _measure(self, entry: tuple) -> int:
        return _entry_nbytes(entry[0])

    def _index_state(self) -> tuple:
        return super()._index_state() + (self._centres,)

    def __contains__(self, key: Tuple[int, int]) -> bool:
        with self._lock:
            return key in self._entries

    # ------------------------------------------------------------------
    def get(self, center: int, depth: int) -> Optional[EgoWave]:
        """Look a ball of the bound graph up, updating recency and hit/miss
        counters."""
        with self._lock:
            return self._get_locked((int(center), int(depth)))

    def _get_locked(self, key: Tuple[int, int]) -> Optional[EgoWave]:
        entry = self._entries.get(key)
        if entry is None:
            self._stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self._stats.hits += 1
        return entry[0]

    def extract_wave(self, graph: CSRGraph, centers: Sequence[int], depth: int) -> EgoWave:
        """Serve ``extract_wave(graph, centers, depth)`` through the cache —
        the planner's :data:`~repro.meloppr.planner.StageExtractFn`.

        The cache binds to the first ``graph`` it serves.  Keys carry no
        graph identity, so for a graph it is not bound to it is bypassed: the
        stage is extracted uncached, and no entry or counter is touched.
        :meth:`bind` moves the binding.

        Every centre is looked up first, under one lock with the binding;
        the misses are extracted together (outside the lock), split into
        one-ball waves and inserted under one more lock, while the cache is
        still ``graph``'s.  A stage with no hits is that extraction as it
        came; hits are restacked with the misses
        (:meth:`~repro.graph.bfs.EgoWave.stack`).
        """
        found = None
        with self._lock:
            if self._claim_locked(graph):
                found = [self._get_locked((int(center), int(depth))) for center in centers]
        if found is None:
            return extract_wave(graph, centers, depth)
        missed = [center for center, ball in zip(centers, found) if ball is None]
        fresh = extract_wave(graph, missed, depth)
        balls = fresh.split()
        with self._lock:
            if self._claim_locked(graph):
                for center, ball in zip(missed, balls):
                    self._put_locked((int(center), int(depth)), (ball, _entry_nbytes(ball)))
        if len(missed) == len(centers):
            return fresh
        fresh_balls = iter(balls)
        kept = [next(fresh_balls) if ball is None else ball for ball in found]
        return EgoWave.stack(fresh.name, depth, kept, [ball is not None for ball in found])

    def _update_locked(self, reach: np.ndarray) -> int:
        """Drop every ball the update changes: ``(center, depth)`` exactly
        when ``reach[center] <= depth`` — a touched endpoint strictly inside
        the ball, or an op with both endpoints in it.  Every survivor's
        extraction is byte-identical on the updated topology.  Returns the
        number dropped."""
        dead = _reached(self._centres, reach, self._radius_locked())
        for key in dead:
            self._store_locked(key, None)
        return len(dead)
