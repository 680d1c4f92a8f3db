"""Byte-budgeted LRU cache of extracted ego sub-graphs.

Every MeLoPPR stage task starts with a depth-``l`` BFS extraction, and across
a batch of queries the same ego sub-graphs recur constantly: hot seeds are
queried repeatedly, and popular high-degree nodes are selected as next-stage
centres by many different queries.  The extraction is deterministic — the
sub-graph only depends on ``(center, depth)`` and the host graph — and the
extracted :class:`~repro.graph.subgraph.Subgraph` is immutable once built, so
a cache can hand the same object to every task that needs it.

:class:`SubgraphCache` keys entries by ``(center, depth)``, bounds the total
retained bytes (graph CSR arrays + id mappings + BFS bookkeeping) and evicts
in least-recently-used order.  Hit / miss / eviction counts are exposed via
:attr:`SubgraphCache.stats` and surfaced by the serving engine in
``PPRResult.metadata`` and its throughput reports.

The cache is thread-safe: bookkeeping is guarded by a lock, while the BFS
extraction itself runs outside it so concurrent misses do not serialise each
other.  Two threads missing on the same key may both extract; the second
insert simply replaces the first with an identical entry, which is harmless
because extraction is deterministic.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.bfs import BFSResult, extract_ego_subgraph, extract_ego_subgraphs
from repro.graph.csr import CSRGraph
from repro.graph.subgraph import Subgraph

__all__ = ["CacheStats", "SubgraphCache", "DEFAULT_CACHE_BYTES"]

#: Default byte budget — roomy for the paper-scale stand-ins (tens of MB).
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024


@dataclass
class CacheStats:
    """Counters of a :class:`SubgraphCache`.

    Attributes
    ----------
    hits, misses:
        Lookup outcomes since construction (or the last :meth:`reset`).
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

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    rejected: int = 0
    expired: int = 0
    current_bytes: int = 0
    num_entries: int = 0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        """Counter-wise sum — the single aggregation used by every roll-up
        (router shard caches, process-pool worker caches, engine snapshots),
        so a new counter field is added in exactly one place."""
        if not isinstance(other, CacheStats):
            return NotImplemented
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            rejected=self.rejected + other.rejected,
            expired=self.expired + other.expired,
            current_bytes=self.current_bytes + other.current_bytes,
            num_entries=self.num_entries + other.num_entries,
        )

    @property
    def lookups(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict form for JSON reports and result metadata."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "rejected": self.rejected,
            "expired": self.expired,
            "current_bytes": self.current_bytes,
            "num_entries": self.num_entries,
            "hit_rate": self.hit_rate,
        }


def _entry_nbytes(subgraph: Subgraph, bfs: BFSResult) -> int:
    """Retained bytes of one cache entry (CSR arrays, id maps, BFS arrays)."""
    return int(
        subgraph.graph.nbytes()
        + subgraph.global_ids.nbytes
        + bfs.nodes.nbytes
        + bfs.levels.nbytes
        # The global->local dict: ~two machine words per node is a fair model
        # without paying a sys.getsizeof traversal per insert.
        + 16 * subgraph.num_nodes
    )


class SubgraphCache:
    """LRU cache of ``(center, depth) -> (Subgraph, BFSResult)`` extractions.

    Parameters
    ----------
    max_bytes:
        Byte budget for retained entries.  Inserting past the budget evicts
        least-recently-used entries until the new entry fits; an entry larger
        than the whole budget is never cached (counted in ``stats.rejected``).

    Notes
    -----
    A cache instance is bound to one host graph (the engine owns one per
    graph); keying by ``(center, depth)`` alone keeps lookups cheap.

    The stage form, :meth:`get_or_extract_many`, looks a whole stage up before
    it inserts any of it.  Its hit / miss counts can differ from the per-ball
    order only when the stage's own inserts would have evicted one of its
    later lookups (a budget below one stage) or a centre repeats inside the
    stage; the sub-graphs served, hence the answers, cannot.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be > 0, got {max_bytes}")
        self._max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[int, int], Tuple[Subgraph, BFSResult, int]]" = (
            OrderedDict()
        )
        self._current_bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._rejected = 0
        # Bound on first use: entries are keyed by (center, depth) alone, so
        # serving a second graph from the same cache would silently return
        # the first graph's sub-graphs.
        self._graph: Optional[CSRGraph] = None

    # ------------------------------------------------------------------
    @property
    def max_bytes(self) -> int:
        """The configured byte budget."""
        return self._max_bytes

    @property
    def stats(self) -> CacheStats:
        """A consistent snapshot of the counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                rejected=self._rejected,
                current_bytes=self._current_bytes,
                num_entries=len(self._entries),
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Tuple[int, int]) -> bool:
        with self._lock:
            return key in self._entries

    # ------------------------------------------------------------------
    def get(self, center: int, depth: int) -> Optional[Tuple[Subgraph, BFSResult]]:
        """Look up an extraction, updating recency and hit/miss counters."""
        key = (int(center), int(depth))
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[0], entry[1]

    def put(self, center: int, depth: int, subgraph: Subgraph, bfs: BFSResult) -> bool:
        """Insert an extraction; returns whether it was retained."""
        key = (int(center), int(depth))
        nbytes = _entry_nbytes(subgraph, bfs)
        with self._lock:
            if nbytes > self._max_bytes:
                self._rejected += 1
                return False
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._current_bytes -= previous[2]
            while self._entries and self._current_bytes + nbytes > self._max_bytes:
                _, (_, _, dropped) = self._entries.popitem(last=False)
                self._current_bytes -= dropped
                self._evictions += 1
            self._entries[key] = (subgraph, bfs, nbytes)
            self._current_bytes += nbytes
            return True

    def get_or_extract(
        self, graph: CSRGraph, center: int, depth: int
    ) -> Tuple[Subgraph, BFSResult, bool]:
        """Serve ``extract_ego_subgraph(graph, center, depth)`` through the cache.

        Returns ``(subgraph, bfs, hit)``; this is exactly the
        :data:`repro.meloppr.planner.ExtractFn` signature the planner's
        executors accept, so ``cache.get_or_extract`` can be passed as the
        ``extract=`` hook directly.

        The cache binds to the first ``graph`` it serves; passing a different
        graph later raises ``ValueError`` (keys carry no graph identity, so
        cross-graph sharing would return wrong sub-graphs).  :meth:`clear`
        resets the binding.
        """
        self._bind(graph)
        cached = self.get(center, depth)
        if cached is not None:
            return cached[0], cached[1], True
        # Extract outside the lock so concurrent misses proceed in parallel.
        subgraph, bfs = extract_ego_subgraph(graph, center, depth)
        self.put(center, depth, subgraph, bfs)
        return subgraph, bfs, False

    def get_or_extract_many(
        self, graph: CSRGraph, centers: Sequence[int], depth: int
    ) -> List[Tuple[Subgraph, BFSResult, bool]]:
        """The stage form of :meth:`get_or_extract`: one triple per centre.

        Every centre is looked up first, the misses are extracted together
        (:func:`~repro.graph.bfs.extract_ego_subgraphs`, outside the lock) and
        inserted one entry per ball — the planner's
        :data:`~repro.meloppr.planner.StageExtractFn`.
        """
        self._bind(graph)
        found = [self.get(center, depth) for center in centers]
        missed = [center for center, entry in zip(centers, found) if entry is None]
        fresh = iter(extract_ego_subgraphs(graph, missed, depth))
        triples: List[Tuple[Subgraph, BFSResult, bool]] = []
        for center, entry in zip(centers, found):
            if entry is not None:
                triples.append((entry[0], entry[1], True))
            else:
                subgraph, bfs = next(fresh)
                self.put(center, depth, subgraph, bfs)
                triples.append((subgraph, bfs, False))
        return triples

    def _bind(self, graph: CSRGraph) -> None:
        """Bind to ``graph`` on first use; refuse any other graph after."""
        with self._lock:
            if self._graph is None:
                self._graph = graph
            elif graph is not self._graph:
                raise ValueError(
                    f"cache is bound to graph {self._graph.name!r}; create one "
                    f"SubgraphCache per graph (got {graph.name!r})"
                )

    def max_depth(self) -> int:
        """Largest extraction depth among retained entries (0 when empty).

        The engine's live-update path uses this to size its BFS reach
        bound: distances only need resolving up to the deepest ego ball any
        cached entry could cover.
        """
        with self._lock:
            return max((key[1] for key in self._entries), default=0)

    def invalidate_covering(self, distances) -> int:
        """Drop every entry whose ego ball an edge update changes.

        ``distances`` is the update's reach bound
        (:func:`repro.graph.delta.update_reach_bound`): an entry keyed
        ``(center, depth)`` is dropped exactly when ``distances[center] <=
        depth`` — a touched endpoint strictly inside the ball, or an op with
        both endpoints in it.  Every survivor's extraction is provably
        byte-identical on the updated topology, and (cancelling ops aside)
        every dropped one's is not.  Returns the number of entries dropped;
        like explicit invalidation elsewhere, these are not counted as
        evictions (the budget did not force them).
        """
        with self._lock:
            dead = [
                key
                for key in self._entries
                if int(distances[key[0]]) <= key[1]
            ]
            for key in dead:
                _, _, dropped = self._entries.pop(key)
                self._current_bytes -= dropped
            return len(dead)

    def rebind(self, graph: CSRGraph) -> None:
        """Re-point the cache at a new host graph, keeping surviving entries.

        The live-update path: after :meth:`invalidate_covering` has dropped
        every entry the topology change could affect, the survivors are
        bit-identical to fresh extractions on ``graph``, so the binding can
        move without a cold restart.  (Use :meth:`clear` for an unrelated
        graph.)
        """
        with self._lock:
            self._graph = graph

    def validate(self) -> None:
        """Check the internal invariants, raising ``AssertionError`` on drift.

        Invariants: ``current_bytes`` equals the sum of the retained entries'
        sizes, never exceeds the budget, and every retained entry's recorded
        size matches a recomputation.  Used by the concurrency stress tests;
        cheap enough to call after any sequence of operations.
        """
        with self._lock:
            recomputed = 0
            for (subgraph, bfs, nbytes) in self._entries.values():
                actual = _entry_nbytes(subgraph, bfs)
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

    def resize(self, max_bytes: int) -> int:
        """Change the byte budget in place, evicting LRU entries past it.

        The hot-reload path of a live server: shrinking evicts (counted in
        ``stats.evictions``) until the retained bytes fit, growing just
        raises the ceiling — either way no lookup is ever interrupted and
        surviving entries stay warm.  Returns the number of evictions the
        resize forced.
        """
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be > 0, got {max_bytes}")
        with self._lock:
            self._max_bytes = int(max_bytes)
            evicted = 0
            while self._entries and self._current_bytes > self._max_bytes:
                _, (_, _, dropped) = self._entries.popitem(last=False)
                self._current_bytes -= dropped
                self._evictions += 1
                evicted += 1
            return evicted

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction/rejection counters (entries are kept).

        ``current_bytes`` and ``num_entries`` describe live state, not
        history, so they are unaffected; used for per-interval reporting on
        long-running servers.
        """
        with self._lock:
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            self._rejected = 0

    def clear(self) -> None:
        """Drop every entry and the graph binding (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._current_bytes = 0
            self._graph = None

    def __repr__(self) -> str:
        stats = self.stats
        return (
            f"SubgraphCache(max_bytes={self._max_bytes}, "
            f"entries={stats.num_entries}, bytes={stats.current_bytes}, "
            f"hit_rate={stats.hit_rate:.2f})"
        )
