"""Cross-query stage-one result cache (hot-seed score-table reuse).

Real query streams are Zipfian: the same hot seeds arrive over and over.
The sub-graph cache (:class:`~repro.serving.cache.SubgraphCache`) already
makes the *extractions* of a repeated query cheap, but every arrival still
re-runs the identical stage-one diffusion, fold, Eq. 6 correction and next-stage
selection.  All of that is a pure function of ``(seed, realised stage split,
alpha, score-table capacity, selector)`` on one graph — so it can be computed
once and replayed.

:class:`ScoreTableCache` stores the folded stage-one state
(:class:`~repro.meloppr.planner.StageOneState`: score-table snapshot plus
the selected stage-two work list) keyed by :func:`stage_one_cache_key` and
bound to the graph it serves (:meth:`ScoreTableCache.bind`).  On
a hit the engine resumes the plan with
:meth:`~repro.meloppr.planner.MeLoPPRPlan.from_stage_one_table` and only the
stage-two tasks run; scores are bit-identical to the uncached path because
the replayed fold state is byte-for-byte the state the plan would have
reached itself.

An entry can also carry the **finished answer** of the query it is keyed by
(:meth:`ScoreTableCache.attach_answer`; the engine attaches it after
``plan.finish()``).  The next repeat of that query is then replayed whole —
the same immutable ``scores`` object and metadata values, an empty ``timing`` and
a fresh ``metadata["serving"]`` — instead of resuming stage two, by the engine
and by its non-blocking :meth:`~repro.serving.engine.QueryEngine.try_cached`.
The answer is charged to the entry's bytes at a modelled, never-changing size
and lives and dies with the entry (LRU, TTL, clear, resize).  A topology
update can separate them: :meth:`~repro.serving.cache._LRUCache.carry` keeps
a far-enough entry's *state*, and its answer too exactly when every sub-graph
the answer was computed from — stage one's and each later task's, all in
``metadata["tasks"]`` — is provably byte-identical on the new topology;
otherwise the answer is stripped and the next repeat resumes from the state.
A centre index (seed -> keys, task centre -> keys) finds those victims
without scanning the cache.  A served answer is thus always the answer of the
graph the cache is bound to, computed there or carried across, and every read
names the graph it serves: the cache answers it only while bound to that graph,
checked under the lock of the read itself.

The cache is byte-budgeted with LRU eviction (like the sub-graph caches),
optionally TTL-bounded (long-running servers can bound staleness of *any*
derived artefact even though binding to a different topology already clears
the cache), and thread-safe —
all bookkeeping runs under one lock, and the cached states are deeply
immutable so hits can be shared across backend threads freely.  Counters are
the shared :class:`~repro.serving.cache.CacheStats` shape, so hits roll up
into :attr:`~repro.serving.engine.EngineStats.cache` alongside the sub-graph
caches (and separately under ``EngineStats.result_cache``).

Composition with the async frontend: the
:class:`~repro.serving.frontend.batcher.MicroBatcher`'s in-flight dedup
collapses *concurrent* identical queries to one computation, and this cache
collapses *temporal* repeats — the first completed computation installs the
state, every later arrival resumes from it.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, Hashable, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.planner import MeLoPPRPlan, StageOneState, realised_stage_lengths
from repro.ppr.base import PPRQuery, PPRResult
from repro.serving.cache import CentreIndex, _link, _LRUCache, _reached

__all__ = [
    "DEFAULT_RESULT_CACHE_BYTES",
    "UPDATE_COUNT_KEYS",
    "ScoreTableCache",
    "stage_one_cache_key",
    "stage_one_key",
]

#: One retained entry: ``(state, charged bytes, stored-at, answer, its task lengths)``.
_Entry = Tuple[StageOneState, int, float, Optional[PPRResult], Optional[Dict[int, int]]]

#: What :meth:`ScoreTableCache.carry`'s counts are called, in order, in the
#: ``invalidated`` block of an update's outcome report.
UPDATE_COUNT_KEYS = (
    "result_entries_dropped",
    "result_entries_rekeyed",
    "result_answers_kept",
    "result_answers_stripped",
)

#: Default byte budget — score tables are far smaller than sub-graphs, so a
#: modest budget holds thousands of hot seeds.
DEFAULT_RESULT_CACHE_BYTES = 32 * 1024 * 1024


def stage_one_key(query: PPRQuery, config: MeLoPPRConfig) -> Tuple[Hashable, ...]:
    """The cache key of ``query``'s stage-one state, without building a plan.

    Covers every input the stage-one computation depends on:

    * ``seed``, ``alpha`` — the query parameters stage one diffuses with;
    * the **realised** stage split (after the planner's re-split for
      lengths that differ from the configured ``sum(stage_lengths)``), which
      fixes both the stage-one depth and the weights folded;
    * the score-table capacity (``c * k`` — two queries for different ``k``
      fold into differently bounded tables, so they must not share);
    * the selector, by its ``repr`` (a built-in's names every parameter
      exactly), and the residual tolerance (they choose the stage-two work
      list stored in the state).

    The graph is not in the key: a cache is bound to the graph it serves
    (:meth:`ScoreTableCache.bind`), and binding it to a different topology
    clears it, so a rebuilt graph can never be served a stale table.
    """
    return (
        int(query.seed),
        realised_stage_lengths(config, query.length),
        float(query.alpha),
        config.score_table_capacity(query.k),
        repr(config.selector),
        float(config.residual_tolerance),
    )


def stage_one_cache_key(plan: MeLoPPRPlan) -> Tuple[Hashable, ...]:
    """:func:`stage_one_key` of the query and config ``plan`` was built on."""
    return stage_one_key(plan.query, plan.config)


def _entry_nbytes(state: StageOneState) -> int:
    """Modelled retained bytes of one cached stage-one state.

    Mirrors the sub-graph cache's accounting style: dict-like entries are
    charged two machine words each (node id + float), records a flat per
    record cost, without paying a ``sys.getsizeof`` traversal per insert.
    """
    return int(
        16 * state.table.num_entries
        + 16 * len(state.next_work)
        + 64 * len(state.records)
        + 128  # fixed per-entry overhead (key tuple, bookkeeping)
    )


def _answer_nbytes(answer: Optional[PPRResult]) -> int:
    """Modelled bytes of an attached answer (0 for none); never changes.

    16 B per retained score plus 32 B per top-k pair for the wire text —
    charged up front, whether or not a server has encoded it yet.
    """
    if answer is None:
        return 0
    retained = len(answer.scores)
    return 16 * retained + 32 * min(int(answer.query.k), retained)


class ScoreTableCache(_LRUCache):
    """Byte-budgeted LRU cache of folded stage-one states.

    Parameters
    ----------
    max_bytes:
        Byte budget for retained entries.  Inserting past the budget evicts
        least-recently-used entries until the new entry fits; an entry larger
        than the whole budget is never cached (``stats.rejected``).
    ttl_seconds:
        Optional time-to-live, finite and positive.  An entry older than
        this is dropped on lookup (counted in ``stats.expired`` *and* as a
        miss).  ``None`` (the default) keeps entries until evicted or
        invalidated — binding to a graph already guarantees correctness, so
        a TTL is a freshness policy, not a safety requirement.
    clock:
        Monotonic time source (injectable for tests).

    Notes
    -----
    Unlike :class:`~repro.serving.cache.SubgraphCache` there is no
    ``get_or_compute``: producing a state requires executing a plan stage,
    which the engine orchestrates.  Two threads missing on the same key may
    both compute; the second :meth:`put` replaces the first with an
    identical state, which is harmless because stage one is deterministic.

    The centre index has two halves: seed -> {key: stage-one length} (what
    drops an entry) and task centre -> {key: longest stage length the
    attached answer ran that centre at} (what strips an answer).  An entry
    counts toward the update radius at its stage-one length when bare and
    at its longest stage when answered.
    """

    _NBYTES = 1

    def __init__(
        self,
        max_bytes: int = DEFAULT_RESULT_CACHE_BYTES,
        ttl_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(max_bytes)
        if ttl_seconds is not None and not (
            math.isfinite(ttl_seconds) and ttl_seconds > 0
        ):
            raise ValueError(
                f"ttl_seconds must be finite and > 0, or None, got {ttl_seconds}"
            )
        self._ttl_seconds = ttl_seconds
        self._clock = clock
        self._seeds: CentreIndex = {}
        self._centres: CentreIndex = {}
        self._answers = 0

    # ------------------------------------------------------------------
    @property
    def ttl_seconds(self) -> Optional[float]:
        """The configured time-to-live (``None`` = entries never expire)."""
        return self._ttl_seconds

    def __contains__(self, key: Tuple[Hashable, ...]) -> bool:
        """Whether ``key`` holds an entry a :meth:`get` would actually serve.

        Finding the entry TTL-expired drops it on the spot (bytes freed,
        counted in ``stats.expired``) — answering ``False`` while leaving
        the bytes charged would let a never-re-requested key pin the budget.
        Not counted as a hit or miss: membership probes are not lookups.
        """
        with self._lock:
            return self._live_entry_locked(key) is not None

    def _index_locked(self, key: tuple, entry: _Entry, sign: int) -> None:
        seed, split, answer, lengths = key[0], key[1], entry[3], entry[4]
        self._depths[split[0] if answer is None else max(split)] += sign
        _link(self._seeds, seed, key, split[0], sign)
        if answer is not None:
            self._answers += sign
            for centre, length in lengths.items():
                _link(self._centres, centre, key, length, sign)

    def _measure(self, entry: _Entry) -> int:
        return _entry_nbytes(entry[0]) + _answer_nbytes(entry[3])

    def _index_state(self) -> tuple:
        return super()._index_state() + (self._seeds, self._centres, self._answers)

    def _is_expired(self, stored_at: float) -> bool:
        """Whether an entry stored at ``stored_at`` has outlived the TTL."""
        return (
            self._ttl_seconds is not None
            and self._clock() - stored_at >= self._ttl_seconds
        )

    def _live_entry_locked(self, key: Tuple[Hashable, ...]) -> Optional[_Entry]:
        """The entry under ``key``, dropped instead (``stats.expired``) when
        its TTL has passed; caller holds the lock."""
        entry = self._entries.get(key)
        if entry is not None and self._is_expired(entry[2]):
            self._store_locked(key, None)
            self._stats.expired += 1
            return None
        return entry

    def _sweep_expired_locked(self) -> None:
        """Drop every TTL-expired entry (caller holds the lock).

        Run by :meth:`put` and :meth:`resize` so budget pressure always
        reclaims dead bytes before evicting live entries, and so the two
        outcomes are counted apart (``stats.expired`` vs ``stats.evictions``).
        """
        if self._ttl_seconds is None:
            return
        for key, entry in list(self._entries.items()):
            if self._is_expired(entry[2]):
                self._store_locked(key, None)
                self._stats.expired += 1

    # ------------------------------------------------------------------
    def lookup(
        self, key: Tuple[Hashable, ...], query: PPRQuery, graph: CSRGraph
    ) -> Optional[Tuple[Optional[StageOneState], Optional[PPRResult]]]:
        """One locked, counted lookup of ``key`` for ``query`` on ``graph``:
        ``(state, attached answer)``, each ``None`` when absent.  The answer
        comes back only if it is ``query``'s own — with an unbounded score
        table one key covers every ``k``.  ``None`` instead, with no counter
        and no recency touched, when the cache is bound to another graph."""
        with self._lock:
            return self._lookup_locked(key, query) if self._claim_locked(graph) else None

    def _lookup_locked(
        self, key: Tuple[Hashable, ...], query: Optional[PPRQuery]
    ) -> Tuple[Optional[StageOneState], Optional[PPRResult]]:
        """:meth:`lookup` on the bound graph; caller holds the lock."""
        entry = self._live_entry_locked(key)
        if entry is None:
            self._stats.misses += 1
            return None, None
        self._entries.move_to_end(key)
        self._stats.hits += 1
        answer = entry[3]
        return entry[0], answer if answer is not None and answer.query == query else None

    def peek_answer(
        self, key: Tuple[Hashable, ...], query: PPRQuery, graph: CSRGraph
    ) -> Optional[PPRResult]:
        """``query``'s attached answer on ``graph``, counted as a hit and
        moved to MRU — or ``None`` with no counter and no recency touched,
        because the caller then goes on to the counted :meth:`lookup`; also
        ``None`` when the cache is bound to another graph."""
        with self._lock:
            entry = self._live_entry_locked(key) if self._claim_locked(graph) else None
            if entry is None or entry[3] is None or entry[3].query != query:
                return None
            self._entries.move_to_end(key)
            self._stats.hits += 1
            return entry[3]

    def get(self, key: Tuple[Hashable, ...]) -> Optional[StageOneState]:
        """Look up a stage-one state of the bound graph, updating recency
        and counters."""
        with self._lock:
            return self._lookup_locked(key, None)[0]

    def put(self, key: Tuple[Hashable, ...], state: StageOneState, graph: CSRGraph) -> bool:
        """Insert a stage-one state folded on ``graph``; returns whether it
        was retained.  It is inserted only while the cache is bound to
        ``graph`` (an unbound cache binds to it)."""
        entry = (state, _entry_nbytes(state), self._clock(), None, None)
        return self._insert(key, entry, graph)

    def attach_answer(
        self, key: Tuple[Hashable, ...], answer: PPRResult, graph: CSRGraph
    ) -> bool:
        """Attach the finished answer, computed on ``graph``, of the query
        ``key`` is keyed by.

        :meth:`lookup` then returns it next to the state.  It is charged to
        the entry (:func:`_answer_nbytes`) and shares its LRU position, TTL,
        :meth:`clear` and :meth:`resize`; going over
        budget evicts LRU entries as in :meth:`put`.  Returns ``False`` — the
        state stays, the answer is not kept — when the entry is gone, would
        alone exceed the budget or the cache is no longer bound to ``graph``.
        """
        with self._lock:
            entry = self._live_entry_locked(key)
            if entry is None or not self._claim_locked(graph):
                return False
            state, _, stored_at = entry[:3]
            nbytes = _entry_nbytes(state) + _answer_nbytes(answer)
            if nbytes > self._max_bytes:
                return False
            # Each task centre -> the longest stage length it ran at: the
            # answer survives an update exactly when every one does.  Read
            # once, here, because a caller holding the answer can reach it.
            lengths: Dict[int, int] = {}
            for record in answer.metadata["tasks"]:
                centre, length = int(record.center_node), key[1][record.stage_index]
                lengths[centre] = max(length, lengths.get(centre, 0))
            self._store_locked(key, (state, nbytes, stored_at, answer, lengths))
            self._entries.move_to_end(key)
            self._evict_locked(0)  # as in put()
            return True

    def _update_locked(self, reach: np.ndarray) -> Tuple[int, int, int, int]:
        """Surgically carry the entries across a topology update.

        The depth-``l`` ego ball of ``node`` is byte-identical on both
        topologies exactly when ``reach[node] > l``.  Every entry whose
        stage-one ball fails that test is dropped — its folded state could
        differ on the new topology.  Every other entry keeps its key and LRU
        place, and keeps its attached answer when every task the answer ran
        (``answer.metadata["tasks"]``: stage one and each selected next-stage
        centre, at its stage's length) passes the same test: the answer is a
        pure function of those extractions, so it *is* the new graph's.
        Otherwise the answer is stripped and the state alone survives.  The
        centre index visits only the seeds and task centres within the
        radius.  Returns ``(dropped, carried across, answers kept, answers
        stripped)``.
        """
        radius = self._radius_locked()
        dropped = _reached(self._seeds, reach, radius)
        for key in dropped:
            self._store_locked(key, None)
        # The dropped keys left the index with their rows.
        stripped = _reached(self._centres, reach, radius)
        for key in stripped:
            state, _, stored_at = self._entries[key][:3]
            bare = (state, _entry_nbytes(state), stored_at, None, None)
            self._store_locked(key, bare)
        return len(dropped), len(self._entries), self._answers, len(stripped)
