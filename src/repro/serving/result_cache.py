"""Cross-query stage-one result cache (hot-seed score-table reuse).

Real query streams are Zipfian: the same hot seeds arrive over and over.
The sub-graph caches (:class:`~repro.serving.cache.SubgraphCache`, one per
shard under a :class:`~repro.serving.sharding.ShardRouter`) already make the
*extractions* of a repeated query cheap, but every arrival still re-runs the
identical stage-one diffusion, fold, Eq. 6 correction and next-stage
selection.  All of that is a pure function of ``(seed, realised stage split,
alpha, score-table capacity, selector, graph)`` — so it can be computed once
and replayed.

:class:`ScoreTableCache` stores the folded stage-one state
(:class:`~repro.meloppr.planner.StageOneState`: score-table snapshot plus
the selected stage-two work list) keyed by :func:`stage_one_cache_key`.  On
a hit the engine resumes the plan with
:meth:`~repro.meloppr.planner.MeLoPPRPlan.from_stage_one_table` and only the
stage-two tasks run; scores are bit-identical to the uncached path because
the replayed fold state is byte-for-byte the state the plan would have
reached itself.

An entry can also carry the **finished answer** of the query it is keyed by
(:meth:`ScoreTableCache.attach_answer`; the engine attaches it after
``plan.finish()``).  The next repeat of that query is then replayed whole —
the same frozen ``scores`` object and metadata values, an empty ``timing`` and
a fresh ``metadata["serving"]`` — instead of resuming stage two, by the engine
and by its non-blocking :meth:`~repro.serving.engine.QueryEngine.try_cached`.
The answer is charged to the entry's bytes at a modelled, never-changing size
and lives and dies with the entry (LRU, TTL, invalidate, clear, resize).  A
topology update can separate them: :meth:`ScoreTableCache.apply_update` keeps
a far-enough entry's *state* under the new fingerprint, and its answer too
exactly when every sub-graph the answer was computed from — stage one's and
each later task's, all in ``metadata["tasks"]`` — is provably byte-identical
on the new topology; otherwise the answer is stripped and the next repeat
resumes from the state.  A served answer is thus always the answer of the
fingerprint it is keyed under, computed there or carried across.

The cache is byte-budgeted with LRU eviction (like the sub-graph caches),
optionally TTL-bounded (long-running servers can bound staleness of *any*
derived artefact even though the key's graph fingerprint already rules out
serving a different topology), explicitly invalidatable, and thread-safe —
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

import hashlib
import threading
import time
from collections import OrderedDict
from typing import Callable, Hashable, Optional, Tuple

from repro.graph.csr import CSRGraph
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.planner import MeLoPPRPlan, StageOneState, realised_stage_lengths
from repro.ppr.base import PPRQuery, PPRResult
from repro.serving.cache import CacheStats

__all__ = [
    "DEFAULT_RESULT_CACHE_BYTES",
    "UPDATE_COUNT_KEYS",
    "ScoreTableCache",
    "stage_one_cache_key",
    "stage_one_key",
]

#: One retained entry: ``(state, charged bytes, stored-at, attached answer)``.
_Entry = Tuple[StageOneState, int, float, Optional[PPRResult]]

#: What :meth:`ScoreTableCache.apply_update`'s counts are called, in order, in
#: the ``invalidated`` block of an update's outcome report.
UPDATE_COUNT_KEYS = (
    "result_entries_dropped",
    "result_entries_rekeyed",
    "result_answers_kept",
    "result_answers_stripped",
)

#: Default byte budget — score tables are far smaller than sub-graphs, so a
#: modest budget holds thousands of hot seeds.
DEFAULT_RESULT_CACHE_BYTES = 32 * 1024 * 1024


def _value_identity(value) -> Hashable:
    """A faithful, hashable identity of one selector attribute value.

    ``repr`` is the general answer, but numpy elides large arrays
    (``[0.1, ..., 0.9]``), which would collide two masks differing only in
    the elided middle — so array-likes are identified by a digest of their
    raw bytes plus shape/dtype instead.
    """
    tobytes = getattr(value, "tobytes", None)
    if tobytes is not None:
        digest = hashlib.blake2b(tobytes(), digest_size=16).hexdigest()
        return (
            "array",
            tuple(getattr(value, "shape", ())),
            str(getattr(value, "dtype", "")),
            digest,
        )
    return repr(value)


def _selector_identity(selector) -> Tuple[Hashable, ...]:
    """A parameter-bearing identity of a next-stage selector.

    ``repr(selector)`` alone is not enough: the ``NextStageSelector`` base
    class default is ``f"{type(self).__name__}()"``, so a user-defined
    subclass with constructor knobs that does not override ``__repr__``
    would collide two differently-parameterised instances onto one cache
    key — and a hit would replay the *other* configuration's stage-two
    selection.  The class qualname plus the instance ``__dict__`` (each
    value via :func:`_value_identity` so the tuple stays hashable and
    array-valued knobs stay faithful) distinguishes them;
    ``__slots__``-only selectors fall back to ``repr`` — they opted out of
    ``__dict__`` and almost certainly define a faithful one.
    """
    try:
        fields = vars(selector)
    except TypeError:  # __slots__-only instance
        return (type(selector).__qualname__, repr(selector))
    return (
        type(selector).__qualname__,
        tuple(
            sorted((name, _value_identity(value)) for name, value in fields.items())
        ),
    )


def stage_one_key(
    query: PPRQuery, config: MeLoPPRConfig, graph: CSRGraph
) -> Tuple[Hashable, ...]:
    """The cache key of ``query``'s stage-one state, without building a plan.

    Covers every input the stage-one computation depends on:

    * ``seed``, ``alpha`` — the query parameters stage one diffuses with;
    * the **realised** stage split (after the planner's re-split for
      lengths that differ from the configured ``sum(stage_lengths)``), which
      fixes both the stage-one depth and the weights folded;
    * the score-table capacity (``c * k`` — two queries for different ``k``
      fold into differently bounded tables, so they must not share);
    * the selector and residual tolerance (they choose the stage-two work
      list stored in the state);
    * the host graph's structural fingerprint, so a rebuilt or repartitioned
      graph with different topology can never be served a stale table.
    """
    return (
        int(query.seed),
        realised_stage_lengths(config, query.length),
        float(query.alpha),
        config.score_table_capacity(query.k),
        _selector_identity(config.selector),
        float(config.residual_tolerance),
        graph.fingerprint(),
    )


def stage_one_cache_key(plan: MeLoPPRPlan) -> Tuple[Hashable, ...]:
    """:func:`stage_one_key` of the query, config and graph ``plan`` was built on."""
    return stage_one_key(plan.query, plan.config, plan.graph)


def _entry_nbytes(state: StageOneState) -> int:
    """Modelled retained bytes of one cached stage-one state.

    Mirrors the sub-graph cache's accounting style: dict-like entries are
    charged two machine words each (node id + float), records a flat per
    record cost, without paying a ``sys.getsizeof`` traversal per insert.
    """
    table_entries = state.table.num_entries + len(state.table.evicted)
    return int(
        16 * table_entries
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


class ScoreTableCache:
    """Byte-budgeted LRU cache of folded stage-one states.

    Parameters
    ----------
    max_bytes:
        Byte budget for retained entries.  Inserting past the budget evicts
        least-recently-used entries until the new entry fits; an entry larger
        than the whole budget is never cached (``stats.rejected``).
    ttl_seconds:
        Optional time-to-live.  An entry older than this is dropped on
        lookup (counted in ``stats.expired`` *and* as a miss).  ``None``
        (the default) keeps entries until evicted or invalidated — the graph
        fingerprint in the key already guarantees correctness, so a TTL is a
        freshness policy, not a safety requirement.
    clock:
        Monotonic time source (injectable for tests).

    Notes
    -----
    Unlike :class:`~repro.serving.cache.SubgraphCache` there is no
    ``get_or_compute``: producing a state requires executing a plan stage,
    which the engine orchestrates.  Two threads missing on the same key may
    both compute; the second :meth:`put` replaces the first with an
    identical state, which is harmless because stage one is deterministic.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_RESULT_CACHE_BYTES,
        ttl_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be > 0, got {max_bytes}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(
                f"ttl_seconds must be > 0 or None, got {ttl_seconds}"
            )
        self._max_bytes = int(max_bytes)
        self._ttl_seconds = ttl_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[Hashable, ...], _Entry]" = OrderedDict()
        self._current_bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._rejected = 0
        self._expired = 0

    # ------------------------------------------------------------------
    @property
    def max_bytes(self) -> int:
        """The configured byte budget."""
        return self._max_bytes

    @property
    def ttl_seconds(self) -> Optional[float]:
        """The configured time-to-live (``None`` = entries never expire)."""
        return self._ttl_seconds

    @property
    def stats(self) -> CacheStats:
        """A consistent snapshot of the counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                rejected=self._rejected,
                expired=self._expired,
                current_bytes=self._current_bytes,
                num_entries=len(self._entries),
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Tuple[Hashable, ...]) -> bool:
        """Whether ``key`` holds an entry a :meth:`get` would actually serve.

        Finding the entry TTL-expired drops it on the spot (bytes freed,
        counted in ``stats.expired``) — answering ``False`` while leaving
        the bytes charged would let a never-re-requested key pin the budget.
        Not counted as a hit or miss: membership probes are not lookups.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            if self._is_expired(entry[2]):
                del self._entries[key]
                self._current_bytes -= entry[1]
                self._expired += 1
                return False
            return True

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
            del self._entries[key]
            self._current_bytes -= entry[1]
            self._expired += 1
            return None
        return entry

    def _sweep_expired_locked(self) -> int:
        """Drop every TTL-expired entry (caller holds the lock).

        Shared by :meth:`put` and :meth:`resize` so budget pressure always
        reclaims dead bytes before evicting live entries, and so the two
        outcomes are counted apart (``stats.expired`` vs ``stats.evictions``).
        """
        if self._ttl_seconds is None:
            return 0
        dead = [
            entry_key
            for entry_key, (_, _, stored_at, _) in self._entries.items()
            if self._is_expired(stored_at)
        ]
        for entry_key in dead:
            _, dropped, _, _ = self._entries.pop(entry_key)
            self._current_bytes -= dropped
            self._expired += 1
        return len(dead)

    # ------------------------------------------------------------------
    def lookup(
        self, key: Tuple[Hashable, ...], query: Optional[PPRQuery]
    ) -> Tuple[Optional[StageOneState], Optional[PPRResult]]:
        """One locked lookup of ``key``, counted and moved like :meth:`get`:
        ``(state, attached answer)``.  The answer comes back only if it is
        ``query``'s own — with an unbounded score table one key covers every
        ``k`` — so never for ``None``."""
        with self._lock:
            entry = self._live_entry_locked(key)
            if entry is None:
                self._misses += 1
                return None, None
            self._entries.move_to_end(key)
            self._hits += 1
            answer = entry[3]
            if answer is not None and answer.query != query:
                answer = None
            return entry[0], answer

    def peek_answer(
        self, key: Tuple[Hashable, ...], query: PPRQuery
    ) -> Optional[PPRResult]:
        """``query``'s attached answer, counted as a hit and moved to MRU —
        or ``None`` with no counter and no recency touched, because the
        caller then goes on to the counted :meth:`lookup`."""
        with self._lock:
            entry = self._live_entry_locked(key)
            if entry is None or entry[3] is None or entry[3].query != query:
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[3]

    def get(self, key: Tuple[Hashable, ...]) -> Optional[StageOneState]:
        """Look up a stage-one state, updating recency and counters."""
        return self.lookup(key, None)[0]

    def put(self, key: Tuple[Hashable, ...], state: StageOneState) -> bool:
        """Insert a stage-one state; returns whether it was retained."""
        nbytes = _entry_nbytes(state)
        with self._lock:
            if nbytes > self._max_bytes:
                self._rejected += 1
                return False
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._current_bytes -= previous[1]
            # Reclaim entries whose TTL already passed before evicting live
            # ones — eviction metrics must never blame budget pressure for
            # ordinary expiry.
            self._sweep_expired_locked()
            while self._entries and self._current_bytes + nbytes > self._max_bytes:
                _, (_, dropped, _, _) = self._entries.popitem(last=False)
                self._current_bytes -= dropped
                self._evictions += 1
            self._entries[key] = (state, nbytes, self._clock(), None)
            self._current_bytes += nbytes
            return True

    def attach_answer(self, key: Tuple[Hashable, ...], answer: PPRResult) -> bool:
        """Attach the finished answer of the query ``key`` is keyed by.

        :meth:`lookup` then returns it next to the state.  It is charged to
        the entry (:func:`_answer_nbytes`) and shares its LRU position, TTL,
        :meth:`invalidate`, :meth:`clear` and :meth:`resize`; going over
        budget evicts LRU entries as in :meth:`put`.  Returns ``False`` — the
        state stays, the answer is not kept — when the entry is gone or would
        alone exceed the budget.
        """
        with self._lock:
            entry = self._live_entry_locked(key)
            if entry is None:
                return False
            state, charged, stored_at, _ = entry
            nbytes = _entry_nbytes(state) + _answer_nbytes(answer)
            if nbytes > self._max_bytes:
                return False
            self._entries[key] = (state, nbytes, stored_at, answer)
            self._entries.move_to_end(key)
            self._current_bytes += nbytes - charged
            while self._current_bytes > self._max_bytes:  # as in put()
                _, (_, dropped, _, _) = self._entries.popitem(last=False)
                self._current_bytes -= dropped
                self._evictions += 1
            return True

    def resize(self, max_bytes: int) -> int:
        """Change the byte budget in place, evicting LRU entries past it.

        The hot-reload path of a live server: shrinking evicts (counted in
        ``stats.evictions``) until the retained bytes fit, growing just
        raises the ceiling — surviving entries stay warm.  Returns the
        number of evictions the resize forced.  TTL-expired entries are
        swept first, so a shrink never evicts a live entry to keep a dead
        one's bytes.
        """
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be > 0, got {max_bytes}")
        with self._lock:
            self._max_bytes = int(max_bytes)
            self._sweep_expired_locked()
            evicted = 0
            while self._entries and self._current_bytes > self._max_bytes:
                _, (_, dropped, _, _) = self._entries.popitem(last=False)
                self._current_bytes -= dropped
                self._evictions += 1
                evicted += 1
            return evicted

    def max_stage_length(self) -> int:
        """Largest stage length an update must resolve reach to (0 when empty).

        Keys are :func:`stage_one_cache_key` tuples, whose second element is
        the realised stage split.  A bare state is folded from the stage-one
        ego ball alone; an entry that carries an answer also ran the later
        stages, and :meth:`apply_update` tests every one of them — so the
        engine's live-update path sizes its reach bound from this.
        """
        with self._lock:
            # Distinct (split, bare?) pairs first: there are only a few.
            shapes = {
                (key[1], entry[3] is None) for key, entry in self._entries.items()
            }
        return max(
            (split[0] if bare else max(split) for split, bare in shapes), default=0
        )

    def apply_update(
        self, old_fingerprint: str, new_fingerprint: str, distances
    ) -> Tuple[int, int, int, int]:
        """Surgically migrate the cache across a topology update.

        ``distances`` is the update's reach bound
        (:func:`repro.graph.delta.update_reach_bound`): the depth-``l`` ego
        ball of ``node`` is byte-identical on both topologies exactly when
        ``distances[node] > l``.  Every entry keyed to ``old_fingerprint``
        whose stage-one ball fails that test is dropped — its folded state
        could differ on the new topology.  Every other entry is **re-keyed**
        in place to ``new_fingerprint`` (preserving LRU order and stored-at
        times), and keeps its attached answer when every task the answer ran
        (``answer.metadata["tasks"]``: stage one and each selected next-stage
        centre, at its stage's length) passes the same test: the answer is a
        pure function of those extractions, so it *is* the new graph's,
        metadata included.  Otherwise the answer is stripped and the state
        alone survives.  Returns ``(dropped, rekeyed, answers kept, answers
        stripped)``; drops are explicit invalidations, not evictions.
        """
        dropped = rekeyed = kept = stripped = 0
        with self._lock:
            migrated: "OrderedDict[Tuple[Hashable, ...], _Entry]" = OrderedDict()
            for key, value in self._entries.items():
                if key[-1] == old_fingerprint:
                    stage_lengths = key[1]
                    if distances[key[0]] <= stage_lengths[0]:
                        self._current_bytes -= value[1]
                        dropped += 1
                        continue
                    key = key[:-1] + (new_fingerprint,)
                    rekeyed += 1
                    answer = value[3]
                    if answer is not None:
                        for record in answer.metadata["tasks"]:
                            if (
                                distances[record.center_node]
                                <= stage_lengths[record.stage_index]
                            ):
                                stripped += 1
                                bare = _entry_nbytes(value[0])
                                self._current_bytes -= value[1] - bare
                                value = (value[0], bare, value[2], None)
                                break
                        else:
                            kept += 1
                migrated[key] = value
            self._entries = migrated
        return dropped, rekeyed, kept, stripped

    def invalidate(self, key: Tuple[Hashable, ...]) -> bool:
        """Explicitly drop one entry; returns whether it was present.

        Not counted as an eviction (the budget did not force it) — live
        state just shrinks, like :meth:`clear`.
        """
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._current_bytes -= entry[1]
            return True

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the byte-accounting invariants, raising on drift.

        Invariants: ``current_bytes`` equals the sum of retained entries'
        recorded sizes, each recorded size matches a recomputation, and the
        budget is respected.  Cheap; used by the concurrency stress tests.
        """
        with self._lock:
            recomputed = 0
            for state, nbytes, _, answer in self._entries.values():
                actual = _entry_nbytes(state) + _answer_nbytes(answer)
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

    def reset_stats(self) -> None:
        """Zero the counters (entries are kept) — same contract as
        :meth:`SubgraphCache.reset_stats`: ``current_bytes``/``num_entries``
        describe live state, not history, and are unaffected."""
        with self._lock:
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            self._rejected = 0
            self._expired = 0

    def clear(self) -> None:
        """Drop every entry (counters are kept) — same contract as
        :meth:`SubgraphCache.clear`."""
        with self._lock:
            self._entries.clear()
            self._current_bytes = 0

    def __repr__(self) -> str:
        stats = self.stats
        ttl = "none" if self._ttl_seconds is None else f"{self._ttl_seconds:g}s"
        return (
            f"ScoreTableCache(max_bytes={self._max_bytes}, ttl={ttl}, "
            f"entries={stats.num_entries}, bytes={stats.current_bytes}, "
            f"hit_rate={stats.hit_rate:.2f})"
        )
