"""The centre index of both cache tiers, against the full scan it replaced.

Both caches' ``carry`` finds an update's victims through a centre index, and
``radius`` reads the update radius from per-depth counts.  This module
keeps the rule they replaced — visit every entry — as a test-local oracle,
and drives a cache and the oracle through one random interleaving of puts,
lookups, answer attaches, LRU eviction under a small budget, TTL expiry on an
injected clock, resizes, clears and updates with random reach arrays.  After every step both must hold the same keys in the same LRU order
with the same bytes, report the same update counts, counters and radius, and
``validate()`` — which rebuilds the index from the entries — must pass.  A
removal path that skipped the index fails here.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.graph.bfs import extract_wave
from repro.graph.generators import barabasi_albert_graph
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.planner import execute_stage_task
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.serving import ScoreTableCache, SubgraphCache
from repro.serving.cache import _entry_nbytes as subgraph_nbytes
from repro.serving.result_cache import _answer_nbytes, _entry_nbytes, stage_one_key

GRAPH = barabasi_albert_graph(40, 2, rng=3, name="index-graph")
SPLITS = [(1, 2), (2, 1), (1, 1, 2)]
MAX_REACH = 5


@lru_cache(maxsize=None)
def result_pool():
    """``(key, state, answer)`` for every seed x split: real stage-one
    states and real answers, whose ``metadata["tasks"]`` the rule reads."""
    pool = []
    for split in SPLITS:
        config = MeLoPPRConfig(stage_lengths=split, track_memory=False)
        solver = MeLoPPRSolver(GRAPH, config)
        for seed in range(0, 8, 2):
            query = PPRQuery(seed=seed, k=5, length=sum(split))
            plan = solver.plan(query, track_memory=False)
            plan.complete_stage(
                execute_stage_task(plan.graph, task, timing=plan.timing)
                for task in plan.pending_tasks
            )
            state = plan.stage_one_state()
            plan.close()
            pool.append((stage_one_key(query, config), state, solver.solve(query)))
    return pool


@lru_cache(maxsize=None)
def subgraph_pool():
    """``((centre, depth), ball)`` over a spread of centres."""
    return [
        ((centre, depth), extract_wave(GRAPH, [centre], depth).split()[0])
        for centre in range(0, 40, 3)
        for depth in range(4)
    ]


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class ScanOracle:
    """Both tiers' LRU, TTL and budget rules, with the full-scan update rule.

    An entry is ``[bytes, stored at, answer, bytes without the answer]``.
    """

    def __init__(self, max_bytes, ttl=None, clock=None) -> None:
        self.max_bytes, self.ttl, self.clock = max_bytes, ttl, clock
        self.entries = OrderedDict()
        self.evictions = self.expired = self.rejected = 0

    @property
    def nbytes(self) -> int:
        return sum(entry[0] for entry in self.entries.values())

    def is_expired(self, entry) -> bool:
        return self.ttl is not None and self.clock() - entry[1] >= self.ttl

    def live(self, key):
        entry = self.entries.get(key)
        if entry is not None and self.is_expired(entry):
            del self.entries[key]
            self.expired += 1
            return None
        return entry

    def sweep(self) -> None:
        for key in [key for key, e in self.entries.items() if self.is_expired(e)]:
            del self.entries[key]
            self.expired += 1

    def evict(self, room: int) -> None:
        while self.entries and self.nbytes + room > self.max_bytes:
            self.entries.popitem(last=False)
            self.evictions += 1

    def get(self, key) -> None:
        if self.live(key) is not None:
            self.entries.move_to_end(key)

    def put(self, key, nbytes: int) -> None:
        if nbytes > self.max_bytes:
            self.rejected += 1
            return
        self.entries.pop(key, None)
        self.sweep()
        self.evict(nbytes)
        self.entries[key] = [nbytes, 0.0 if self.clock is None else self.clock(), None, nbytes]

    def attach(self, key, answer, nbytes: int) -> None:
        entry = self.live(key)
        if entry is None or nbytes > self.max_bytes:
            return
        entry[0], entry[2] = nbytes, answer
        self.entries.move_to_end(key)
        self.evict(0)

    def resize(self, max_bytes: int) -> None:
        self.max_bytes = max_bytes
        self.sweep()
        self.evict(0)

    def subgraph_radius(self) -> int:
        return max((key[1] for key in self.entries), default=0)

    def drop_covering(self, reach) -> int:
        dead = [key for key in self.entries if reach[key[0]] <= key[1]]
        for key in dead:
            del self.entries[key]
        return len(dead)

    def result_radius(self) -> int:
        return max(
            (
                key[1][0] if entry[2] is None else max(key[1])
                for key, entry in self.entries.items()
            ),
            default=0,
        )

    def carry(self, reach):
        dropped = carried = kept = stripped = 0
        for key, entry in list(self.entries.items()):
            split = key[1]
            if reach[key[0]] <= split[0]:
                del self.entries[key]
                dropped += 1
                continue
            carried += 1
            answer = entry[2]
            if answer is None:
                continue
            if any(
                reach[record.center_node] <= split[record.stage_index]
                for record in answer.metadata["tasks"]
            ):
                entry[0], entry[2] = entry[3], None
                stripped += 1
            else:
                kept += 1
        return dropped, carried, kept, stripped


def local_reach(near):
    reach = np.full(GRAPH.num_nodes, MAX_REACH, dtype=np.int64)
    for node, distance in near.items():
        reach[node] = distance
    return reach


#: Reach arrays of local updates: far everywhere but at a few nodes, mostly
#: among the seeds and the hubs stage two selects, so updates drop, strip
#: and keep.
REACH = st.dictionaries(
    st.integers(0, 12) | st.integers(0, GRAPH.num_nodes - 1),
    st.integers(0, 3),
    max_size=6,
).map(local_reach)


def assert_same(cache, oracle, charged) -> None:
    """Same keys in the same LRU order, the same bytes, the same counters."""
    assert list(cache._entries) == list(oracle.entries)
    assert [charged(entry) for entry in cache._entries.values()] == [
        entry[0] for entry in oracle.entries.values()
    ]
    stats = cache.stats
    assert stats.current_bytes == oracle.nbytes
    assert (stats.evictions, stats.expired, stats.rejected) == (
        oracle.evictions,
        oracle.expired,
        oracle.rejected,
    )
    cache.validate()


def op_lists(kinds, entries):
    """Op lists drawn from ``kinds`` (repeats weight a kind) over
    ``entries`` pool slots."""
    args = {
        "tick": st.integers(0, 3),
        "resize": st.integers(1, 12),
        "clear": st.none(),
        "update": REACH,
    }
    return st.lists(
        st.one_of([st.tuples(st.just(kind), args.get(kind, entries)) for kind in kinds]),
        min_size=20,
        max_size=60,
    )


RESULT_OPS = op_lists(
    ["put"] * 4 + ["attach"] * 4 + ["get", "probe", "tick"]
    + ["update"] * 2 + ["resize", "clear"],
    st.integers(0, len(SPLITS) * 4 - 1),
)


@settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    budget=st.integers(1, 12),
    ttl=st.sampled_from([None, 2.0, 5.0]),
    ops=RESULT_OPS,
)
# Seed 0 under (1, 1, 2) runs centre 0 at stage one (length 1) and again at
# stage three (length 2): reach 2 there keeps the state but strips the
# answer, which only the longer of the two lengths decides.
@example(budget=12, ttl=None, ops=[("put", 8), ("attach", 8), ("update", local_reach({0: 2}))])
def test_score_table_cache_matches_the_full_scan(budget, ttl, ops):
    pool = result_pool()
    by_key = {entry[0]: entry for entry in pool}
    unit = max(_entry_nbytes(state) + _answer_nbytes(answer) for _, state, answer in pool)
    clock = Clock()
    cache = ScoreTableCache(budget * unit // 3, ttl_seconds=ttl, clock=clock)
    cache.bind(GRAPH)
    oracle = ScanOracle(budget * unit // 3, ttl, clock)
    for op in ops:
        kind = op[0]
        if kind == "update":
            assert cache.radius(GRAPH) == oracle.result_radius()
            assert cache.carry(GRAPH, GRAPH, op[1]) == oracle.carry(op[1])
        elif kind == "tick":
            clock.now += op[1]
        elif kind == "resize":
            cache.resize(op[1] * unit // 3)
            oracle.resize(op[1] * unit // 3)
        elif kind == "clear":
            cache.clear()
            oracle.entries.clear()
        else:
            key, state, answer = pool[op[1]]
            if kind == "attach" and oracle.entries:
                # Mostly to an entry that is there: the pool is larger
                # than a small budget holds.
                present = list(oracle.entries)
                key, state, answer = by_key[present[op[1] % len(present)]]
            if kind == "put":
                cache.put(key, state, GRAPH)
                oracle.put(key, _entry_nbytes(state))
            elif kind == "attach":
                cache.attach_answer(key, answer, GRAPH)
                oracle.attach(key, answer, _entry_nbytes(state) + _answer_nbytes(answer))
            elif kind == "get":
                cache.get(key)
                oracle.get(key)
            else:
                assert (key in cache) == (oracle.live(key) is not None)
        assert_same(cache, oracle, lambda entry: entry[1])
        assert [entry[3] for entry in cache._entries.values()] == [
            entry[2] for entry in oracle.entries.values()
        ]
        assert cache.radius(GRAPH) == oracle.result_radius()


SUBGRAPH_OPS = op_lists(
    ["put"] * 4 + ["get"] * 2 + ["update"] * 2 + ["resize", "clear"],
    st.integers(0, 55),
)


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(budget=st.integers(1, 12), ops=SUBGRAPH_OPS)
def test_subgraph_cache_matches_the_full_scan(budget, ops):
    pool = subgraph_pool()
    unit = max(subgraph_nbytes(ball) for _, ball in pool)
    cache = SubgraphCache(budget * unit // 3)
    oracle = ScanOracle(budget * unit // 3)
    for op in ops:
        kind = op[0]
        if kind == "update":
            assert cache.radius(GRAPH) == oracle.subgraph_radius()
            assert cache.carry(GRAPH, GRAPH, op[1]) == oracle.drop_covering(op[1])
        elif kind == "resize":
            cache.resize(op[1] * unit // 3)
            oracle.resize(op[1] * unit // 3)
        elif kind == "clear":
            cache.clear()
            oracle.entries.clear()
        else:
            (centre, depth), ball = pool[op[1]]
            if kind == "put":
                # The cache's one insert: a stage's misses, after its lookups.
                cache.extract_wave(GRAPH, [centre], depth)
                if (centre, depth) in oracle.entries:
                    oracle.get((centre, depth))
                else:
                    oracle.put((centre, depth), subgraph_nbytes(ball))
            else:
                cache.get(centre, depth)
                oracle.get((centre, depth))
        assert_same(cache, oracle, lambda entry: entry[1])
        assert cache.radius(GRAPH) == oracle.subgraph_radius()
