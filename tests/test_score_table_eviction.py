"""Differential tests of the bounded score table's heap-based eviction.

:class:`GlobalScoreTable` finds its eviction victim through a lazily
maintained min-heap.  The oracle here is the table as it was before the heap
— a ``min`` scan over every stored entry with a ``(score, -node)`` key — and
the two must agree on every victim, every stored bit, the insertion order and
every counter, for any stream of updates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.meloppr.aggregation import GlobalScoreTable, ScoreTableSnapshot


class ScanTable:
    """Reference table: evicts by scanning all entries (O(capacity) a victim)."""

    def __init__(self, capacity: Optional[int], evictions_are_final: bool = True) -> None:
        self.capacity = capacity
        self.final = evictions_are_final
        self.scores: Dict[int, float] = {}
        self.evicted: Dict[int, float] = {}
        self.updates = 0
        self.victims: List[int] = []

    def add(self, node: int, score: float) -> None:
        self.updates += 1
        if node in self.scores:
            self.scores[node] += score
            return
        previous = 0.0 if self.final else self.evicted.pop(node, 0.0)
        self.scores[node] = previous + score
        if self.capacity is not None and len(self.scores) > self.capacity:
            victim = min(self.scores.items(), key=lambda item: (item[1], -item[0]))[0]
            value = self.scores.pop(victim)
            self.victims.append(victim)
            if not self.final:
                self.evicted[victim] = self.evicted.get(victim, 0.0) + value

    def snapshot(self) -> ScoreTableSnapshot:
        return ScoreTableSnapshot(
            capacity=self.capacity,
            evictions_are_final=self.final,
            scores=tuple(self.scores.items()),
            evicted=tuple(self.evicted.items()),
            total_updates=self.updates,
            total_evictions=len(self.victims),
        )

    def top_k(self, k: int) -> List[Tuple[int, float]]:
        return sorted(self.scores.items(), key=lambda item: (-item[1], item[0]))[:k]


def bits(snapshot: ScoreTableSnapshot):
    """A snapshot with its floats spelled out, so ``-0.0 != 0.0``."""

    def spell(pairs):
        return tuple((node, float(value).hex()) for node, value in pairs)

    return (
        snapshot.capacity,
        snapshot.evictions_are_final,
        spell(snapshot.scores),
        spell(snapshot.evicted),
        snapshot.total_updates,
        snapshot.total_evictions,
    )


def add_and_name_victim(table: GlobalScoreTable, node: int, score: float) -> Optional[int]:
    """One ``add``; the node it evicted, seen from outside the table."""
    before = {stored for stored, _ in table.snapshot().scores} | {node}
    evictions = table.total_evictions
    table.add(node, score)
    if table.total_evictions == evictions:
        return None
    (victim,) = before - {stored for stored, _ in table.snapshot().scores}
    return victim


# Few nodes and a coarse score grid: exact ties, zero sums, corrections that
# push an entry below its neighbours and re-insertion after eviction all
# happen within a few dozen operations.
NODES = st.integers(min_value=0, max_value=11)
SCORES = st.one_of(
    st.sampled_from([0.25, 0.5, 0.5, 1.0, -0.25, -0.5, -1.0, 0.0, -0.0]),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
STREAMS = st.lists(st.tuples(NODES, SCORES), min_size=1, max_size=120)


@settings(max_examples=300, deadline=None)
@given(
    stream=STREAMS,
    capacity=st.integers(min_value=1, max_value=6),
    final=st.booleans(),
    handover=st.integers(min_value=0, max_value=120),
)
def test_heap_table_matches_scan_table(stream, capacity, final, handover):
    table = GlobalScoreTable(capacity=capacity, evictions_are_final=final)
    oracle = ScanTable(capacity, final)
    victims: List[int] = []
    for step, (node, score) in enumerate(stream):
        if step == handover:
            # The heap is not part of a snapshot; the twin must rebuild it.
            table = GlobalScoreTable.from_snapshot(table.snapshot())
        victim = add_and_name_victim(table, node, score)
        if victim is not None:
            victims.append(victim)
        oracle.add(node, score)
        assert bits(table.snapshot()) == bits(oracle.snapshot())
    assert victims == oracle.victims
    assert table.total_updates == oracle.updates == len(stream)
    assert table.total_evictions == len(oracle.victims)
    assert table.top_k(capacity) == oracle.top_k(capacity)
    assert table.nbytes() == 8 * len(oracle.scores)


@settings(max_examples=100, deadline=None)
@given(
    stream=STREAMS,
    capacity=st.integers(min_value=1, max_value=6),
    final=st.booleans(),
    chunk=st.integers(min_value=1, max_value=40),
)
def test_add_many_matches_scan_table(stream, capacity, final, chunk):
    table = GlobalScoreTable(capacity=capacity, evictions_are_final=final)
    oracle = ScanTable(capacity, final)
    for start in range(0, len(stream), chunk):
        part = stream[start : start + chunk]
        nodes = np.asarray([node for node, _ in part], dtype=np.int64)
        scores = np.asarray([score for _, score in part], dtype=np.float64)
        table.add_many(nodes, scores)
        for node, score in part:
            oracle.add(node, score)
        assert bits(table.snapshot()) == bits(oracle.snapshot())


class TestHeapIsDerivedState:
    def test_table_that_never_overflows_holds_no_heap(self):
        table = GlobalScoreTable(capacity=8)
        for node in range(8):
            table.add(node, 1.0 + node)
            table.add(node, -0.5)
        assert table.total_evictions == 0
        assert table._heap is None
        assert GlobalScoreTable(capacity=None)._heap is None

    def test_restored_table_holds_no_heap_until_it_overflows(self):
        table = GlobalScoreTable(capacity=3)
        table.add_many(range(6), [0.1, 0.6, 0.2, 0.5, 0.3, 0.4])
        assert table.total_evictions == 3 and table._heap is not None
        twin = GlobalScoreTable.from_snapshot(table.snapshot())
        assert twin._heap is None
        twin.add(3, 1.0)  # stored node: no overflow, still no heap
        assert twin._heap is None
        twin.add(9, 0.45)
        table.add(3, 1.0)
        table.add(9, 0.45)
        assert twin._heap is not None
        assert twin.snapshot() == table.snapshot()

    def test_snapshot_does_not_carry_the_heap(self):
        table = GlobalScoreTable(capacity=2)
        table.add_many([1, 2, 3], [0.3, 0.2, 0.1])
        assert not any("heap" in name for name in vars(table.snapshot()))

    @pytest.mark.parametrize("final", [True, False])
    def test_heap_stays_within_twice_the_capacity(self, final):
        capacity = 16
        rng = np.random.default_rng(7)
        table = GlobalScoreTable(capacity=capacity, evictions_are_final=final)
        oracle = ScanTable(capacity, final)
        longest = 0
        for _ in range(20_000):
            node = int(rng.integers(0, 40))
            # Mostly corrections: the only update that grows the heap.
            score = float(rng.choice([-0.125, -0.125, -0.25, 0.5]))
            table.add(node, score)
            oracle.add(node, score)
            if table._heap is not None:
                longest = max(longest, len(table._heap))
        assert capacity < longest <= 2 * capacity
        assert bits(table.snapshot()) == bits(oracle.snapshot())
        assert table.nbytes() == 8 * capacity
