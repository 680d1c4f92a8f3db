"""Differential tests of the bounded score table's array-native fold.

:class:`GlobalScoreTable` keeps parallel id / score arrays; ``add`` evicts by
``argmin`` and ``add_many`` folds a whole batch in one vectorised pass.  The
oracle here is the table as first written — a dict and a ``min`` scan over
every stored entry with a ``(score, -node)`` key, one update at a time — and
the two must agree on every victim, every stored bit, the insertion order and
every counter, for any stream of updates.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.datasets import load_dataset
from repro.meloppr import aggregation
from repro.meloppr.aggregation import GlobalScoreTable, ScoreTableSnapshot
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.planner import execute_stage_task
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery


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

    def add_many(self, nodes, scores) -> None:
        for node, score in zip(nodes, scores):
            self.add(int(node), float(score))

    def snapshot(self) -> ScoreTableSnapshot:
        return ScoreTableSnapshot(
            capacity=self.capacity,
            evictions_are_final=self.final,
            ids=list(self.scores),
            scores=list(self.scores.values()),
            evicted=tuple(self.evicted.items()),
            total_updates=self.updates,
            total_evictions=len(self.victims),
        )

    def top_k(self, k: int) -> List[Tuple[int, float]]:
        return sorted(self.scores.items(), key=lambda item: (-item[1], item[0]))[: max(k, 0)]


def bits(snapshot: ScoreTableSnapshot):
    """A snapshot with its floats spelled out, so ``-0.0 != 0.0``."""
    return (
        snapshot.capacity,
        snapshot.evictions_are_final,
        tuple(snapshot.ids.tolist()),
        tuple(value.hex() for value in snapshot.scores.tolist()),
        tuple((node, float(value).hex()) for node, value in snapshot.evicted),
        snapshot.total_updates,
        snapshot.total_evictions,
    )


def add_and_name_victim(table: GlobalScoreTable, node: int, score: float) -> Optional[int]:
    """One ``add``; the node it evicted, seen from outside the table."""
    before = set(table.snapshot().ids.tolist()) | {node}
    evictions = table.total_evictions
    table.add(node, score)
    if table.total_evictions == evictions:
        return None
    (victim,) = before - set(table.snapshot().ids.tolist())
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
def test_scalar_add_matches_scan_table(stream, capacity, final, handover):
    table = GlobalScoreTable(capacity=capacity, evictions_are_final=final)
    oracle = ScanTable(capacity, final)
    victims: List[int] = []
    for step, (node, score) in enumerate(stream):
        if step == handover:
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
def test_add_many_of_any_stream_matches_scan_table(stream, capacity, final, chunk):
    # Repeated ids and negative scores: mostly the one-by-one fallback.
    table = GlobalScoreTable(capacity=capacity, evictions_are_final=final)
    oracle = ScanTable(capacity, final)
    for start in range(0, len(stream), chunk):
        part = stream[start : start + chunk]
        nodes = np.asarray([node for node, _ in part], dtype=np.int64)
        scores = np.asarray([score for _, score in part], dtype=np.float64)
        table.add_many(nodes, scores)
        oracle.add_many(nodes, scores)
        assert bits(table.snapshot()) == bits(oracle.snapshot())


# The batch path proper: distinct ids, non-negative scores from a three-value
# alphabet (plus both zeros) so that ties dominate, interleaved with scalar
# adds and negative corrections.
BATCHES = st.tuples(
    st.just("many"),
    st.lists(st.integers(min_value=0, max_value=23), unique=True, max_size=24).flatmap(
        lambda ids: st.tuples(
            st.just(ids),
            st.lists(
                st.sampled_from([0.25, 0.5, 1.0, 0.25, 0.5, 1.0, 0.0, -0.0]),
                min_size=len(ids),
                max_size=len(ids),
            ),
        )
    ),
)
SINGLES = st.tuples(
    st.just("one"),
    st.tuples(
        st.integers(min_value=0, max_value=23),
        st.sampled_from([0.25, 0.5, -0.25, -0.5, -1.0, 0.0, -0.0]),
    ),
)


@settings(max_examples=400, deadline=None)
@given(
    operations=st.lists(st.one_of(BATCHES, BATCHES, SINGLES), min_size=1, max_size=12),
    capacity=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    final=st.booleans(),
    handover=st.integers(min_value=0, max_value=12),
    chunk=st.sampled_from([1, 2, 5, 512]),
)
def test_batch_fold_matches_scan_table(operations, capacity, final, handover, chunk):
    table = GlobalScoreTable(capacity=capacity, evictions_are_final=final)
    oracle = ScanTable(capacity, final)
    frozen = None
    with mock.patch.object(aggregation, "_CHUNK", chunk):
        for step, (kind, (first, second)) in enumerate(operations):
            if step == handover:
                frozen = table.snapshot()
                frozen_bits = bits(frozen)
                table = GlobalScoreTable.from_snapshot(frozen)
            if kind == "many":
                table.add_many(np.asarray(first, dtype=np.int64), np.asarray(second))
                oracle.add_many(first, second)
            else:
                table.add(first, second)
                oracle.add(first, second)
            assert bits(table.snapshot()) == bits(oracle.snapshot())
    if frozen is not None:
        assert bits(frozen) == frozen_bits  # the twin moved on alone
    for k in (-1, 0, 1, 3, len(oracle.scores), len(oracle.scores) + 2):
        assert table.top_k(k) == oracle.top_k(k)
    assert table.nbytes() == 8 * len(oracle.scores)


def folded(capacity, *operations, final=True):
    """The same operations into the table and the oracle; both returned."""
    table = GlobalScoreTable(capacity=capacity, evictions_are_final=final)
    oracle = ScanTable(capacity, final)
    for nodes, scores in operations:
        if isinstance(nodes, int):
            table.add(nodes, scores)
            oracle.add(nodes, scores)
        else:
            table.add_many(np.asarray(nodes, dtype=np.int64), np.asarray(scores, dtype=np.float64))
            oracle.add_many(nodes, scores)
    assert bits(table.snapshot()) == bits(oracle.snapshot())
    return table, oracle


class TestBatchRuleRegressions:
    def test_node_evicted_earlier_in_its_own_batch_reenters_from_zero(self):
        # 7 is the minimum, 20 and 21 push it out, then its increment arrives:
        # it restarts at 0.0 + 0.6 (not 0.1 + 0.6) and costs one more eviction.
        table, oracle = folded(
            3, ([7, 8, 9], [0.1, 0.5, 0.9]), ([20, 21, 7, 22], [0.7, 0.8, 0.6, 0.05])
        )
        assert oracle.victims == [7, 8, 7, 22]
        assert table.total_evictions == 4
        assert 7 not in table and table.get(20) == 0.7

    def test_reentry_that_survives_appends_in_batch_order(self):
        table, _ = folded(3, ([7, 8, 9], [0.1, 0.5, 0.9]), ([20, 7, 21], [0.7, 2.0, 0.8]))
        assert table.snapshot().ids.tolist() == [9, 7, 21]
        assert table.get(7) == 2.0 and table.total_evictions == 3

    def test_later_increment_sees_an_earlier_reentry_at_its_fresh_key(self):
        # 1 re-enters at 0.0 + 0.4 and falls out again; had it risen to 0.3 + 0.4
        # it would have pushed 2 out before 2's own increment arrived.
        table, oracle = folded(
            3, ([1, 2, 3], [0.3, 0.5, 0.9]), ([10, 1, 11, 2], [1.0, 0.4, 0.45, 0.1])
        )
        assert oracle.victims == [1, 1, 11] and table.get(2) == 0.6
        folded(2, ([1, 2], [0.5, 0.75]), ([5, 6, 1, 7, 2], [1.0, 1.0, 0.25, 0.5, 0.25]))
        folded(2, ([1, 2], [0.5, 0.75]), ([5, 1, 2, 6], [1.0, 0.5, 0.25, 0.25]))

    def test_reentry_from_a_negative_score_lands_above_its_raised_key(self):
        # 1 holds -1.0, is pushed out and comes back at 0.0 + 0.6 (not -0.4),
        # which is what pushes 2 out before 2's own increment arrives.
        table, oracle = folded(
            3, ([1, 2, 3], [0.5, 0.5, 2.0]), (1, -1.5), ([10, 1, 2], [1.0, 0.6, 0.2])
        )
        assert oracle.victims == [1, 2, 2] and table.get(1) == 0.6

    def test_fresh_negative_zero_into_a_full_table_is_stored_as_zero(self):
        table, oracle = folded(2, ([8, 9], [0.0, 0.5]), ([3], [-0.0]))
        assert oracle.victims == [8]
        assert bits(table.snapshot())[2:4] == ((9, 3), ((0.5).hex(), (0.0).hex()))

    def test_absent_id_below_the_minimum_evicts_itself(self):
        table, oracle = folded(2, ([1, 2], [0.5, 0.75]), ([3, 4], [0.25, 0.5]))
        assert oracle.victims == [3, 4]  # 4 ties node 1 on score and loses on id
        assert table.snapshot().ids.tolist() == [1, 2]
        assert (table.total_updates, table.total_evictions) == (4, 2)

    @pytest.mark.parametrize(
        "batch",
        [([3, 4, 3, 5], [0.5, 0.25, 0.5, 1.0]), ([3, 4, 5], [0.5, -0.25, 1.0])],
        ids=["duplicate-ids", "negative-score"],
    )
    def test_batches_the_rule_does_not_cover_go_one_by_one(self, batch):
        with mock.patch.object(
            GlobalScoreTable, "_fold_overflow", side_effect=AssertionError("batch path taken")
        ):
            folded(2, ([1, 2], [0.5, 0.75]), batch)

    def test_non_final_mode_goes_one_by_one_and_keeps_the_ledger(self):
        table, _ = folded(2, ([1, 2], [0.5, 0.75]), ([3], [1.0]), ([1], [0.5]), final=False)
        # 1 came back with its evicted 0.5 on top and pushed 2 into the ledger.
        assert table.get(1) == 1.0 and table.snapshot().evicted == ((2, 0.75),)

    def test_batch_that_straddles_the_fill_point(self):
        table, oracle = folded(4, ([1, 2], [0.5, 0.25]), ([2, 3, 4, 5, 1, 6], [0.25, 0.1, 0.2, 0.3, 0.5, 0.4]))
        assert oracle.victims == [3, 4]
        assert table.snapshot().ids.tolist() == [1, 2, 5, 6]

    def test_first_batch_into_an_empty_table_is_a_copy(self):
        nodes, scores = np.asarray([9, 4, 7]), np.asarray([0.25, -0.0, 0.5])
        table = GlobalScoreTable(capacity=8)
        table.add_many(nodes, scores)
        assert bits(table.snapshot())[2:4] == ((9, 4, 7), ((0.25).hex(), (0.0).hex(), (0.5).hex()))
        scores[0] = 9.0  # the table kept its own storage
        assert table.get(9) == 0.25

    def test_top_k_edges_and_a_tie_group_cut_by_k(self):
        table, oracle = folded(None, ([5, 1, 9, 3, 7, 2], [0.5, 0.5, 1.0, 0.5, 0.25, 0.5]))
        assert table.top_k(0) == table.top_k(-3) == []
        assert table.top_k(3) == [(9, 1.0), (1, 0.5), (2, 0.5)]  # 3 and 5 tie and lose on id
        assert table.top_k(6) == table.top_k(60) == oracle.top_k(6)
        assert table.top_k_nodes(2) == [9, 1]
        assert all(type(n) is int and type(s) is float for n, s in table.top_k(6))

    @pytest.mark.parametrize("final", [True, False])
    def test_long_stream_of_corrections(self, final):
        rng = np.random.default_rng(7)
        table = GlobalScoreTable(capacity=16, evictions_are_final=final)
        oracle = ScanTable(16, final)
        for _ in range(5_000):
            node = int(rng.integers(0, 40))
            score = float(rng.choice([-0.125, -0.125, -0.25, 0.5]))
            table.add(node, score)
            oracle.add(node, score)
        assert bits(table.snapshot()) == bits(oracle.snapshot())
        assert table.nbytes() == 8 * 16


class TestSnapshot:
    def make(self) -> GlobalScoreTable:
        table = GlobalScoreTable(capacity=3)
        table.add_many([4, 1, 8, 6], [0.5, 0.25, 0.75, 0.3])
        return table

    def test_equality_is_ids_score_bits_order_and_counters(self):
        table = self.make()
        assert table.snapshot() == table.snapshot()
        assert table.snapshot() == GlobalScoreTable.from_snapshot(table.snapshot()).snapshot()
        base = dict(capacity=2, evictions_are_final=True, evicted=(), total_updates=2, total_evictions=0)
        one = ScoreTableSnapshot(ids=[1, 2], scores=[0.0, 0.5], **base)
        assert one == ScoreTableSnapshot(ids=np.asarray([1, 2]), scores=(0.0, 0.5), **base)
        assert one != ScoreTableSnapshot(ids=[1, 2], scores=[-0.0, 0.5], **base)
        assert one != ScoreTableSnapshot(ids=[2, 1], scores=[0.5, 0.0], **base)
        assert one != ScoreTableSnapshot(ids=[1, 2], scores=[0.0, 0.5], **{**base, "total_updates": 3})
        assert one != "snapshot" and one.num_entries == 2

    def test_arrays_are_read_only_private_copies(self):
        table = self.make()
        frozen = table.snapshot()
        before = bits(frozen)
        for array in (frozen.ids, frozen.scores):
            with pytest.raises(ValueError):
                array[0] = 1
        twin = GlobalScoreTable.from_snapshot(frozen)
        for target in (table, twin):  # in-place increments, an eviction, a correction
            target.add_many([4, 8, 30, 31], [1.0, 1.0, 2.0, 2.0])
            target.add(8, -0.5)
        assert bits(frozen) == before
        assert bits(table.snapshot()) == bits(twin.snapshot())

    def test_exported_vector_is_detached_from_the_table(self):
        table = self.make()
        vector = table.to_sparse_vector()
        table.add(4, 1.0)
        vector.add(8, 1.0)
        assert vector.get(4) == 0.5 and table.get(8) == 0.75


def drive(solver: MeLoPPRSolver, query: PPRQuery):
    """One query through the plan's public surface; the result and its folds."""
    plan = solver.plan(query, track_memory=False)
    folds: List[tuple] = []
    try:
        while not plan.done:
            tasks = plan.pending_tasks
            # The corrections of the stage just folded are this stage's weights.
            folds.extend((task.center, -task.weight) for task in tasks if task.stage_index > 0)
            outcomes = [execute_stage_task(plan.graph, task) for task in tasks]
            folds.extend(
                (outcome.subgraph.global_ids, task.weight * outcome.diffusion.accumulated)
                for task, outcome in zip(tasks, outcomes)
            )
            plan.complete_stage(outcomes)
    finally:
        plan.close()
    return plan.finish(), folds


class TestPaperOperatingPoint:
    """G3 at k=200, c=10, (3,3): the counts the layered benchmark freezes."""

    POOL = Path(__file__).resolve().parents[1] / "benchmarks" / "layered" / "cold_pool.json"

    def test_frozen_eviction_counts_and_top_200(self):
        pool = json.loads(self.POOL.read_text(encoding="utf-8"))
        panel = []
        for low, high in pool["bands"][::2]:  # six of the twelve eviction levels
            panel.append(next((n, e) for n, e in pool["nodes"] if low <= e <= high))
        assert len(panel) == 6 and pool["capacity"] == 2000
        solver = MeLoPPRSolver(load_dataset(pool["dataset"]), MeLoPPRConfig.paper_default())
        for node, frozen in panel:
            result, folds = drive(solver, PPRQuery(seed=node, k=pool["k"]))
            assert result.metadata["score_table_evictions"] == frozen
            assert result.metadata["score_table_entries"] == 2000
            oracle = ScanTable(pool["capacity"])
            for first, second in folds:
                if isinstance(first, int):
                    oracle.add(first, second)
                else:
                    oracle.add_many(first.tolist(), second.tolist())
            assert len(oracle.victims) == frozen
            assert result.top_k() == oracle.top_k(pool["k"])
