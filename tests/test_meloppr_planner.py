"""Tests for the planner/executor split and degenerate query lengths.

That every serving path answers as the solver does is
``tests/test_conformance.py``'s matrix."""

from __future__ import annotations

import pytest

from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.planner import (
    MeLoPPRPlan,
    StageTask,
    _resplit,
    execute_plan,
    execute_stage,
    execute_stage_per_ball,
    execute_stage_task,
)
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.ppr.local_ppr import LocalPPRSolver
from repro.ppr.metrics import result_precision
from repro.serving.engine import QueryEngine


@pytest.fixture()
def config():
    return MeLoPPRConfig.paper_default()


class TestPlannerProtocol:
    def test_stage_one_tasks(self, small_ba_graph, config):
        plan = MeLoPPRPlan(small_ba_graph, config, PPRQuery(seed=7, k=20))
        assert not plan.done
        tasks = plan.pending_tasks
        assert len(tasks) == 1
        task = tasks[0]
        assert task == StageTask(stage_index=0, center=7, length=3, weight=1.0, alpha=0.85)

    def test_manual_drive_matches_solve(self, small_ba_graph, config):
        solver = MeLoPPRSolver(small_ba_graph, config)
        query = PPRQuery(seed=7, k=20)
        expected = solver.solve(query)

        plan = solver.plan(query)
        stages = 0
        while not plan.done:
            outcomes = [
                execute_stage_task(plan.graph, task, timing=plan.timing)
                for task in plan.pending_tasks
            ]
            plan.complete_stage(outcomes)
            stages += 1
        result = plan.finish()
        assert stages == 2
        assert result.top_k() == expected.top_k()
        assert result.metadata["num_tasks"] == expected.metadata["num_tasks"]
        assert result.metadata["tasks"] == expected.metadata["tasks"]

    def test_outcome_count_mismatch_raises(self, small_ba_graph, config):
        plan = MeLoPPRPlan(small_ba_graph, config, PPRQuery(seed=7, k=20))
        with pytest.raises(ValueError):
            plan.complete_stage([])
        plan.close()

    def test_finish_before_done_raises(self, small_ba_graph, config):
        plan = MeLoPPRPlan(small_ba_graph, config, PPRQuery(seed=7, k=20))
        with pytest.raises(RuntimeError):
            plan.finish()
        plan.close()

    def test_complete_after_done_raises(self, small_ba_graph, config):
        solver = MeLoPPRSolver(small_ba_graph, config)
        plan = solver.plan(PPRQuery(seed=7, k=20))
        execute_plan(plan)
        with pytest.raises(RuntimeError):
            plan.complete_stage([])

    def test_both_stage_runners_yield_lazily_in_task_order(self, small_ba_graph, config):
        plan = MeLoPPRSolver(small_ba_graph, config).plan(PPRQuery(seed=7, k=20))
        runners = (
            (execute_stage, lambda wave: wave.tasks),
            (execute_stage_per_ball, lambda outcome: (outcome.task,)),
        )
        for runner, tasks_of in runners:
            outcomes = runner(plan, plan.pending_tasks)
            assert iter(outcomes) is outcomes  # nothing ran yet
            assert [task for o in outcomes for task in tasks_of(o)] == list(plan.pending_tasks)
        plan.close()


class TestMemoryTrackerLifecycle:
    def test_inspecting_a_plan_is_free(self, small_ba_graph, config):
        import tracemalloc

        from repro.memory.tracker import MemoryTracker

        assert not tracemalloc.is_tracing()
        plan = MeLoPPRPlan(small_ba_graph, config, PPRQuery(seed=7, k=20))
        # Building and inspecting tasks must not touch the global trace or
        # hold the tracker serialisation lock.
        assert plan.pending_tasks
        assert not tracemalloc.is_tracing()
        assert MemoryTracker._global_lock.acquire(blocking=False)
        MemoryTracker._global_lock.release()
        plan.close()

    def test_executed_plan_releases_tracing(self, small_ba_graph, config):
        import tracemalloc

        solver = MeLoPPRSolver(small_ba_graph, config)
        assert config.track_memory
        result = solver.solve(PPRQuery(seed=7, k=20))
        assert result.peak_memory_bytes > 0
        assert not tracemalloc.is_tracing()

    def test_track_memory_override(self, small_ba_graph, config):
        assert config.track_memory
        solver = MeLoPPRSolver(small_ba_graph, config)
        plan = solver.plan(PPRQuery(seed=7, k=20), track_memory=False)
        result = execute_plan(plan)
        # With tracking off, the peak falls back to the modelled bytes.
        assert result.peak_memory_bytes == result.metadata["modelled_bytes"]


class TestResplit:
    def test_zero_length(self):
        assert _resplit(0, (3, 3)) == (0,)
        assert _resplit(0, (2, 2, 2)) == (0,)

    def test_shorter_than_stages(self):
        assert _resplit(1, (3, 3)) == (1,)
        assert _resplit(2, (2, 2, 2)) == (1, 1)

    def test_proportional(self):
        assert _resplit(8, (3, 3)) == (4, 4)
        assert _resplit(7, (3, 3)) == (4, 3)


class TestDegenerateQueryLengths:
    """Regression: length-0 and length-1 queries (satellite of PR 1)."""

    def test_length_zero_returns_seed(self, small_ba_graph, config):
        result = MeLoPPRSolver(small_ba_graph, config).solve(
            PPRQuery(seed=5, k=10, length=0)
        )
        assert result.metadata["stage_lengths"] == (0,)
        assert result.metadata["num_tasks"] == 1
        assert result.top_k() == [(5, 1.0)]

    def test_length_one_matches_baseline(self, small_ba_graph, config):
        # k below the depth-1 ego size so top-k is fully determined.
        query = PPRQuery(seed=5, k=10, length=1)
        result = MeLoPPRSolver(small_ba_graph, config).solve(query)
        baseline = LocalPPRSolver(small_ba_graph, track_memory=False).solve(query)
        assert result.metadata["stage_lengths"] == (1,)
        assert result_precision(result, baseline) == pytest.approx(1.0)
        got = dict(result.scores.items())
        for node, score in baseline.scores.items():
            assert got.get(node, 0.0) == pytest.approx(score, abs=1e-12)

    def test_length_zero_through_engine(self, small_ba_graph, config):
        with QueryEngine(MeLoPPRSolver(small_ba_graph, config)) as engine:
            results = engine.solve_batch(
                [PPRQuery(seed=seed, k=5, length=0) for seed in (1, 2, 3)]
            )
        assert [result.top_k() for result in results] == [
            [(1, 1.0)],
            [(2, 1.0)],
            [(3, 1.0)],
        ]


class TestScoreTableCapacity:
    """Regression: capacity lives on the config, not at call sites."""

    def test_capacity_formula(self):
        config = MeLoPPRConfig.paper_default()
        assert config.score_table_capacity(200) == 2000
        assert config.score_table_capacity(1) == 10

    def test_unbounded(self):
        config = MeLoPPRConfig(score_table_factor=None)
        assert config.score_table_capacity(200) is None

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            MeLoPPRConfig.paper_default().score_table_capacity(0)

    def test_solver_uses_config_capacity(self, small_ba_graph):
        config = MeLoPPRConfig.paper_default()
        result = MeLoPPRSolver(small_ba_graph, config).solve(PPRQuery(seed=7, k=3))
        assert result.metadata["score_table_entries"] <= config.score_table_capacity(3)
