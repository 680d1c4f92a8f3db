"""Tests for MeLoPPRConfig and the multi-stage MeLoPPRSolver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.selection import AllSelector, CountSelector, RatioSelector
from repro.meloppr.solver import MeLoPPRSolver, StageTaskRecord
from repro.ppr.base import PPRQuery
from repro.ppr.local_ppr import LocalPPRSolver
from repro.ppr.metrics import result_precision


class TestMeLoPPRConfig:
    def test_paper_default(self):
        config = MeLoPPRConfig.paper_default()
        assert config.stage_lengths == (3, 3)
        assert config.total_length == 6
        assert config.score_table_factor == 10

    def test_invalid_stage_lengths(self):
        with pytest.raises(ValueError):
            MeLoPPRConfig(stage_lengths=())
        with pytest.raises(ValueError):
            MeLoPPRConfig(stage_lengths=(3, 0))

    def test_invalid_score_table_factor(self):
        with pytest.raises(ValueError):
            MeLoPPRConfig(score_table_factor=0)

    def test_invalid_residual_tolerance(self):
        with pytest.raises(ValueError):
            MeLoPPRConfig(residual_tolerance=-1.0)


class TestSolverExactness:
    """With every next-stage node expanded, MeLoPPR must equal single-stage PPR."""

    @pytest.fixture()
    def exact_config(self):
        return MeLoPPRConfig(
            stage_lengths=(3, 3),
            selector=AllSelector(),
            score_table_factor=None,
            residual_tolerance=0.0,
            track_memory=False,
        )

    def test_exact_on_ba_graph(self, small_ba_graph, exact_config):
        query = PPRQuery(seed=5, k=50, length=6)
        exact = LocalPPRSolver(small_ba_graph, track_memory=False).solve(query)
        meloppr = MeLoPPRSolver(small_ba_graph, exact_config).solve(query)
        assert result_precision(meloppr, exact) == pytest.approx(1.0)

    def test_exact_scores_match_numerically(self, small_citation_graph, exact_config):
        query = PPRQuery(seed=11, k=30, length=6)
        exact = LocalPPRSolver(small_citation_graph, track_memory=False).solve(query)
        meloppr = MeLoPPRSolver(small_citation_graph, exact_config).solve(query)
        for node, score in exact.scores.items():
            assert meloppr.scores.get(node) == pytest.approx(score, abs=1e-9)

    def test_exact_with_three_stages(self, small_ba_graph):
        config = MeLoPPRConfig(
            stage_lengths=(2, 2, 2),
            selector=AllSelector(),
            score_table_factor=None,
            residual_tolerance=0.0,
            track_memory=False,
        )
        query = PPRQuery(seed=7, k=40, length=6)
        exact = LocalPPRSolver(small_ba_graph, track_memory=False).solve(query)
        meloppr = MeLoPPRSolver(small_ba_graph, config).solve(query)
        assert result_precision(meloppr, exact) == pytest.approx(1.0)


class TestSolverApproximation:
    def test_scores_sum_close_to_one(self, small_ba_graph):
        config = MeLoPPRConfig.paper_default(0.05)
        result = MeLoPPRSolver(small_ba_graph, config).solve(PPRQuery(seed=4, k=30))
        assert result.scores.sum() == pytest.approx(1.0, abs=1e-6)

    def test_seed_ranks_first(self, small_citation_graph):
        config = MeLoPPRConfig.paper_default(0.02)
        result = MeLoPPRSolver(small_citation_graph, config).solve(PPRQuery(seed=20, k=10))
        assert result.top_k_nodes(1) == [20]

    def test_precision_increases_with_selection_ratio(self, citeseer_standin):
        query = PPRQuery(seed=100, k=100, length=6)
        exact = LocalPPRSolver(citeseer_standin, track_memory=False).solve(query)
        precisions = []
        for ratio in (0.01, 0.3, 1.0):
            config = MeLoPPRConfig(
                stage_lengths=(3, 3),
                selector=RatioSelector(ratio),
                score_table_factor=None,
                track_memory=False,
            )
            result = MeLoPPRSolver(citeseer_standin, config).solve(query)
            precisions.append(result_precision(result, exact))
        assert precisions[0] <= precisions[1] + 0.05
        assert precisions[1] <= precisions[2] + 0.05
        assert precisions[-1] == pytest.approx(1.0, abs=1e-9)

    def test_more_selection_means_more_tasks(self, small_ba_graph):
        query = PPRQuery(seed=4, k=30, length=6)
        few = MeLoPPRSolver(small_ba_graph, MeLoPPRConfig.paper_default(0.01)).solve(query)
        many = MeLoPPRSolver(small_ba_graph, MeLoPPRConfig.paper_default(0.20)).solve(query)
        assert many.metadata["num_tasks"] >= few.metadata["num_tasks"]


class TestSolverBookkeeping:
    def test_task_records_structure(self, small_ba_graph):
        config = MeLoPPRConfig.paper_default(0.05)
        result = MeLoPPRSolver(small_ba_graph, config).solve(PPRQuery(seed=3, k=20))
        tasks = result.metadata["tasks"]
        assert all(isinstance(task, StageTaskRecord) for task in tasks)
        assert tasks[0].stage_index == 0
        assert tasks[0].center_node == 3
        assert all(task.subgraph_nodes > 0 for task in tasks)

    def test_stage_one_task_is_first_and_unique(self, small_ba_graph):
        config = MeLoPPRConfig.paper_default(0.1)
        result = MeLoPPRSolver(small_ba_graph, config).solve(PPRQuery(seed=3, k=20))
        stage_zero = [t for t in result.metadata["tasks"] if t.stage_index == 0]
        assert len(stage_zero) == 1

    def test_metadata_counts_consistent(self, small_ba_graph):
        config = MeLoPPRConfig.paper_default(0.1)
        result = MeLoPPRSolver(small_ba_graph, config).solve(PPRQuery(seed=3, k=20))
        tasks = result.metadata["tasks"]
        assert result.metadata["num_tasks"] == len(tasks)
        assert result.metadata["num_next_stage_tasks"] == len(tasks) - 1
        assert result.metadata["max_subgraph_nodes"] == max(t.subgraph_nodes for t in tasks)

    def test_max_subgraph_smaller_than_baseline_ball(self, citeseer_standin):
        """The memory claim: MeLoPPR's largest sub-graph is the depth-l1 ball,
        which is much smaller than the baseline's depth-L ball."""
        query = PPRQuery(seed=200, k=50, length=6)
        baseline = LocalPPRSolver(citeseer_standin, track_memory=False).solve(query)
        config = MeLoPPRConfig.paper_default(0.02)
        config = MeLoPPRConfig(
            stage_lengths=config.stage_lengths,
            selector=config.selector,
            score_table_factor=config.score_table_factor,
            track_memory=False,
        )
        meloppr = MeLoPPRSolver(citeseer_standin, config).solve(query)
        assert (
            meloppr.metadata["max_subgraph_nodes"]
            < baseline.metadata["subgraph_nodes"]
        )

    def test_query_length_resplit_when_config_differs(self, small_ba_graph):
        config = MeLoPPRConfig.paper_default(0.05)   # configured for L = 6
        result = MeLoPPRSolver(small_ba_graph, config).solve(
            PPRQuery(seed=2, k=10, length=4)
        )
        assert sum(result.metadata["stage_lengths"]) == 4

    def test_score_table_bound_respected(self, small_ba_graph):
        config = MeLoPPRConfig(
            stage_lengths=(3, 3),
            selector=RatioSelector(0.2),
            score_table_factor=1,
            track_memory=False,
        )
        result = MeLoPPRSolver(small_ba_graph, config).solve(PPRQuery(seed=3, k=20))
        assert result.metadata["score_table_entries"] <= 20

    def test_timing_buckets(self, small_ba_graph):
        config = MeLoPPRConfig.paper_default(0.05)
        result = MeLoPPRSolver(small_ba_graph, config).solve(PPRQuery(seed=3, k=20))
        assert {"bfs", "diffusion", "aggregation", "selection"} <= set(
            result.timing.seconds
        )

    def test_config_property(self, small_ba_graph):
        config = MeLoPPRConfig.paper_default()
        assert MeLoPPRSolver(small_ba_graph, config).config is config
