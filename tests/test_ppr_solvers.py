"""Tests for the PPR baselines: ``LocalPPRSolver`` and the textbook solvers
``tests/oracle.py`` holds (power iteration, Monte Carlo, NetworkX)."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.ppr.base import PPRQuery, PPRSolver
from repro.ppr.local_ppr import LocalPPRSolver
from repro.ppr.metrics import result_precision
from oracle import MonteCarloSolver, NetworkXPPRSolver, PowerIterationSolver


class TestPPRQuery:
    def test_defaults_match_paper(self):
        query = PPRQuery(seed=0)
        assert query.k == 200
        assert query.length == 6
        assert query.alpha == 0.85

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            PPRQuery(seed=0, k=0)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            PPRQuery(seed=0, alpha=1.5)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            PPRQuery(seed=0, length=-1)


class TestLocalPPRSolver:
    def test_top1_is_seed(self, small_ba_graph):
        result = LocalPPRSolver(small_ba_graph).solve(PPRQuery(seed=10, k=5))
        assert result.top_k_nodes(1) == [10]

    def test_matches_power_iteration_when_ball_covers_graph(self, small_ba_graph):
        query = PPRQuery(seed=0, k=30, length=6)
        local = LocalPPRSolver(small_ba_graph).solve(query)
        power = PowerIterationSolver(small_ba_graph).solve(query)
        assert result_precision(local, power) == pytest.approx(1.0)

    def test_scores_are_probabilities(self, small_citation_graph):
        result = LocalPPRSolver(small_citation_graph).solve(PPRQuery(seed=5, k=10))
        assert result.scores.values().sum() == pytest.approx(1.0, abs=1e-9)
        assert all(value >= 0 for _, value in result.scores.items())

    def test_metadata_records_subgraph_size(self, small_ba_graph):
        result = LocalPPRSolver(small_ba_graph).solve(PPRQuery(seed=3, k=5))
        assert result.metadata["subgraph_nodes"] > 0
        assert result.metadata["subgraph_edges"] >= 0
        assert result.metadata["bfs_edges_scanned"] > 0

    def test_memory_tracking_toggle(self, small_ba_graph):
        tracked = LocalPPRSolver(small_ba_graph, track_memory=True).solve(PPRQuery(seed=3))
        untracked = LocalPPRSolver(small_ba_graph, track_memory=False).solve(PPRQuery(seed=3))
        assert tracked.peak_memory_bytes > 0
        assert untracked.peak_memory_bytes == untracked.metadata["modelled_bytes"]

    def test_timing_buckets_present(self, small_ba_graph):
        result = LocalPPRSolver(small_ba_graph).solve(PPRQuery(seed=3))
        assert {"bfs", "diffusion", "aggregation"} <= set(result.timing.seconds)


class TestPowerIterationSolver:
    def test_scores_sum_to_one(self, small_ba_graph):
        result = PowerIterationSolver(small_ba_graph).solve(PPRQuery(seed=0, k=10))
        assert result.scores.values().sum() == pytest.approx(1.0, abs=1e-9)

    def test_iteration_count_recorded(self, small_ba_graph):
        result = PowerIterationSolver(small_ba_graph).solve(PPRQuery(seed=0, length=4))
        assert result.metadata["iterations"] == 4

    def test_early_exit_with_tolerance(self, triangle_graph):
        solver = PowerIterationSolver(triangle_graph, max_iterations=500, tolerance=1e-14)
        result = solver.solve(PPRQuery(seed=0, k=3))
        assert result.metadata["iterations"] < 500

    def test_invalid_max_iterations(self, triangle_graph):
        with pytest.raises(ValueError):
            PowerIterationSolver(triangle_graph, max_iterations=-1)

    def test_seed_has_highest_score(self, small_citation_graph):
        result = PowerIterationSolver(small_citation_graph).solve(PPRQuery(seed=42, k=5))
        assert result.top_k_nodes(1) == [42]


class TestMonteCarloSolver:
    def test_deterministic_given_seeded_rng(self, small_ba_graph):
        a = MonteCarloSolver(small_ba_graph, num_walks=500, rng=3).solve(PPRQuery(seed=0, k=10))
        b = MonteCarloSolver(small_ba_graph, num_walks=500, rng=3).solve(PPRQuery(seed=0, k=10))
        assert a.top_k_nodes() == b.top_k_nodes()

    def test_estimates_sum_to_one(self, small_ba_graph):
        result = MonteCarloSolver(small_ba_graph, num_walks=200, rng=1).solve(PPRQuery(seed=0))
        assert result.scores.values().sum() == pytest.approx(1.0)

    def test_approximates_power_iteration(self, small_ba_graph):
        query = PPRQuery(seed=0, k=10, length=6)
        exact = PowerIterationSolver(small_ba_graph).solve(query)
        estimate = MonteCarloSolver(small_ba_graph, num_walks=8000, rng=1).solve(query)
        assert result_precision(estimate, exact) >= 0.5

    def test_counts_neighborhood_accesses(self, small_ba_graph):
        result = MonteCarloSolver(small_ba_graph, num_walks=100, rng=1).solve(PPRQuery(seed=0))
        assert result.metadata["neighborhood_accesses"] > 0

    def test_rejects_zero_walks(self, small_ba_graph):
        with pytest.raises(ValueError):
            MonteCarloSolver(small_ba_graph, num_walks=0)


class TestNetworkXSolver:
    def test_local_mode_agrees_with_power_iteration(self, small_ba_graph):
        query = PPRQuery(seed=4, k=20, length=6)
        nx_result = NetworkXPPRSolver(small_ba_graph).solve(query)
        power = PowerIterationSolver(small_ba_graph).solve(query)
        assert result_precision(nx_result, power) >= 0.7

    def test_global_mode_runs(self, small_ba_graph):
        result = NetworkXPPRSolver(small_ba_graph, local=False).solve(PPRQuery(seed=4, k=10))
        assert len(result.top_k_nodes(5)) == 5

    def test_seed_ranks_first(self, small_citation_graph):
        result = NetworkXPPRSolver(small_citation_graph).solve(PPRQuery(seed=7, k=5))
        assert result.top_k_nodes(1) == [7]

    def test_metadata_records_mode(self, small_ba_graph):
        result = NetworkXPPRSolver(small_ba_graph, local=True).solve(PPRQuery(seed=1, k=5))
        assert result.metadata["local"] is True

    def test_serving_processes_do_not_import_networkx(self):
        """networkx is a test-side baseline only: a replica, a pool worker
        or the bench process never loads it."""
        code = (
            "import sys; import repro.serving.frontend.http, "
            "repro.serving.replica, repro.serving.backends; "
            "sys.exit('networkx' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_serving_processes_do_not_import_scipy(self):
        """scipy is imported only where a scipy matrix is built: serving
        modules, a cached engine's batches and updates and a solver's query
        all run without it."""
        code = "\n".join(
            [
                "import sys",
                "import repro.serving.frontend.http, repro.serving.replica, "
                "repro.serving.backends",
                "from repro import MeLoPPRSolver, PPRQuery, QueryEngine, SubgraphCache",
                "from repro.graph import load_dataset",
                "from repro.serving.result_cache import ScoreTableCache",
                "solver = MeLoPPRSolver(load_dataset('G1'))",
                "engine = QueryEngine(solver, cache=SubgraphCache(), "
                "result_cache=ScoreTableCache())",
                "queries = [PPRQuery(seed=seed, k=20) for seed in (0, 7, 0, 42)]",
                "engine.solve_batch(queries)",
                "solver.solve(PPRQuery(seed=3, k=20))",
                "neighbor = int(solver.graph.neighbors(0)[0])",
                "engine.apply_update([('delete', 0, neighbor)])",
                "engine.solve_batch(queries)",
                "loaded = [name for name in sys.modules if name.split('.')[0] == 'scipy']",
                "sys.exit(f'scipy modules loaded: {loaded[:5]}' if loaded else 0)",
            ]
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        completed = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert completed.returncode == 0, completed.stderr


class TestSolverInterface:
    def test_solver_is_abstract(self, triangle_graph):
        with pytest.raises(TypeError):
            PPRSolver(triangle_graph)  # type: ignore[abstract]

    def test_result_top_k_defaults_to_query_k(self, small_ba_graph):
        result = LocalPPRSolver(small_ba_graph).solve(PPRQuery(seed=0, k=7))
        assert len(result.top_k()) <= 7

    def test_elapsed_seconds_positive(self, small_ba_graph):
        result = LocalPPRSolver(small_ba_graph).solve(PPRQuery(seed=0, k=5))
        assert result.elapsed_seconds > 0
