"""End-to-end integration tests across the whole stack.

Each test exercises the paper's main claims on the citeseer stand-in:
memory saving (Table II), precision/latency trade-off (Fig. 6/7), and the
consistency of the CPU solver, the FPGA co-simulation and the baselines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.datasets import load_dataset
from repro.hardware.cosim import MeLoPPRFPGASolver
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.selection import AllSelector, RatioSelector
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.ppr.local_ppr import LocalPPRSolver
from repro.ppr.metrics import result_precision
from oracle import MonteCarloSolver, NetworkXPPRSolver, PowerIterationSolver


SEEDS = (10, 250, 1111)


class TestSolverAgreement:
    """All exact solvers must agree; approximations must be close."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_local_ppr_matches_power_iteration(self, citeseer_standin, seed):
        query = PPRQuery(seed=seed, k=50, length=6)
        local = LocalPPRSolver(citeseer_standin, track_memory=False).solve(query)
        power = PowerIterationSolver(citeseer_standin).solve(query)
        assert result_precision(local, power) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_exhaustive_meloppr_matches_baseline(self, citeseer_standin, seed):
        query = PPRQuery(seed=seed, k=50, length=6)
        config = MeLoPPRConfig(
            stage_lengths=(3, 3),
            selector=AllSelector(),
            score_table_factor=None,
            residual_tolerance=0.0,
            track_memory=False,
        )
        exact = LocalPPRSolver(citeseer_standin, track_memory=False).solve(query)
        meloppr = MeLoPPRSolver(citeseer_standin, config).solve(query)
        assert result_precision(meloppr, exact) == pytest.approx(1.0)

    def test_networkx_agrees_with_internal_baseline(self, citeseer_standin):
        query = PPRQuery(seed=10, k=50, length=6)
        internal = LocalPPRSolver(citeseer_standin, track_memory=False).solve(query)
        external = NetworkXPPRSolver(citeseer_standin).solve(query)
        assert result_precision(external, internal) >= 0.7

    def test_monte_carlo_is_a_sane_estimator(self, citeseer_standin):
        query = PPRQuery(seed=10, k=20, length=6)
        exact = LocalPPRSolver(citeseer_standin, track_memory=False).solve(query)
        estimate = MonteCarloSolver(citeseer_standin, num_walks=5000, rng=1).solve(query)
        assert result_precision(estimate, exact) >= 0.4


class TestMemoryClaim:
    """The Table II claim: MeLoPPR needs (much) less memory than the baseline."""

    def test_cpu_memory_reduction(self, citeseer_standin):
        query = PPRQuery(seed=100, k=200, length=6)
        baseline = LocalPPRSolver(citeseer_standin).solve(query)
        config = MeLoPPRConfig.paper_default(0.02)
        meloppr = MeLoPPRSolver(citeseer_standin, config).solve(query)
        assert meloppr.peak_memory_bytes < baseline.peak_memory_bytes

    def test_modelled_working_set_reduction(self, citeseer_standin):
        query = PPRQuery(seed=100, k=200, length=6)
        baseline = LocalPPRSolver(citeseer_standin, track_memory=False).solve(query)
        config = MeLoPPRConfig(
            stage_lengths=(3, 3),
            selector=RatioSelector(0.02),
            score_table_factor=10,
            track_memory=False,
        )
        meloppr = MeLoPPRSolver(citeseer_standin, config).solve(query)
        assert (
            meloppr.metadata["modelled_bytes"] < baseline.metadata["modelled_bytes"]
        )

    def test_fpga_bram_far_below_cpu_footprint(self, citeseer_standin):
        query = PPRQuery(seed=100, k=200, length=6)
        baseline = LocalPPRSolver(citeseer_standin).solve(query)
        fpga = MeLoPPRFPGASolver(citeseer_standin, parallelism=16).solve(query)
        assert fpga.peak_memory_bytes * 10 < baseline.peak_memory_bytes


class TestTradeoffClaim:
    """The Fig. 6/7 claim: more next-stage nodes -> higher precision, more work."""

    def test_precision_and_work_grow_with_ratio(self, citeseer_standin):
        query = PPRQuery(seed=77, k=100, length=6)
        exact = LocalPPRSolver(citeseer_standin, track_memory=False).solve(query)
        precisions = []
        work = []
        for ratio in (0.01, 0.10, 1.0):
            config = MeLoPPRConfig(
                stage_lengths=(3, 3),
                selector=RatioSelector(ratio),
                score_table_factor=None,
                track_memory=False,
            )
            result = MeLoPPRSolver(citeseer_standin, config).solve(query)
            precisions.append(result_precision(result, exact))
            work.append(result.metadata["num_tasks"])
        assert precisions[0] <= precisions[-1]
        assert work == sorted(work)
        assert precisions[-1] == pytest.approx(1.0, abs=1e-9)

    def test_fpga_latency_below_cpu_meloppr_latency(self, citeseer_standin):
        query = PPRQuery(seed=77, k=100, length=6)
        config = MeLoPPRConfig(
            stage_lengths=(3, 3),
            selector=RatioSelector(0.05),
            score_table_factor=10,
            track_memory=False,
        )
        cpu = MeLoPPRSolver(citeseer_standin, config).solve(query)
        fpga = MeLoPPRFPGASolver(citeseer_standin, config, parallelism=16).solve(query)
        cosim = fpga.metadata["cosim"]
        # The FPGA off-loads the diffusion work, so the modelled FPGA compute
        # time must undercut the measured CPU diffusion time.
        fpga_compute = (
            cosim.fpga_report.diffusion_seconds + cosim.fpga_report.scheduling_seconds
        )
        assert fpga_compute < cpu.timing.seconds["diffusion"]


class TestDatasetSuiteSmoke:
    """Every dataset stand-in supports the full pipeline."""

    @pytest.mark.parametrize("dataset", ["G1", "G2", "G3"])
    def test_full_pipeline_per_dataset(self, dataset):
        graph = load_dataset(dataset)
        seed = int(np.argmax(graph.degrees()))
        query = PPRQuery(seed=seed, k=50, length=6)
        exact = LocalPPRSolver(graph, track_memory=False).solve(query)
        config = MeLoPPRConfig.paper_default(0.05)
        result = MeLoPPRSolver(graph, config).solve(query)
        assert result_precision(result, exact) > 0.3
        assert result.top_k_nodes(1) == [seed]
