"""Tests for the FPGA accelerator model and the CPU+FPGA co-simulation."""

from __future__ import annotations

import pytest

from repro.hardware.accelerator import FPGAAccelerator
from repro.hardware.cosim import MeLoPPRFPGASolver, tasks_from_records
from repro.hardware.pe import DiffusionTask
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.solver import MeLoPPRSolver, StageTaskRecord
from repro.ppr.base import PPRQuery
from repro.ppr.local_ppr import LocalPPRSolver
from repro.ppr.metrics import result_precision


def make_tasks(count=8, stage_one_nodes=400):
    tasks = [
        DiffusionTask(
            task_id=0,
            stage_index=0,
            subgraph_nodes=stage_one_nodes,
            subgraph_edges=3 * stage_one_nodes,
            propagations=9 * stage_one_nodes,
            length=3,
            bfs_edges_scanned=3 * stage_one_nodes,
        )
    ]
    for index in range(1, count):
        tasks.append(
            DiffusionTask(
                task_id=index,
                stage_index=1,
                subgraph_nodes=120,
                subgraph_edges=360,
                propagations=1000,
                length=3,
                bfs_edges_scanned=360,
            )
        )
    return tasks


class TestFPGAAccelerator:
    def test_latency_decreases_with_parallelism(self):
        tasks = make_tasks(count=20)
        latencies = []
        for parallelism in (1, 2, 4, 8, 16):
            report = FPGAAccelerator(parallelism=parallelism).execute(tasks)
            latencies.append(report.diffusion_seconds + report.scheduling_seconds)
        assert latencies == sorted(latencies, reverse=True)
        assert latencies[0] / latencies[-1] > 4.0

    def test_breakdown_sums_to_makespan(self):
        report = FPGAAccelerator(parallelism=4).execute(make_tasks())
        assert report.makespan_seconds == pytest.approx(
            report.diffusion_seconds
            + report.scheduling_seconds
            + report.data_movement_seconds
        )

    def test_scheduling_zero_at_p1(self):
        report = FPGAAccelerator(parallelism=1).execute(make_tasks())
        assert report.scheduling_seconds == 0.0

    def test_scheduling_fraction_within_paper_bounds(self):
        tasks = make_tasks(count=32)
        for parallelism, bound in ((2, 0.25), (4, 0.45), (16, 0.45)):
            report = FPGAAccelerator(parallelism=parallelism).execute(tasks)
            compute = report.diffusion_seconds + report.scheduling_seconds
            assert report.scheduling_seconds / compute <= bound

    def test_peak_bram_is_largest_task(self):
        tasks = make_tasks()
        report = FPGAAccelerator(parallelism=2).execute(tasks)
        assert report.peak_pe_bram_bytes == max(task.bram_bytes for task in tasks)

    def test_data_movement_independent_of_parallelism(self):
        tasks = make_tasks()
        a = FPGAAccelerator(parallelism=1).execute(tasks)
        b = FPGAAccelerator(parallelism=16).execute(tasks)
        assert a.data_movement_seconds == pytest.approx(b.data_movement_seconds)

    def test_empty_task_list(self):
        report = FPGAAccelerator(parallelism=4).execute([])
        assert report.diffusion_seconds == 0.0
        assert report.peak_pe_bram_bytes == 0

    def test_resources_attached(self):
        report = FPGAAccelerator(parallelism=8).execute(make_tasks())
        assert report.resources.parallelism == 8

    def test_invalid_parallelism(self):
        with pytest.raises(ValueError):
            FPGAAccelerator(parallelism=0)


class TestTasksFromRecords:
    def test_conversion_preserves_fields(self):
        records = [
            StageTaskRecord(
                stage_index=0,
                center_node=5,
                weight=1.0,
                subgraph_nodes=50,
                subgraph_edges=80,
                bfs_edges_scanned=120,
                propagations=400,
            )
        ]
        tasks = tasks_from_records(records, (3, 3))
        assert tasks[0].subgraph_nodes == 50
        assert tasks[0].length == 3
        assert tasks[0].stage_index == 0

    def test_stage_length_lookup_clamped(self):
        records = [
            StageTaskRecord(
                stage_index=5,
                center_node=1,
                weight=0.1,
                subgraph_nodes=10,
                subgraph_edges=10,
                bfs_edges_scanned=10,
                propagations=10,
            )
        ]
        tasks = tasks_from_records(records, (3, 3))
        assert tasks[0].length == 3


class TestMeLoPPRFPGASolver:
    def test_scores_identical_to_cpu_solver(self, small_ba_graph):
        config = MeLoPPRConfig.paper_default(0.05)
        config = MeLoPPRConfig(
            stage_lengths=config.stage_lengths,
            selector=config.selector,
            score_table_factor=config.score_table_factor,
            track_memory=False,
        )
        query = PPRQuery(seed=6, k=30, length=6)
        cpu = MeLoPPRSolver(small_ba_graph, config).solve(query)
        fpga = MeLoPPRFPGASolver(small_ba_graph, config, parallelism=4).solve(query)
        assert fpga.top_k_nodes() == cpu.top_k_nodes()

    def test_timing_buckets(self, small_ba_graph):
        solver = MeLoPPRFPGASolver(small_ba_graph, parallelism=4)
        result = solver.solve(PPRQuery(seed=6, k=20))
        assert {
            "cpu_bfs",
            "fpga_diffusion",
            "fpga_scheduling",
            "fpga_data_movement",
        } <= set(result.timing.seconds)

    def test_cosim_report_attached(self, small_ba_graph):
        result = MeLoPPRFPGASolver(small_ba_graph, parallelism=2).solve(PPRQuery(seed=6, k=20))
        report = result.metadata["cosim"]
        assert report.total_seconds == pytest.approx(
            report.cpu_seconds + report.fpga_report.fpga_seconds
        )
        assert 0.0 <= report.bfs_fraction <= 1.0

    def test_peak_memory_is_bram_bytes(self, small_ba_graph):
        result = MeLoPPRFPGASolver(small_ba_graph, parallelism=2).solve(PPRQuery(seed=6, k=20))
        assert result.peak_memory_bytes == result.metadata["fpga_peak_pe_bram_bytes"]

    def test_fpga_memory_much_smaller_than_cpu_baseline(self, citeseer_standin):
        """The Table II headline: FPGA BRAM bytes << baseline CPU bytes."""
        query = PPRQuery(seed=50, k=200, length=6)
        baseline = LocalPPRSolver(citeseer_standin).solve(query)
        fpga = MeLoPPRFPGASolver(citeseer_standin, parallelism=16).solve(query)
        assert fpga.peak_memory_bytes * 5 < baseline.peak_memory_bytes

    def test_precision_reasonable_at_default_config(self, citeseer_standin):
        query = PPRQuery(seed=50, k=100, length=6)
        exact = LocalPPRSolver(citeseer_standin, track_memory=False).solve(query)
        fpga = MeLoPPRFPGASolver(citeseer_standin, parallelism=16).solve(query)
        assert result_precision(fpga, exact) > 0.3
