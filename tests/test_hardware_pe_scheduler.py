"""Tests for the PE cycle model, the scheduler and the transfer model."""

from __future__ import annotations

import pytest

from repro.hardware.data_transfer import TransferModel
from repro.hardware.pe import DiffusionTask, PECycleCosts, ProcessingElement
from repro.hardware.platform import KC705
from repro.hardware.scheduler import (
    Scheduler,
    conflict_probability,
    conflict_stall_cycles,
)


def make_task(task_id=0, stage=1, nodes=100, edges=300, propagations=900, length=3):
    return DiffusionTask(
        task_id=task_id,
        stage_index=stage,
        subgraph_nodes=nodes,
        subgraph_edges=edges,
        propagations=propagations,
        length=length,
        bfs_edges_scanned=edges,
    )


class TestDiffusionTask:
    def test_bram_bytes_formula(self):
        task = make_task(nodes=10, edges=20)
        assert task.bram_bytes == 4 * (2 * 10 + 2 * 20 + 2 * 10 + 10)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            make_task(nodes=0)

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            make_task(propagations=-1)


class TestProcessingElement:
    def test_cycles_scale_with_work(self):
        pe = ProcessingElement()
        small = pe.execute(make_task(propagations=100))
        large = pe.execute(make_task(propagations=10_000))
        assert large.diffusion_cycles > small.diffusion_cycles

    def test_total_cycles_is_sum_of_phases(self):
        report = ProcessingElement().execute(make_task())
        assert report.total_cycles == pytest.approx(
            report.load_cycles + report.diffusion_cycles + report.aggregation_cycles
        )

    def test_custom_costs_respected(self):
        costs = PECycleCosts(cycles_per_edge=10.0)
        fast = ProcessingElement().execute(make_task())
        slow = ProcessingElement(costs).execute(make_task())
        assert slow.diffusion_cycles > fast.diffusion_cycles

    def test_writes_include_node_updates(self):
        task = make_task(nodes=50, propagations=200, length=3)
        report = ProcessingElement().execute(task)
        assert report.score_table_writes == 200 + 50 * 3


class TestConflictModel:
    def test_no_conflict_at_p1(self):
        assert conflict_probability(1) == 0.0

    def test_bounded_below_half(self):
        for parallelism in (2, 4, 8, 16, 64):
            assert 0.0 < conflict_probability(parallelism) < 0.5

    def test_monotone_in_parallelism(self):
        values = [conflict_probability(p) for p in (2, 4, 8, 16)]
        assert values == sorted(values)

    def test_paper_overhead_bounds(self):
        """Sched. overhead fraction p/(1+p): <20% at P=2, <40% for larger P."""
        for parallelism, bound in ((2, 0.20), (4, 0.40), (8, 0.40), (16, 0.40)):
            probability = conflict_probability(parallelism)
            assert probability / (1 + probability) <= bound

    def test_stall_cycles_scaling(self):
        assert conflict_stall_cycles(1000, 2) == pytest.approx(250.0)
        assert conflict_stall_cycles(0, 8) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            conflict_probability(0)
        with pytest.raises(ValueError):
            conflict_stall_cycles(-1, 2)


class TestScheduler:
    def test_empty_task_list(self):
        result = Scheduler(4).run([])
        assert result.makespan_cycles == 0.0
        assert result.scheduled == ()

    def test_stage_one_splits_across_pes(self):
        task = make_task(stage=0, propagations=16_000)
        serial = Scheduler(1).run([task])
        parallel = Scheduler(16).run([task])
        assert parallel.makespan_cycles < serial.makespan_cycles / 4

    def test_later_tasks_fill_pes(self):
        tasks = [make_task(task_id=i) for i in range(16)]
        serial = Scheduler(1).run(tasks)
        parallel = Scheduler(16).run(tasks)
        assert parallel.makespan_cycles < serial.makespan_cycles / 4

    def test_makespan_never_below_single_task(self):
        tasks = [make_task(task_id=i) for i in range(4)]
        single_cycles = ProcessingElement().execute(tasks[0]).total_cycles
        result = Scheduler(8).run(tasks)
        assert result.makespan_cycles >= single_cycles

    def test_scheduling_cycles_zero_at_p1(self):
        tasks = [make_task(task_id=i) for i in range(4)]
        assert Scheduler(1).run(tasks).scheduling_cycles == 0.0

    def test_scheduling_cycles_grow_with_parallelism(self):
        tasks = [make_task(task_id=i) for i in range(32)]
        p2 = Scheduler(2).run(tasks)
        p16 = Scheduler(16).run(tasks)
        assert p16.scheduling_cycles >= 0.0
        assert p2.scheduling_cycles >= 0.0
        # Per-write conflict probability grows with P.
        assert (
            p16.scheduling_cycles / p16.diffusion_cycles
            >= p2.scheduling_cycles / p2.diffusion_cycles
        )

    def test_invalid_parallelism(self):
        with pytest.raises(ValueError):
            Scheduler(0)


class TestTransferModel:
    def test_transfer_seconds_includes_latency(self):
        model = TransferModel()
        assert model.transfer_seconds(0) == pytest.approx(KC705.pcie_latency_s)

    def test_transfer_seconds_scale_with_bytes(self):
        model = TransferModel()
        assert model.transfer_seconds(10**6) > model.transfer_seconds(10**3)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            TransferModel().transfer_seconds(-1)

    def test_result_download_bytes(self):
        assert TransferModel().result_download_bytes(200) == 1600

    def test_query_report_aggregates(self):
        model = TransferModel()
        report = model.query_report([(100, 300), (50, 120)], num_next_stage_nodes=5, k=200)
        assert report.upload_bytes == model.subgraph_upload_bytes(
            100, 300
        ) + model.subgraph_upload_bytes(50, 120)
        assert report.download_bytes == model.next_stage_download_bytes(
            5
        ) + model.result_download_bytes(200)
        assert report.num_transfers == 4
        assert report.seconds > 0

    def test_query_report_no_next_stage(self):
        report = TransferModel().query_report([(10, 10)], num_next_stage_nodes=0, k=10)
        assert report.num_transfers == 2

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            TransferModel().result_download_bytes(0)
