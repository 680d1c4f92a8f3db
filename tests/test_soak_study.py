"""Tests for E15, the HTTP soak/overload study.

The dataclass arithmetic (degradation, shed rate, JSON shape) is pinned on
synthetic runs; one small real soak then proves the study's core claims
end-to-end: sustained shedding at 10x with a conserved outcome ledger and
``/metrics`` agreement (enforced inside ``run_soak_study`` itself).
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.soak_study import (
    SoakRun,
    SoakStudy,
    _extend_for_multiplier,
    format_soak,
    main,
    run_soak_study,
)
from repro.experiments.workloads import make_open_loop_workload


def make_run(label, multiplier, goodput, offered=100, shed=0, expired=0):
    completed = offered - shed - expired
    return SoakRun(
        label=label,
        multiplier=multiplier,
        rate_qps=multiplier * 100.0,
        offered=offered,
        completed=completed,
        shed=shed,
        expired=expired,
        wall_seconds=completed / goodput if goodput else 0.0,
        goodput_qps=goodput,
        p50_ms=1.0,
        p95_ms=2.0,
        p99_ms=3.0,
        server_completed=completed,
        server_shed=shed,
    )


def make_study(runs):
    return SoakStudy(
        dataset="G1",
        capacity_qps=100.0,
        num_seeds=5,
        num_arrivals=60,
        max_pending=8,
        pool_size=16,
        runs=tuple(runs),
    )


class TestSoakMath:
    def test_shed_rate(self):
        run = make_run("1x", 1.0, 90.0, offered=200, shed=50)
        assert run.shed_rate == 0.25
        empty = make_run("1x", 1.0, 0.0, offered=0)
        assert empty.shed_rate == 0.0

    def test_peak_and_degradation(self):
        study = make_study(
            [
                make_run("0.5x", 0.5, 80.0),
                make_run("1x", 1.0, 100.0),
                make_run("10x", 10.0, 75.0, shed=500, offered=1000),
            ]
        )
        assert study.peak_goodput_qps == 100.0
        assert study.overload_degradation == pytest.approx(0.25)

    def test_degradation_zero_when_overload_is_peak(self):
        study = make_study(
            [make_run("1x", 1.0, 90.0), make_run("10x", 10.0, 95.0)]
        )
        # The 10x run served *more* than 1x: no degradation (clamped sign
        # convention: negative loss is reported as a negative number, which
        # still passes any <= threshold).
        assert study.overload_degradation <= 0.0

    def test_degradation_keys_on_multiplier_not_order(self):
        study = make_study(
            [make_run("10x", 10.0, 50.0), make_run("1x", 1.0, 100.0)]
        )
        assert study.overload_degradation == pytest.approx(0.5)

    def test_by_label(self):
        study = make_study([make_run("1x", 1.0, 90.0)])
        assert study.by_label()["1x"].goodput_qps == 90.0

    def test_as_dict_carries_the_gate_metric(self):
        """The report's runs carry label + throughput_qps, like every serving bench."""
        study = make_study(
            [make_run("1x", 1.0, 90.0), make_run("10x", 10.0, 85.0)]
        )
        payload = json.loads(json.dumps(study.as_dict()))
        assert [run["label"] for run in payload["runs"]] == ["1x", "10x"]
        for run in payload["runs"]:
            assert run["throughput_qps"] == run["goodput_qps"]
        assert payload["overload_degradation"] == pytest.approx(
            study.overload_degradation
        )

    def test_format_soak_mentions_every_run(self):
        study = make_study(
            [make_run("0.5x", 0.5, 80.0), make_run("10x", 10.0, 75.0)]
        )
        table = format_soak(study)
        assert "E15" in table
        assert "0.5x" in table and "10x" in table
        assert "capacity 100 qps" in table


class TestWorkloadTiling:
    def test_tiling_preserves_duration_and_scales_volume(self):
        workload = make_open_loop_workload(
            "G1", num_seeds=3, num_arrivals=10, k=20, rng=7
        )
        base_queries = list(workload.queries)
        base_arrivals = list(workload.arrival_seconds)

        queries, arrivals = _extend_for_multiplier(workload, 4.0)
        assert len(queries) == 4 * len(base_queries)
        assert len(arrivals) == 4 * len(base_arrivals)
        assert queries[: len(base_queries)] == base_queries
        # Each copy replays the same Poisson sequence, shifted by the span.
        span = base_arrivals[-1] + 1.0
        for copy in range(4):
            offset = copy * span
            chunk = arrivals[copy * len(base_arrivals) : (copy + 1) * len(base_arrivals)]
            assert chunk == pytest.approx([offset + at for at in base_arrivals])
        # Arrivals are monotone: copies do not overlap.
        assert arrivals == sorted(arrivals)

    def test_sub_unit_multiplier_is_one_copy(self):
        workload = make_open_loop_workload(
            "G1", num_seeds=3, num_arrivals=10, k=20, rng=7
        )
        queries, arrivals = _extend_for_multiplier(workload, 0.5)
        assert len(queries) == len(list(workload.queries))
        assert arrivals == pytest.approx(list(workload.arrival_seconds))


class TestSmallRealSoak:
    @pytest.fixture(scope="class")
    def study(self):
        # One small sweep shared by every assertion below; run_soak_study
        # itself enforces bit-identical answers and /metrics agreement.
        # The pool must be wider than the admission bound, or the
        # closed-loop connections can never overfill the queue and nothing
        # sheds no matter the offered rate.
        return run_soak_study(
            num_seeds=3,
            num_arrivals=24,
            multipliers=(1.0, 10.0),
            max_pending=4,
            pool_size=16,
        )

    def test_overload_sheds_not_collapses(self, study):
        overload = study.by_label()["10x"]
        assert overload.shed > 0, "10x offered load must shed"
        assert overload.completed > 0, "shedding must not starve service"
        # The acceptance claim, with slack for a tiny CI-sized run.
        assert study.overload_degradation <= 0.5

    def test_outcome_ledger_is_conserved(self, study):
        for run in study.runs:
            assert run.completed + run.shed + run.expired == run.offered
            assert run.server_completed == run.completed
            assert run.server_shed == run.shed
            assert 0.0 <= run.shed_rate <= 1.0

    def test_latency_percentiles_ordered(self, study):
        for run in study.runs:
            assert 0.0 <= run.p50_ms <= run.p95_ms <= run.p99_ms

    def test_overload_offers_proportionally_more(self, study):
        by_label = study.by_label()
        assert by_label["10x"].offered == 10 * by_label["1x"].offered
        assert by_label["10x"].rate_qps == pytest.approx(
            10 * by_label["1x"].rate_qps
        )

    def test_capacity_is_positive_and_finite(self, study):
        assert 0 < study.capacity_qps < float("inf")


class TestCli:
    def test_main_writes_json(self, tmp_path, capsys):
        out = tmp_path / "soak.json"
        code = main(
            [
                "--num-seeds", "3",
                "--num-arrivals", "16",
                "--multipliers", "1", "10",
                "--pool-size", "8",
                "--json", str(out),
            ]
        )
        assert code == 0
        assert "E15" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert [run["label"] for run in payload["runs"]] == ["1x", "10x"]
        for run in payload["runs"]:
            assert run["throughput_qps"] == run["goodput_qps"]
