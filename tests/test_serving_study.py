"""Smoke and schema tests for the sharding study (E10) and its bench.

The benchmark script promises a stable JSON shape (consumed by CI and any
dashboarding downstream), so these tests run the study with tiny parameters
and validate the emitted documents: keys, types, and rates inside [0, 1].
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.experiments.sharding_study import format_sharding, run_sharding_study

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def load_bench_module(name):
    """Import a benchmark script by file path (benchmarks/ is not a package)."""
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def assert_rate(value):
    assert isinstance(value, float)
    assert 0.0 <= value <= 1.0


class TestShardingStudySchema:
    @pytest.fixture(scope="class")
    def study(self):
        return run_sharding_study(
            num_seeds=2, repeat_factor=2, shard_counts=(2,), strategies=("hash",)
        )

    def test_as_dict_schema(self, study):
        payload = study.as_dict()
        assert payload["halo_depth"] == 3
        assert isinstance(payload["unsharded_qps"], float)
        assert len(payload["runs"]) == 1
        (run,) = payload["runs"]
        assert run["label"] == "hash-s2"
        assert run["num_shards"] == 2
        assert_rate(run["cache_hit_rate"])
        assert_rate(run["cross_shard_fallback_rate"])
        assert len(run["per_shard_hit_rates"]) == 2
        for rate in run["per_shard_hit_rates"]:
            assert_rate(rate)
        assert isinstance(run["halo_overhead_bytes"], int)
        assert run["replication_factor"] >= 1.0

    def test_format_mentions_experiment(self, study):
        assert "E10" in format_sharding(study)


class TestShardingStudySweep:
    @pytest.fixture(scope="class")
    def study(self):
        return run_sharding_study(
            num_seeds=2,
            repeat_factor=2,
            shard_counts=(2, 3),
            strategies=("hash", "range"),
        )

    def test_runs_cover_the_sweep(self, study):
        # Strategy-major order, one run per strategy × shard count.
        assert [run.label for run in study.runs] == [
            "hash-s2",
            "hash-s3",
            "range-s2",
            "range-s3",
        ]
        for run in study.runs:
            assert run.label == f"{run.strategy}-s{run.num_shards}"
            assert run.num_queries == 4
            assert run.cache_enabled is True
            assert len(run.per_shard_hit_rates) == run.num_shards
        assert study.best in study.runs

    def test_speedups_are_relative_to_unsharded(self, study):
        assert study.unsharded_qps > 0.0
        for run in study.runs:
            assert run.speedup_vs_unsharded == pytest.approx(
                run.throughput_qps / study.unsharded_qps
            )

    def test_format_renders_every_run(self, study):
        table = format_sharding(study)
        for run in study.runs:
            assert run.label in table


class TestShardedBenchScript:
    @pytest.fixture(scope="class")
    def bench(self):
        return load_bench_module("bench_sharded_serving")

    def test_main_writes_json_file(self, bench, tmp_path):
        out = tmp_path / "sharded.json"
        code = bench.main(
            [
                "--num-seeds",
                "2",
                "--repeat-factor",
                "2",
                "--shard-counts",
                "2",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["dataset"] == "G1"
        for run in payload["runs"]:
            assert_rate(run["cache_hit_rate"])
            assert_rate(run["cross_shard_fallback_rate"])
            assert len(run["per_shard_hit_rates"]) == run["num_shards"]

    def test_json_feeds_the_regression_gate(self, bench, tmp_path):
        # The gate reads the bench's ``runs`` list by label and throughput.
        out = tmp_path / "sharded.json"
        argv = ["--num-seeds", "2", "--repeat-factor", "2", "--shard-counts", "2"]
        assert bench.main(argv + ["--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        metrics = load_bench_module("check_regression").extract_metrics(payload)
        assert set(metrics) == {run["label"] for run in payload["runs"]}
        assert set(metrics) == {"hash-s2", "range-s2", "degree-s2"}
        assert all(qps > 0.0 for qps in metrics.values())
