"""The serving-throughput gate, ``benchmarks/check_regression.py``.

The gated benchmark (``bench_sharded_serving.py``) writes a ``runs`` list of
``label`` / ``throughput_qps`` entries; the checker compares the best of
repeated reports against a committed baseline in ``benchmarks/baselines/``.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def load_bench_module(name):
    """Import a benchmark script by file path (benchmarks/ is not a package)."""
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class TestCheckRegression:
    @pytest.fixture(scope="class")
    def checker(self):
        return load_bench_module("check_regression")

    @pytest.fixture()
    def report(self):
        return {
            "runs": [
                {"label": "serial", "throughput_qps": 100.0},
                {"label": "hash-s2", "throughput_qps": 300.0},
            ]
        }

    def test_extract_metrics(self, checker, report):
        assert checker.extract_metrics(report) == {
            "serial": 100.0,
            "hash-s2": 300.0,
        }
        with pytest.raises(ValueError, match="runs"):
            checker.extract_metrics({})
        with pytest.raises(ValueError, match="throughput_qps"):
            checker.extract_metrics({"runs": [{"label": "x"}]})

    def test_min_of_repeats_takes_best(self, checker, report):
        noisy = {
            "runs": [
                {"label": "serial", "throughput_qps": 40.0},  # noisy dip
                {"label": "hash-s2", "throughput_qps": 310.0},
            ]
        }
        best = checker.best_metrics([noisy, report])
        assert best == {"serial": 100.0, "hash-s2": 310.0}

    def test_within_tolerance_passes(self, checker):
        checks = checker.check_metrics(
            {"serial": 100.0}, {"serial": 80.0}, tolerance=0.30
        )
        assert all(check.passed for check in checks)

    def test_regression_beyond_tolerance_fails(self, checker):
        checks = checker.check_metrics(
            {"serial": 100.0}, {"serial": 50.0}, tolerance=0.30
        )
        assert not checks[0].passed
        assert checks[0].ratio == pytest.approx(0.5)

    def test_missing_configuration_fails(self, checker):
        checks = checker.check_metrics({"serial": 100.0}, {}, tolerance=0.30)
        assert not checks[0].passed
        assert checks[0].candidate_qps is None
        # A newly added configuration (candidate-only) is not gated yet.
        checks = checker.check_metrics(
            {"serial": 100.0}, {"serial": 100.0, "new": 5.0}
        )
        assert len(checks) == 1

    def test_cli_gate_and_synthetic_slowdown(self, checker, report, tmp_path, capsys):
        run_path = tmp_path / "run.json"
        run_path.write_text(json.dumps(report))
        baseline_path = tmp_path / "baseline.json"

        # 1. Write the baseline from a measured report.
        assert (
            checker.main(
                ["--baseline", str(baseline_path), "--update", str(run_path)]
            )
            == 0
        )
        baseline = json.loads(baseline_path.read_text())
        assert baseline["metrics"] == {"serial": 100.0, "hash-s2": 300.0}

        # 2. The gate passes on the same numbers.
        assert checker.main(["--baseline", str(baseline_path), str(run_path)]) == 0
        assert "all 2 configurations" in capsys.readouterr().out

        # 3. A synthetic 2x slowdown trips the gate (exit code 1).
        slow = {
            "runs": [
                {"label": run["label"], "throughput_qps": run["throughput_qps"] / 2}
                for run in report["runs"]
            ]
        }
        slow_path = tmp_path / "slow.json"
        slow_path.write_text(json.dumps(slow))
        assert checker.main(["--baseline", str(baseline_path), str(slow_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "regressed" in out

    def test_committed_baselines_match_gated_benchmarks(self, checker):
        # Exactly the gated benchmarks have a committed baseline, each with
        # plausible content: a stale or a missing baseline fails here.
        paths = sorted((BENCH_DIR / "baselines").glob("*.json"))
        assert {path.stem for path in paths} == {"sharded"}
        for path in paths:
            document = json.loads(path.read_text())
            assert document["metrics"], f"{path.stem} baseline has no metrics"
            for value in document["metrics"].values():
                assert value > 0.0

    def test_best_metrics_requires_a_report(self, checker):
        with pytest.raises(ValueError, match="at least one"):
            checker.best_metrics([])

    def test_format_checks_reports_each_outcome(self, checker):
        checks = checker.check_metrics(
            {"serial": 100.0, "hash-s2": 300.0, "thread:2": 200.0},
            {"serial": 95.0, "hash-s2": 60.0},
            tolerance=0.30,
        )
        lines = checker.format_checks(checks, 0.30).splitlines()
        assert lines[0].split() == ["configuration", "baseline", "candidate", "ratio", "status"]
        rows = {line.split()[0]: line for line in lines[1:]}
        assert set(rows) == {"serial", "hash-s2", "thread:2"}
        assert rows["serial"].endswith("ok") and "0.95x" in rows["serial"]
        assert "FAIL (>30% regression)" in rows["hash-s2"] and "0.20x" in rows["hash-s2"]
        assert "missing" in rows["thread:2"] and "FAIL" in rows["thread:2"]

    def test_cli_takes_the_best_of_repeated_reports(self, checker, report, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps({"metrics": {"serial": 100.0, "hash-s2": 300.0}}))
        noisy = {
            "runs": [
                {"label": "serial", "throughput_qps": 10.0},
                {"label": "hash-s2", "throughput_qps": 30.0},
            ]
        }
        noisy_path = tmp_path / "noisy.json"
        noisy_path.write_text(json.dumps(noisy))
        steady_path = tmp_path / "steady.json"
        steady_path.write_text(json.dumps(report))
        # One noisy run alone fails; paired with a steady repeat it passes.
        assert checker.main(["--baseline", str(baseline_path), str(noisy_path)]) == 1
        assert (
            checker.main(["--baseline", str(baseline_path), str(noisy_path), str(steady_path)])
            == 0
        )
        assert "all 2 configurations" in capsys.readouterr().out

    def test_cli_tolerance_flag_sets_the_bound(self, checker, report, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps({"metrics": {"serial": 200.0, "hash-s2": 600.0}}))
        run_path = tmp_path / "run.json"
        run_path.write_text(json.dumps(report))  # half the baseline throughput
        assert checker.main(["--baseline", str(baseline_path), str(run_path)]) == 1
        assert (
            checker.main(["--baseline", str(baseline_path), "--tolerance", "0.6", str(run_path)])
            == 0
        )
        assert "within 60% of baseline" in capsys.readouterr().out

    def test_cli_update_records_the_best_of_repeated_reports(self, checker, report, tmp_path):
        slow = {
            "runs": [
                {"label": "serial", "throughput_qps": 120.0},
                {"label": "hash-s2", "throughput_qps": 150.0},
            ]
        }
        paths = []
        for name, document in (("a.json", report), ("b.json", slow)):
            paths.append(tmp_path / name)
            paths[-1].write_text(json.dumps(document))
        baseline_path = tmp_path / "baseline.json"
        assert checker.main(["--baseline", str(baseline_path), "--update", *map(str, paths)]) == 0
        baseline = json.loads(baseline_path.read_text())
        assert baseline["metrics"] == {"serial": 120.0, "hash-s2": 300.0}
        assert "--update" in baseline["note"]

    def test_cli_rejects_a_baseline_without_metrics(self, checker, report, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps({"note": "no metrics"}))
        run_path = tmp_path / "run.json"
        run_path.write_text(json.dumps(report))
        with pytest.raises(SystemExit, match="no 'metrics' mapping"):
            checker.main(["--baseline", str(baseline_path), str(run_path)])

    def test_tolerance_validation(self, checker):
        with pytest.raises(ValueError, match="tolerance"):
            checker.check_metrics({"a": 1.0}, {"a": 1.0}, tolerance=1.5)
