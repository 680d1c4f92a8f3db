"""Smoke test: the harness, its declarations and BENCHMARK.json cannot drift.

Runs every workload at ``--smoke`` scale (G1 only, a third of a second of
measurement, one set-up) in both modes through ``run.py`` — the command the driver uses —
and checks that exactly the declared metric names come out.
"""

import json
import math
import os
import re
import subprocess
import sys

import pytest

from . import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def test_declarations_meet_the_contract():
    assert spec.validate() == []
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128
    for name in spec.E2E_NAMES + spec.LAYER_NAMES + tuple(spec.WORKLOADS):
        assert NAME.match(name), name


def test_benchmark_json_matches_the_declarations():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        committed = json.load(handle)
    assert committed == spec.benchmark_json()


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_smoke_run_emits_every_declared_metric_once(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-4000:]
    last = done.stdout.strip().splitlines()[-1]
    # object_pairs_hook sees duplicates a dict would silently merge.
    pairs = json.loads(last, object_pairs_hook=list)
    assert [key for key, _ in pairs] == ["correct", "attempted", "failed", "metrics"]
    result = json.loads(last)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    emitted = [name for name, _ in dict(pairs)["metrics"]]
    declared = spec.LAYER_NAMES if trace else spec.E2E_NAMES
    assert sorted(emitted) == sorted(declared)
    assert len(emitted) == len(set(emitted))
    for name, entry in result["metrics"].items():
        assert entry["unit"] == spec.UNITS[name]
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, f"end-to-end metric {name} must never be 0"
