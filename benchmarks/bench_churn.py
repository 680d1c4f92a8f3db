"""Benchmark — surgical cache invalidation vs clear-everything under churn.

Replays one churn script (E17's update stream: Zipfian hot-seed queries in
micro-batches with random edge insert/delete batches between them) through
two identically configured engines that differ only in invalidation policy:

* ``churn:surgical`` — :meth:`~repro.serving.engine.QueryEngine.apply_update`
  alone: the update's reach bound drops only the cache entries the update
  changes, rekeys the survivors to the new fingerprint and keeps the
  finished answers it provably cannot touch;
* ``churn:clear`` — the same ``apply_update`` followed by clearing both
  cache tiers, i.e. the classic "topology changed, throw everything away"
  baseline (the fingerprint-keyed caches would behave exactly like this on
  a naive swap, since every key's fingerprint goes stale).

Both policies are verified bit-identical to from-scratch rebuilds at every
step — the script carries reference scores from an uncached solver — so the
comparison is purely about how much cached state survives.  The headline
claim asserted under pytest: the surgical engine's combined hit rate is
**strictly higher** than the clearing engine's, and its throughput is gated
against ``benchmarks/baselines/churn.json`` by ``check_regression.py``.

Run under pytest (``pytest benchmarks/bench_churn.py``) or standalone::

    PYTHONPATH=src python benchmarks/bench_churn.py [--json out.json]
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, List, Optional

import numpy as np
import pytest

from repro.experiments.churn_study import make_churn_script
from repro.experiments.workloads import make_zipf_workload
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.selection import RatioSelector
from repro.meloppr.solver import MeLoPPRSolver
from repro.serving.cache import SubgraphCache
from repro.serving.engine import QueryEngine
from repro.serving.result_cache import ScoreTableCache

POLICIES = ("surgical", "clear")


def run_benchmark(
    num_queries: int = 160,
    num_seeds: int = 16,
    batch_size: int = 8,
    update_rate: int = 6,
    cache_budget: int = 4 * 1024 * 1024,
) -> Dict[str, object]:
    """Replay one churn script under both invalidation policies.

    Returns the shared benchmark JSON shape: a top-level config plus a
    ``runs`` list with ``label``/``throughput_qps`` (and the hit rates the
    pytest assertion reads).
    """
    config = MeLoPPRConfig(
        stage_lengths=(3, 3),
        selector=RatioSelector(0.01),
        track_memory=False,
    )
    graph, queries = make_zipf_workload(
        "G1",
        num_queries,
        skew=1.1,
        num_seeds=num_seeds,
        k=50,
        length=6,
        rng=7,
    )
    script = make_churn_script(
        graph,
        queries,
        batch_size,
        update_rate,
        config,
        np.random.default_rng(123),
    )
    runs: List[Dict[str, object]] = []
    for policy in POLICIES:
        with QueryEngine(
            MeLoPPRSolver(graph, config),
            cache=SubgraphCache(cache_budget),
            result_cache=ScoreTableCache(cache_budget),
        ) as engine:
            for step in script:
                if step.ops:
                    engine.apply_update(list(step.ops))
                    if policy == "clear":
                        engine.cache.clear()
                        engine.result_cache.clear()
                results = engine.solve_batch(list(step.batch))
                scores = [dict(result.scores.items()) for result in results]
                if scores != list(step.reference_scores):
                    raise AssertionError(
                        f"churn:{policy}: answers diverged from the "
                        "from-scratch rebuild"
                    )
            stats = engine.stats()
        runs.append(
            {
                "label": f"churn:{policy}",
                "policy": policy,
                "num_queries": stats.queries_served,
                "wall_seconds": stats.wall_seconds,
                "throughput_qps": stats.throughput_qps,
                "hit_rate": None if stats.cache is None else stats.cache.hit_rate,
                "identical": True,
            }
        )
    return {
        "dataset": "G1",
        "num_queries": num_queries,
        "num_seeds": num_seeds,
        "batch_size": batch_size,
        "update_rate": update_rate,
        "cache_budget_bytes": cache_budget,
        "runs": runs,
    }


def report_json(report: Dict[str, object]) -> str:
    """The report as a JSON document."""
    return json.dumps(report, indent=2, sort_keys=True)


@pytest.mark.benchmark(group="serving")
def test_churn_surgical_beats_clearing(benchmark, num_seeds):
    """Surgical invalidation must keep a strictly higher hit rate than clearing."""
    report = benchmark.pedantic(
        run_benchmark,
        kwargs={"num_queries": 160, "num_seeds": max(num_seeds, 16)},
        rounds=1,
        iterations=1,
    )
    document = report_json(report)
    print()
    print(document)

    payload = json.loads(document)
    by_label = {run["label"]: run for run in payload["runs"]}
    assert set(by_label) == {"churn:surgical", "churn:clear"}
    for run in payload["runs"]:
        assert run["throughput_qps"] > 0.0
        assert run["identical"] is True
    surgical = by_label["churn:surgical"]["hit_rate"]
    clearing = by_label["churn:clear"]["hit_rate"]
    assert surgical is not None and clearing is not None
    # The point of the whole delta path: cached state survives updates that
    # provably cannot reach it.  Clearing serves the same stream colder.
    assert surgical > clearing, (
        f"surgical invalidation hit rate {surgical:.1%} is not above the "
        f"clear-everything baseline {clearing:.1%}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point printing the JSON report."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--num-queries", type=int, default=160, help="Zipf arrivals"
    )
    parser.add_argument(
        "--num-seeds", type=int, default=16, help="hot-seed pool size"
    )
    parser.add_argument(
        "--batch-size", type=int, default=8, help="queries per micro-batch"
    )
    parser.add_argument(
        "--update-rate",
        type=int,
        default=6,
        help="edge ops applied between micro-batches",
    )
    parser.add_argument("--json", default=None, help="also write the JSON report here")
    args = parser.parse_args(argv)

    report = run_benchmark(
        num_queries=args.num_queries,
        num_seeds=args.num_seeds,
        batch_size=args.batch_size,
        update_rate=args.update_rate,
    )
    document = report_json(report)
    print(document)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI only
    raise SystemExit(main())
