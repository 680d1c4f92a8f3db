"""Benchmark — sharded serving throughput (partitioners × shard counts).

Measures queries/second for a repeated-seed workload answered through a
shard-routed :class:`~repro.serving.engine.QueryEngine` (per-shard sub-graph
caches, halo-extended shard graphs) for every partition strategy × shard
count, and emits the measurements as JSON — a top-level config plus a
``runs`` list — including the per-shard cache hit rates and the cross-shard
fallback rate.

Run under pytest (``pytest benchmarks/bench_sharded_serving.py``) or
standalone::

    PYTHONPATH=src python benchmarks/bench_sharded_serving.py [--json out.json]
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional

import pytest

from repro.experiments.sharding_study import (
    ShardingStudy,
    format_sharding,
    run_sharding_study,
)


def run_benchmark(
    num_seeds: int = 8,
    repeat_factor: int = 6,
    shard_counts=(2, 4),
) -> ShardingStudy:
    """The measured sweep: hot seeds on the citeseer stand-in, k = 100."""
    return run_sharding_study(
        dataset="G1",
        num_seeds=num_seeds,
        repeat_factor=repeat_factor,
        shard_counts=shard_counts,
    )


def study_json(study: ShardingStudy) -> str:
    """The study as a JSON document (throughputs, hit rates, fallback rates)."""
    return json.dumps(study.as_dict(), indent=2, sort_keys=True)


@pytest.mark.benchmark(group="serving")
def test_sharded_serving_throughput(benchmark, num_seeds):
    """Sharded serving must stay correct and report locality in its JSON."""
    study = benchmark.pedantic(
        run_benchmark,
        kwargs={"num_seeds": max(num_seeds, 4), "repeat_factor": 4},
        rounds=1,
        iterations=1,
    )
    print()
    print(format_sharding(study))
    document = study_json(study)
    print(document)

    payload = json.loads(document)
    assert payload["runs"], "sweep produced no runs"
    for run in payload["runs"]:
        # The JSON must carry the locality metrics with sane values.
        assert 0.0 <= run["cache_hit_rate"] <= 1.0
        assert 0.0 <= run["cross_shard_fallback_rate"] <= 1.0
        assert len(run["per_shard_hit_rates"]) == run["num_shards"]
        assert all(0.0 <= rate <= 1.0 for rate in run["per_shard_hit_rates"])
        assert run["halo_overhead_bytes"] >= 0
    # The paper-default halo covers every stage depth: all extractions local.
    assert all(run["cross_shard_fallback_rate"] == 0.0 for run in payload["runs"])
    # The repeated-seed workload must actually hit the per-shard caches.
    assert max(run["cache_hit_rate"] for run in payload["runs"]) > 0.3
    # Correctness is enforced inside run_sharding_study (bit-identical to the
    # unsharded serial path); reaching this point means it held.


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point printing the table and JSON."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--num-seeds", type=int, default=8, help="distinct hot seeds")
    parser.add_argument("--repeat-factor", type=int, default=6, help="queries per seed")
    parser.add_argument(
        "--shard-counts",
        type=int,
        nargs="+",
        default=[2, 4],
        help="shard counts to sweep",
    )
    parser.add_argument("--json", default=None, help="also write the JSON report here")
    args = parser.parse_args(argv)

    study = run_benchmark(
        num_seeds=args.num_seeds,
        repeat_factor=args.repeat_factor,
        shard_counts=tuple(args.shard_counts),
    )
    print(format_sharding(study))
    document = study_json(study)
    print(document)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI only
    raise SystemExit(main())
