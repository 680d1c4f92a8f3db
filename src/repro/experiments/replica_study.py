"""Experiment E16 — multi-replica serving scaling (replica counts × sockets).

This study is not a paper artefact: it characterises the replicated serving
layer added on top of the reproduction.  For every replica count in the
sweep it launches a real fleet — ``N`` server subprocesses supervised by
:class:`~repro.serving.replica.ReplicaSet` behind a
:class:`~repro.serving.frontend.router.ReplicaRouter` — and pushes the same
repeated-seed workload through the router's HTTP front door with a fixed
client concurrency.  Everything travels through real sockets: the numbers
include HTTP parsing, JSON, consistent-hash routing, and the per-replica
micro-batchers.

Every answer is verified **bit-identical** to the serial in-process engine
before the study returns — replication must be a pure scale-out layer,
never a numerical one.  The router's per-replica counters are folded into
each run so the report shows how evenly the ring spread the workload.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.reporting import format_ratio, format_table
from repro.experiments.workloads import make_repeated_seed_workload
from repro.ppr.base import PPRQuery
from repro.serving.frontend.config import ServingConfig, build_frontend
from repro.serving.frontend.http import HttpClientPool
from repro.serving.frontend.router import ReplicaRouter
from repro.serving.replica import ReplicaSet
from repro.utils.rng import RngLike

__all__ = ["ReplicaRun", "ReplicaStudy", "run_replica_study", "format_replica"]


@dataclass(frozen=True)
class ReplicaRun:
    """One fleet size's measurements over the workload."""

    label: str
    replicas: int
    num_queries: int
    wall_seconds: float
    throughput_qps: float
    speedup_vs_single: float
    max_replica_share: float
    retries: int
    failovers: int
    per_replica_answers: Tuple[int, ...]

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON emission."""
        return {
            "label": self.label,
            "replicas": self.replicas,
            "num_queries": self.num_queries,
            "wall_seconds": self.wall_seconds,
            "throughput_qps": self.throughput_qps,
            "speedup_vs_single": self.speedup_vs_single,
            "max_replica_share": self.max_replica_share,
            "retries": self.retries,
            "failovers": self.failovers,
            "per_replica_answers": list(self.per_replica_answers),
        }


@dataclass(frozen=True)
class ReplicaStudy:
    """The full replica-count sweep."""

    dataset: str
    num_seeds: int
    repeat_factor: int
    k: int
    num_shards: int
    concurrency: int
    runs: Tuple[ReplicaRun, ...]

    def by_label(self) -> Dict[str, ReplicaRun]:
        """Runs keyed by configuration label."""
        return {run.label: run for run in self.runs}

    @property
    def best(self) -> ReplicaRun:
        """The highest-throughput run."""
        return max(self.runs, key=lambda run: run.throughput_qps)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON emission."""
        return {
            "dataset": self.dataset,
            "num_seeds": self.num_seeds,
            "repeat_factor": self.repeat_factor,
            "k": self.k,
            "num_shards": self.num_shards,
            "concurrency": self.concurrency,
            "runs": [run.as_dict() for run in self.runs],
        }


async def _drive(
    router: ReplicaRouter,
    workload: Sequence[Tuple[int, int]],
    expected: Dict[int, List[List[float]]],
    concurrency: int,
) -> float:
    """Push the workload through the router; returns the wall seconds.

    Raises ``AssertionError`` on the first answer that is not bit-identical
    to the serial reference.
    """
    host, port = router.address
    semaphore = asyncio.Semaphore(concurrency)

    async with HttpClientPool(host, port, size=concurrency) as pool:

        async def one(seed: int, k: int) -> None:
            async with semaphore:
                status, payload = await pool.request_json(
                    "POST", "/query", {"seed": seed, "k": k}
                )
            if status != 200 or not payload.get("ok"):
                raise AssertionError(
                    f"query for seed {seed} failed: {status} {payload}"
                )
            if payload["top"] != expected[seed]:
                raise AssertionError(
                    f"replicated answer for seed {seed} diverged from the "
                    "serial reference — replication must be bit-identical"
                )

        started = time.perf_counter()
        await asyncio.gather(*(one(seed, k) for seed, k in workload))
        return time.perf_counter() - started


def run_replica_study(
    dataset: str = "G1",
    num_seeds: int = 6,
    repeat_factor: int = 4,
    replica_counts: Sequence[int] = (1, 2, 3),
    num_shards: int = 4,
    k: int = 100,
    concurrency: int = 8,
    backend: str = "serial",
    startup_timeout: float = 120.0,
    rng: RngLike = 29,
) -> ReplicaStudy:
    """Sweep fleet sizes over a repeated-seed workload through real sockets.

    Parameters
    ----------
    dataset:
        Dataset key every replica loads (each replica holds the full graph,
        so any replica can answer any seed — the ring is pure locality).
    num_seeds, repeat_factor:
        Workload shape (distinct hot seeds × queries per seed).
    replica_counts:
        The sweep: how many server subprocesses to launch per run.
    num_shards:
        Shard count inside each replica (and the router's seed → shard map).
    concurrency:
        Concurrent in-flight requests on the client side; fixed across the
        sweep so throughput differences come from the fleet, not the driver.
    backend:
        Engine backend inside each replica (``serial`` keeps each replica
        single-core, which is what makes replica scaling visible).
    startup_timeout:
        Per-fleet readiness budget (subprocesses import numpy/scipy).
    """
    config = ServingConfig(
        dataset=dataset,
        backend=backend,
        num_shards=num_shards,
    )
    _, queries = make_repeated_seed_workload(dataset, num_seeds, repeat_factor, k, rng)
    workload = [(int(query.seed), int(query.k)) for query in queries]

    # Serial in-process reference: the answers every fleet must reproduce.
    engine, _, _ = build_frontend(config.replace(num_shards=0))
    try:
        distinct = sorted({seed for seed, _ in workload})
        reference = engine.solve_batch([PPRQuery(seed=seed, k=k) for seed in distinct])
    finally:
        engine.close()
    expected = {
        seed: [[int(node), float(score)] for node, score in result.top_k()]
        for seed, result in zip(distinct, reference)
    }

    runs: List[ReplicaRun] = []
    single_qps: Optional[float] = None
    for count in replica_counts:
        with ReplicaSet(config, count, startup_timeout=startup_timeout) as fleet:

            async def measure() -> Tuple[float, Dict[str, object]]:
                router = ReplicaRouter.for_replica_set(
                    fleet, health_interval_s=0.2, retries=4
                )
                async with router:
                    wall = await _drive(router, workload, expected, concurrency)
                    stats = router._router_stats()
                    await router.stop()
                return wall, stats

            wall, stats = asyncio.run(measure())
        answers = tuple(stats["answers"][f"replica-{i}"] for i in range(count))
        qps = len(workload) / wall if wall > 0 else 0.0
        if single_qps is None:
            single_qps = qps
        runs.append(
            ReplicaRun(
                label=f"replicas={count}",
                replicas=count,
                num_queries=len(workload),
                wall_seconds=wall,
                throughput_qps=qps,
                speedup_vs_single=qps / single_qps if single_qps > 0 else 0.0,
                max_replica_share=(
                    max(answers) / sum(answers) if sum(answers) else 0.0
                ),
                retries=sum(stats["retries"].values()),
                failovers=sum(stats["failovers"].values()),
                per_replica_answers=answers,
            )
        )
    return ReplicaStudy(
        dataset=dataset,
        num_seeds=num_seeds,
        repeat_factor=repeat_factor,
        k=k,
        num_shards=num_shards,
        concurrency=concurrency,
        runs=tuple(runs),
    )


def format_replica(study: ReplicaStudy) -> str:
    """Render the study as a text table."""
    headers = [
        "Fleet",
        "QPS",
        "vs 1 replica",
        "Max share",
        "Retries",
        "Failovers",
        "Answers per replica",
    ]
    rows = []
    for run in study.runs:
        rows.append(
            [
                run.label,
                f"{run.throughput_qps:.1f}",
                format_ratio(run.speedup_vs_single),
                f"{run.max_replica_share:.0%}",
                run.retries,
                run.failovers,
                "/".join(str(count) for count in run.per_replica_answers),
            ]
        )
    title = (
        f"E16 — replicated serving on {study.dataset} "
        f"({study.num_seeds} hot seeds x{study.repeat_factor}, k={study.k}, "
        f"{study.num_shards} shards, concurrency {study.concurrency}, "
        "real subprocess fleets)"
    )
    return format_table(headers, rows, title=title)


def main(argv: Optional[List[str]] = None) -> int:
    """Command-line entry point printing the table (and optional JSON)."""
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="G1")
    parser.add_argument("--num-seeds", type=int, default=6)
    parser.add_argument("--repeat-factor", type=int, default=4)
    parser.add_argument(
        "--replica-counts", type=int, nargs="+", default=[1, 2, 3]
    )
    parser.add_argument("--num-shards", type=int, default=4)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--json", default=None, help="also write the JSON report here")
    args = parser.parse_args(argv)

    study = run_replica_study(
        dataset=args.dataset,
        num_seeds=args.num_seeds,
        repeat_factor=args.repeat_factor,
        replica_counts=tuple(args.replica_counts),
        num_shards=args.num_shards,
        concurrency=args.concurrency,
    )
    print(format_replica(study))
    if args.json:
        document = json.dumps(study.as_dict(), indent=2, sort_keys=True)
        print(document)
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI only
    raise SystemExit(main())
