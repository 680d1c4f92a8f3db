"""Experiment E10 — sharded serving (partitioners × shard counts).

This is a serving-layer study, not a paper artefact: it characterises
the sharding subsystem added on top of the reproduction.  A repeated-seed
workload is answered once through the unsharded serial engine (the reference)
and then through a shard-routed engine for every ``strategy × shard count``
combination, and the study reports throughput, the aggregate and per-shard
cache hit rates, the cross-shard fallback rate and the halo overhead bytes of
each partition.

Every sharded configuration's answers are verified **bit-identical** to the
unsharded reference before the study returns — sharding must be a pure
locality/scale-out layer, never a numerical one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.reporting import format_ratio, format_table
from repro.experiments.workloads import PAPER_STAGE_SPLIT, make_repeated_seed_workload
from repro.graph.partition import partition_graph
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.selection import RatioSelector
from repro.meloppr.solver import MeLoPPRSolver
from repro.serving.cache import DEFAULT_CACHE_BYTES, SubgraphCache
from repro.serving.engine import QueryEngine
from repro.serving.sharding import ShardRouter
from repro.utils.rng import RngLike

__all__ = [
    "ShardingRun",
    "ShardingStudy",
    "run_sharding_study",
    "format_sharding",
]


@dataclass(frozen=True)
class ShardingRun:
    """One engine configuration's measurements over the workload."""

    label: str
    strategy: str
    num_shards: int
    cache_enabled: bool
    num_queries: int
    wall_seconds: float
    throughput_qps: float
    mean_latency_seconds: float
    hit_rate: float
    per_shard_hit_rates: Tuple[float, ...]
    fallback_rate: float
    halo_overhead_bytes: int
    replication_factor: float
    speedup_vs_unsharded: float

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON emission."""
        return {
            "label": self.label,
            "strategy": self.strategy,
            "num_shards": self.num_shards,
            "cache_enabled": self.cache_enabled,
            "num_queries": self.num_queries,
            "wall_seconds": self.wall_seconds,
            "throughput_qps": self.throughput_qps,
            "mean_latency_seconds": self.mean_latency_seconds,
            "cache_hit_rate": self.hit_rate,
            "per_shard_hit_rates": list(self.per_shard_hit_rates),
            "cross_shard_fallback_rate": self.fallback_rate,
            "halo_overhead_bytes": self.halo_overhead_bytes,
            "replication_factor": self.replication_factor,
            "speedup_vs_unsharded": self.speedup_vs_unsharded,
        }


@dataclass(frozen=True)
class ShardingStudy:
    """The full strategy × shard-count sweep (plus the unsharded reference)."""

    dataset: str
    num_seeds: int
    repeat_factor: int
    k: int
    halo_depth: int
    unsharded_qps: float
    runs: Tuple[ShardingRun, ...]

    def by_label(self) -> Dict[str, ShardingRun]:
        """Runs keyed by configuration label."""
        return {run.label: run for run in self.runs}

    @property
    def best(self) -> ShardingRun:
        """The highest-throughput sharded run."""
        return max(self.runs, key=lambda run: run.throughput_qps)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON emission."""
        return {
            "dataset": self.dataset,
            "num_seeds": self.num_seeds,
            "repeat_factor": self.repeat_factor,
            "k": self.k,
            "halo_depth": self.halo_depth,
            "unsharded_qps": self.unsharded_qps,
            "runs": [run.as_dict() for run in self.runs],
        }


def run_sharding_study(
    dataset: str = "G1",
    num_seeds: int = 6,
    repeat_factor: int = 3,
    shard_counts: Sequence[int] = (2, 4),
    strategies: Sequence[str] = ("hash", "range", "degree"),
    halo_depth: int = max(PAPER_STAGE_SPLIT),
    k: int = 100,
    selection_ratio: float = 0.02,
    cache: bool = True,
    rng: RngLike = 23,
) -> ShardingStudy:
    """Sweep shard counts × partitioners over a repeated-seed workload.

    Parameters
    ----------
    dataset:
        Dataset key of the host graph.
    num_seeds, repeat_factor:
        Workload shape (distinct hot seeds × queries per seed).
    shard_counts, strategies:
        The sweep grid.
    halo_depth:
        Halo radius of every partition; the default covers the paper's stage
        lengths, so the expected cross-shard fallback rate is zero.
    k, selection_ratio:
        Query and solver knobs (memory tracking off, so wall-clock time is
        serving time).
    cache:
        Whether the router keeps per-shard caches.
    """
    config = MeLoPPRConfig(
        stage_lengths=PAPER_STAGE_SPLIT,
        selector=RatioSelector(selection_ratio),
        score_table_factor=10,
        track_memory=False,
    )
    graph, queries = make_repeated_seed_workload(dataset, num_seeds, repeat_factor, k, rng)

    # Unsharded serial reference: the scores every configuration must match.
    # Cache-matched to the sharded runs (one shared cache vs per-shard
    # caches), so speedup_vs_unsharded isolates the sharding layer instead of
    # re-measuring the cache win.
    reference_cache = SubgraphCache(DEFAULT_CACHE_BYTES) if cache else None
    with QueryEngine(MeLoPPRSolver(graph, config), cache=reference_cache) as engine:
        reference = engine.solve_batch(queries)
        unsharded_qps = engine.stats().throughput_qps
    reference_scores = [dict(result.scores.items()) for result in reference]

    runs: List[ShardingRun] = []
    for strategy in strategies:
        for num_shards in shard_counts:
            partition = partition_graph(
                graph, num_shards, strategy=strategy, halo_depth=halo_depth
            )
            # Split the reference's byte budget across the shard caches so
            # the aggregate capacity matches and the ratio isolates routing,
            # not extra cache capacity.
            router = ShardRouter(
                partition,
                cache_bytes=(
                    max(1, DEFAULT_CACHE_BYTES // num_shards) if cache else None
                ),
            )
            label = f"{strategy}-s{num_shards}"
            with QueryEngine(MeLoPPRSolver(graph, config), router=router) as engine:
                results = engine.solve_batch(queries)
                stats = engine.stats()
            for index, (got, want) in enumerate(zip(results, reference_scores)):
                if dict(got.scores.items()) != want:
                    raise AssertionError(
                        f"configuration {label} changed query {index}'s scores — "
                        "sharded serving must be bit-identical to the unsharded "
                        "path"
                    )
            router_stats = stats.router
            qps = stats.throughput_qps
            runs.append(
                ShardingRun(
                    label=label,
                    strategy=strategy,
                    num_shards=num_shards,
                    cache_enabled=cache,
                    num_queries=stats.queries_served,
                    wall_seconds=stats.wall_seconds,
                    throughput_qps=qps,
                    mean_latency_seconds=stats.mean_latency_seconds,
                    hit_rate=router_stats.hit_rate,
                    per_shard_hit_rates=tuple(router_stats.per_shard_hit_rates()),
                    fallback_rate=router_stats.fallback_rate,
                    halo_overhead_bytes=router_stats.halo_overhead_bytes,
                    replication_factor=partition.replication_factor(),
                    speedup_vs_unsharded=(
                        qps / unsharded_qps if unsharded_qps > 0 else 0.0
                    ),
                )
            )
    return ShardingStudy(
        dataset=dataset,
        num_seeds=num_seeds,
        repeat_factor=repeat_factor,
        k=k,
        halo_depth=halo_depth,
        unsharded_qps=unsharded_qps,
        runs=tuple(runs),
    )


def format_sharding(study: ShardingStudy) -> str:
    """Render the study as a text table."""
    headers = [
        "Configuration",
        "Shards",
        "QPS",
        "Mean lat (ms)",
        "Hit rate",
        "Fallback",
        "Halo (KB)",
        "Replication",
        "vs unsharded",
    ]
    rows = []
    for run in study.runs:
        rows.append(
            [
                run.label,
                run.num_shards,
                f"{run.throughput_qps:.1f}",
                f"{run.mean_latency_seconds * 1e3:.2f}",
                f"{run.hit_rate:.0%}",
                f"{run.fallback_rate:.0%}",
                f"{run.halo_overhead_bytes / 1024:.1f}",
                f"{run.replication_factor:.2f}x",
                format_ratio(run.speedup_vs_unsharded),
            ]
        )
    title = (
        f"E10 — sharded serving on {study.dataset} "
        f"({study.num_seeds} hot seeds x{study.repeat_factor}, "
        f"halo depth {study.halo_depth}, "
        f"unsharded baseline {study.unsharded_qps:.1f} qps)"
    )
    return format_table(headers, rows, title=title)
