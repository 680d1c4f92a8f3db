"""Experiment E11 — latency under load (arrival rate × batching policy).

The serving studies so far (E9, E10) are closed-loop: they hand the engine a
ready-made batch and measure throughput.  Online serving is open-loop — a
Poisson source submits queries at its own rate whether or not the server
keeps up — so tail latency and shed rate, not throughput alone, are the
figures of merit.  This study replays one Poisson-timed hot-seed workload
(:func:`~repro.experiments.workloads.make_open_loop_workload`) through the
async frontend for every ``arrival rate × batching policy`` combination and
reports completed/shed/expired counts, achieved throughput, the p50/p95/p99
end-to-end latency and the micro-batcher's dedup and batch-size counters.
The batcher is work-conserving (a batch closes when it is full or the queue
is empty), so the policy rows differ by ``max_batch_size`` only: their
``max_wait_ms`` is deprecated, ignored by the scheduler, and kept in the
rows because the committed run labels embed it.

Every completed answer is verified **bit-identical** to a serial
``QueryEngine.solve_batch`` reference before the study returns — the
frontend must be a pure scheduling layer, never a numerical one.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.reporting import format_table
from repro.experiments.workloads import (
    PAPER_STAGE_SPLIT,
    OpenLoopWorkload,
    make_open_loop_workload,
)
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.selection import RatioSelector
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery, PPRResult
from repro.serving.cache import SubgraphCache
from repro.serving.engine import QueryEngine
from repro.serving.frontend.admission import (
    AdmissionController,
    DeadlineExceededError,
    QueryShedError,
)
from repro.serving.frontend.batcher import BatchPolicy, MicroBatcher
from repro.utils.rng import RngLike

__all__ = [
    "LatencyRun",
    "LatencyStudy",
    "run_latency_study",
    "format_latency",
    "main",
]


@dataclass(frozen=True)
class LatencyRun:
    """One ``arrival rate × policy`` configuration's measurements."""

    label: str
    rate_qps: float
    max_batch_size: int
    max_wait_ms: float
    dedup: bool
    offered: int
    completed: int
    shed: int
    expired: int
    wall_seconds: float
    throughput_qps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    mean_batch_size: float
    dedup_hits: int
    cache_hit_rate: float

    @property
    def shed_rate(self) -> float:
        """Fraction of offered queries shed (0.0 before any traffic)."""
        return self.shed / self.offered if self.offered else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON emission."""
        return {
            "label": self.label,
            "rate_qps": self.rate_qps,
            "max_batch_size": self.max_batch_size,
            "max_wait_ms": self.max_wait_ms,
            "dedup": self.dedup,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "expired": self.expired,
            "shed_rate": self.shed_rate,
            "wall_seconds": self.wall_seconds,
            "throughput_qps": self.throughput_qps,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "mean_ms": self.mean_ms,
            "max_ms": self.max_ms,
            "mean_batch_size": self.mean_batch_size,
            "dedup_hits": self.dedup_hits,
            "cache_hit_rate": self.cache_hit_rate,
        }


@dataclass(frozen=True)
class LatencyStudy:
    """The full rate × policy sweep on one open-loop workload."""

    dataset: str
    num_seeds: int
    num_arrivals: int
    k: int
    max_pending: int
    timeout_ms: Optional[float]
    runs: Tuple[LatencyRun, ...]

    def by_label(self) -> Dict[str, LatencyRun]:
        """Runs keyed by configuration label."""
        return {run.label: run for run in self.runs}

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON emission."""
        return {
            "dataset": self.dataset,
            "num_seeds": self.num_seeds,
            "num_arrivals": self.num_arrivals,
            "k": self.k,
            "max_pending": self.max_pending,
            "timeout_ms": self.timeout_ms,
            "runs": [run.as_dict() for run in self.runs],
        }


async def _drive_open_loop(
    batcher: MicroBatcher,
    queries: Sequence[PPRQuery],
    arrivals: Sequence[float],
    timeout_ms: Optional[float],
) -> Tuple[List[object], float]:
    """Submit every query at its arrival time; returns (outcomes, wall)."""
    loop = asyncio.get_running_loop()
    start = loop.time()

    async def fire(query: PPRQuery, at: float) -> PPRResult:
        delay = start + at - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        return await batcher.submit(query, timeout_ms=timeout_ms)

    tasks = [
        asyncio.ensure_future(fire(query, at))
        for query, at in zip(queries, arrivals)
    ]
    outcomes = await asyncio.gather(*tasks, return_exceptions=True)
    return list(outcomes), loop.time() - start


def _run_configuration(
    workload: OpenLoopWorkload,
    config: MeLoPPRConfig,
    reference: Dict[PPRQuery, Dict[int, float]],
    rate_qps: float,
    policy: BatchPolicy,
    max_pending: int,
    timeout_ms: Optional[float],
) -> LatencyRun:
    label = f"{rate_qps:g}qps-{policy.label}"
    engine = QueryEngine(
        MeLoPPRSolver(workload.graph, config), cache=SubgraphCache()
    )
    admission = AdmissionController(max_pending=max_pending)
    batcher = MicroBatcher(engine, policy, admission)
    arrivals = workload.arrivals_at(rate_qps)

    async def run() -> Tuple[List[object], float]:
        async with batcher:
            return await _drive_open_loop(
                batcher, workload.queries, arrivals, timeout_ms
            )

    try:
        outcomes, wall = asyncio.run(run())
        completed = shed = expired = 0
        for query, outcome in zip(workload.queries, outcomes):
            if isinstance(outcome, PPRResult):
                completed += 1
                if dict(outcome.scores.items()) != reference[query]:
                    raise AssertionError(
                        f"configuration {label} changed seed {query.seed}'s "
                        "scores — the async frontend must be bit-identical to "
                        "the serial engine"
                    )
            elif isinstance(outcome, QueryShedError):
                shed += 1
            elif isinstance(outcome, DeadlineExceededError):
                expired += 1
            else:
                raise outcome  # unexpected failure: surface it
        stats = batcher.stats()
        latency = stats.admission.latency
    finally:
        engine.close()

    return LatencyRun(
        label=label,
        rate_qps=rate_qps,
        max_batch_size=policy.max_batch_size,
        max_wait_ms=policy.max_wait_ms,
        dedup=policy.dedup,
        offered=len(workload.queries),
        completed=completed,
        shed=shed,
        expired=expired,
        wall_seconds=wall,
        throughput_qps=completed / wall if wall > 0 else 0.0,
        p50_ms=latency.p50_seconds * 1e3,
        p95_ms=latency.p95_seconds * 1e3,
        p99_ms=latency.p99_seconds * 1e3,
        mean_ms=latency.mean_seconds * 1e3,
        max_ms=latency.max_seconds * 1e3,
        mean_batch_size=stats.mean_batch_size,
        dedup_hits=stats.dedup_hits,
        cache_hit_rate=(
            0.0 if stats.engine.cache is None else stats.engine.cache.hit_rate
        ),
    )


def run_latency_study(
    dataset: str = "G1",
    num_seeds: int = 5,
    num_arrivals: int = 40,
    rates_qps: Sequence[float] = (50.0, 4000.0),
    policies: Sequence[BatchPolicy] = (
        BatchPolicy(max_batch_size=1, max_wait_ms=0.0),
        BatchPolicy(max_batch_size=8, max_wait_ms=2.0),
    ),
    k: int = 100,
    selection_ratio: float = 0.02,
    max_pending: int = 16,
    timeout_ms: Optional[float] = None,
    rng: RngLike = 33,
) -> LatencyStudy:
    """Sweep arrival rates × batching policies on one open-loop workload.

    Parameters
    ----------
    dataset:
        Dataset key of the host graph.
    num_seeds, num_arrivals:
        Hot-seed pool size and number of timed arrivals.
    rates_qps:
        Offered arrival rates; include one well above the engine's service
        rate to exercise shedding.
    policies:
        Batching policies to compare (``BatchPolicy(1, 0)`` is the
        no-batching baseline).
    k, selection_ratio:
        Query and solver knobs (memory tracking off, as in E9/E10).
    max_pending:
        Admission bound of every configuration.
    timeout_ms:
        Optional per-query deadline applied to every submission.
    """
    config = MeLoPPRConfig(
        stage_lengths=PAPER_STAGE_SPLIT,
        selector=RatioSelector(selection_ratio),
        score_table_factor=10,
        track_memory=False,
    )
    workload = make_open_loop_workload(
        dataset, num_seeds=num_seeds, num_arrivals=num_arrivals, k=k, rng=rng
    )

    # Serial reference scores, one solve per distinct query: what every
    # completed frontend answer must match bit-for-bit.
    unique = list(dict.fromkeys(workload.queries))
    with QueryEngine(MeLoPPRSolver(workload.graph, config)) as engine:
        reference = {
            query: dict(result.scores.items())
            for query, result in zip(unique, engine.solve_batch(unique))
        }

    runs: List[LatencyRun] = []
    for rate in rates_qps:
        for policy in policies:
            runs.append(
                _run_configuration(
                    workload,
                    config,
                    reference,
                    rate,
                    policy,
                    max_pending,
                    timeout_ms,
                )
            )
    return LatencyStudy(
        dataset=dataset,
        num_seeds=num_seeds,
        num_arrivals=num_arrivals,
        k=k,
        max_pending=max_pending,
        timeout_ms=timeout_ms,
        runs=tuple(runs),
    )


def format_latency(study: LatencyStudy) -> str:
    """Render the study as a text table."""
    headers = [
        "Configuration",
        "Offered qps",
        "Done",
        "Shed",
        "Expired",
        "QPS",
        "p50 (ms)",
        "p95 (ms)",
        "p99 (ms)",
        "Batch",
        "Dedup",
        "Hit rate",
    ]
    rows = []
    for run in study.runs:
        rows.append(
            [
                run.label,
                f"{run.rate_qps:g}",
                run.completed,
                run.shed,
                run.expired,
                f"{run.throughput_qps:.1f}",
                f"{run.p50_ms:.2f}",
                f"{run.p95_ms:.2f}",
                f"{run.p99_ms:.2f}",
                f"{run.mean_batch_size:.1f}",
                run.dedup_hits,
                f"{run.cache_hit_rate:.0%}",
            ]
        )
    title = (
        f"E11 — latency under load on {study.dataset} "
        f"({study.num_arrivals} Poisson arrivals over {study.num_seeds} hot "
        f"seeds, admission bound {study.max_pending})"
    )
    return format_table(headers, rows, title=title)


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point printing the table (and optionally JSON)."""
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="G1")
    parser.add_argument("--num-seeds", type=int, default=5)
    parser.add_argument("--num-arrivals", type=int, default=40)
    parser.add_argument(
        "--rates", type=float, nargs="+", default=[50.0, 4000.0]
    )
    parser.add_argument("--timeout-ms", type=float, default=None)
    parser.add_argument("--max-pending", type=int, default=16)
    parser.add_argument("--json", default=None, help="also write the JSON report here")
    args = parser.parse_args(argv)

    study = run_latency_study(
        dataset=args.dataset,
        num_seeds=args.num_seeds,
        num_arrivals=args.num_arrivals,
        rates_qps=tuple(args.rates),
        max_pending=args.max_pending,
        timeout_ms=args.timeout_ms,
    )
    print(format_latency(study))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(study.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI only
    raise SystemExit(main())
