"""Experiment E15 — soak/overload through the HTTP front door.

This study asks the production question about the deployed server: **when
traffic exceeds capacity, does it shed or collapse?**  A server that collapses
spends its cycles on queueing, timeouts and half-finished work, so its *goodput*
(completed answers per second) falls as offered load rises.  A server that
sheds keeps answering at capacity and turns the excess into cheap, explicit
``429`` rejections.

The study measures the engine's closed-loop capacity, then drives the real
HTTP front door (:class:`~repro.serving.frontend.http.HttpQueryServer` —
sockets, HTTP parsing, JSON, the same micro-batcher as production) with
Poisson arrivals at multiples of that capacity, from comfortable (0.5x)
through saturation (2x) to a 10x overload soak.  For each multiple it
reports client-observed goodput, shed rate and latency percentiles, and
cross-checks the client's tally against the server's own ``/metrics``
exposition (the counters operators would actually alarm on).

Pass criteria (asserted by the soak tests and the CI smoke):

* goodput at the highest overload stays within 20% of the peak goodput
  across the sweep — shedding, not collapsing;
* every completed answer is **bit-identical** to a serial
  ``QueryEngine.solve_batch`` reference;
* the ``/metrics`` counters agree with the client-side outcome tally.
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
from repro.ppr.base import PPRQuery
from repro.serving.cache import SubgraphCache
from repro.serving.engine import QueryEngine
from repro.serving.frontend.admission import AdmissionController
from repro.serving.frontend.batcher import BatchPolicy, MicroBatcher
from repro.serving.frontend.http import HttpClientPool, HttpQueryServer
from repro.serving.frontend.metrics import parse_prometheus_text
from repro.serving.result_cache import ScoreTableCache
from repro.utils.rng import RngLike

__all__ = [
    "SoakRun",
    "SoakStudy",
    "run_soak_study",
    "format_soak",
    "main",
]


@dataclass(frozen=True)
class SoakRun:
    """One offered-load multiple's client- and server-side measurements."""

    label: str
    multiplier: float
    rate_qps: float
    offered: int
    completed: int
    shed: int
    expired: int
    wall_seconds: float
    goodput_qps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    server_completed: int
    server_shed: int

    @property
    def shed_rate(self) -> float:
        """Fraction of offered queries answered with a shed (0.0 = none)."""
        return self.shed / self.offered if self.offered else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON emission."""
        return {
            "label": self.label,
            "multiplier": self.multiplier,
            "rate_qps": self.rate_qps,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "expired": self.expired,
            "shed_rate": self.shed_rate,
            "wall_seconds": self.wall_seconds,
            "goodput_qps": self.goodput_qps,
            # The regression gate's uniform metric name: for a soak, the
            # figure of merit is completed answers per second.
            "throughput_qps": self.goodput_qps,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "server_completed": self.server_completed,
            "server_shed": self.server_shed,
        }


@dataclass(frozen=True)
class SoakStudy:
    """The full overload sweep: one run per capacity multiple."""

    dataset: str
    capacity_qps: float
    num_seeds: int
    num_arrivals: int
    max_pending: int
    pool_size: int
    runs: Tuple[SoakRun, ...]

    @property
    def peak_goodput_qps(self) -> float:
        """The best goodput any multiple achieved."""
        return max(run.goodput_qps for run in self.runs)

    @property
    def overload_degradation(self) -> float:
        """Fractional goodput loss at the *highest* multiple vs the peak.

        ``0.0`` means the 10x soak served at peak rate; ``0.2`` means it lost
        20%.  This is the figure the shed-not-collapse acceptance bounds.
        """
        peak = self.peak_goodput_qps
        if peak <= 0:
            return 0.0
        worst = max(self.runs, key=lambda run: run.multiplier)
        return 1.0 - worst.goodput_qps / peak

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON emission."""
        return {
            "dataset": self.dataset,
            "capacity_qps": self.capacity_qps,
            "num_seeds": self.num_seeds,
            "num_arrivals": self.num_arrivals,
            "max_pending": self.max_pending,
            "pool_size": self.pool_size,
            "peak_goodput_qps": self.peak_goodput_qps,
            "overload_degradation": self.overload_degradation,
            "runs": [run.as_dict() for run in self.runs],
        }


def _measure_capacity(
    workload: OpenLoopWorkload,
    config: MeLoPPRConfig,
    policy: BatchPolicy,
    pool_size: int,
) -> float:
    """Closed-loop capacity (queries/second) of the *HTTP front door*.

    The overload multiples must be multiples of what the deployed stack —
    sockets, HTTP parsing, batching, engine — can actually serve, not of the
    bare engine's arithmetic rate (which is far higher and would make every
    multiple an overload).  So the calibration drives the same server the
    soak drives, closed-loop: ``pool_size`` connections firing back-to-back
    with admission sized to never shed.  One pass warms the caches (the
    soak runs warm too — hot seeds repeat), a second pass is timed.
    """
    engine = QueryEngine(
        MeLoPPRSolver(workload.graph, config),
        cache=SubgraphCache(),
        result_cache=ScoreTableCache(),
    )

    async def run() -> float:
        admission = AdmissionController(max_pending=4 * pool_size)
        async with MicroBatcher(engine, policy, admission) as batcher:
            server = HttpQueryServer(batcher)
            host, port = await server.start()
            try:
                async with HttpClientPool(host, port, size=pool_size) as pool:
                    bodies = [
                        {
                            "seed": query.seed,
                            "k": query.k,
                            "alpha": query.alpha,
                            "length": query.length,
                        }
                        for query in workload.queries
                    ]
                    loop = asyncio.get_running_loop()
                    for timed in (False, True):
                        start = loop.time()
                        responses = await asyncio.gather(
                            *(pool.query(body) for body in bodies)
                        )
                        wall = loop.time() - start
                        for status, body in responses:
                            if status != 200:
                                raise AssertionError(
                                    "calibration must not shed "
                                    f"(got HTTP {status}: {body})"
                                )
                    return len(bodies) / wall if wall > 0 else float("inf")
            finally:
                await server.drain()

    try:
        return asyncio.run(run())
    finally:
        engine.close()


def _extend_for_multiplier(
    workload: OpenLoopWorkload, multiplier: float
) -> Tuple[List[PPRQuery], List[float]]:
    """The workload tiled so every multiple soaks for a comparable wall.

    At 10x the base sequence would flash past in a tenth of the 1x wall —
    far too short to distinguish sustained shedding from a lucky burst — so
    the query/arrival sequence repeats ``round(multiplier)`` times (each
    copy shifted by the base span plus one mean gap, preserving the Poisson
    structure).  Offered *duration* is then the same at every multiple;
    offered *volume* scales with the overload.
    """
    repeats = max(1, int(round(multiplier)))
    queries = list(workload.queries) * repeats
    base = list(workload.arrival_seconds)
    span = base[-1] + 1.0  # unit-rate sequence: mean gap is 1 second
    arrivals = [
        offset * span + at for offset in range(repeats) for at in base
    ]
    return queries, arrivals


def _run_multiplier(
    workload: OpenLoopWorkload,
    config: MeLoPPRConfig,
    reference: Dict[PPRQuery, List[List[float]]],
    multiplier: float,
    capacity_qps: float,
    policy: BatchPolicy,
    max_pending: int,
    pool_size: int,
    timeout_ms: Optional[float],
) -> SoakRun:
    """Serve one overload multiple through a fresh HTTP front door."""
    label = f"{multiplier:g}x"
    rate_qps = multiplier * capacity_qps
    queries, unit_arrivals = _extend_for_multiplier(workload, multiplier)
    arrivals = [at / rate_qps for at in unit_arrivals]
    engine = QueryEngine(
        MeLoPPRSolver(workload.graph, config),
        cache=SubgraphCache(),
        result_cache=ScoreTableCache(),
    )

    async def run() -> Tuple[List[Tuple[int, dict]], float, str]:
        async with MicroBatcher(
            engine, policy, AdmissionController(max_pending=max_pending)
        ) as batcher:
            server = HttpQueryServer(batcher)
            host, port = await server.start()
            try:
                async with HttpClientPool(host, port, size=pool_size) as pool:
                    loop = asyncio.get_running_loop()
                    start = loop.time()

                    async def fire(
                        query: PPRQuery, at: float
                    ) -> Tuple[int, dict]:
                        delay = start + at - loop.time()
                        if delay > 0:
                            await asyncio.sleep(delay)
                        body = {
                            "seed": query.seed,
                            "k": query.k,
                            "alpha": query.alpha,
                            "length": query.length,
                        }
                        if timeout_ms is not None:
                            body["timeout_ms"] = timeout_ms
                        return await pool.query(body)

                    tasks = [
                        asyncio.ensure_future(fire(query, at))
                        for query, at in zip(queries, arrivals)
                    ]
                    responses = await asyncio.gather(*tasks)
                    wall = loop.time() - start
                    return responses, wall, await _scrape(host, port)
            finally:
                await server.drain()

    async def _scrape(host: str, port: int) -> str:
        from repro.serving.frontend.http import HttpClient

        async with HttpClient(host, port) as client:
            status, _, raw = await client.request("GET", "/metrics")
            if status != 200:
                raise AssertionError(f"/metrics answered {status}")
            return raw.decode("utf-8")

    try:
        responses, wall, exposition = asyncio.run(run())
    finally:
        engine.close()

    completed = shed = expired = 0
    latencies_ms: List[float] = []
    for query, (status, body) in zip(queries, responses):
        if status == 200:
            completed += 1
            latencies_ms.append(float(body["latency_ms"]))
            if body["top"] != reference[query]:
                raise AssertionError(
                    f"soak at {label} changed seed {query.seed}'s scores — "
                    "the HTTP front door must be bit-identical to the serial "
                    "engine"
                )
        elif status == 429:
            shed += 1
        elif status == 504:
            expired += 1
        else:
            raise AssertionError(
                f"unexpected HTTP status {status} under soak: {body}"
            )

    # The server's own books must agree with the client's tally — these are
    # the counters operators alarm on.
    scrape = parse_prometheus_text(exposition)
    server_completed = int(scrape.value("repro_queries_completed_total"))
    server_shed = int(scrape.value("repro_queries_shed_total"))
    if server_completed != completed or server_shed != shed:
        raise AssertionError(
            f"/metrics disagrees with the client tally at {label}: server "
            f"says {server_completed} completed/{server_shed} shed, clients "
            f"saw {completed}/{shed}"
        )

    latencies_ms.sort()

    def percentile(fraction: float) -> float:
        if not latencies_ms:
            return 0.0
        index = min(
            len(latencies_ms) - 1, int(fraction * (len(latencies_ms) - 1))
        )
        return latencies_ms[index]

    return SoakRun(
        label=label,
        multiplier=multiplier,
        rate_qps=rate_qps,
        offered=len(queries),
        completed=completed,
        shed=shed,
        expired=expired,
        wall_seconds=wall,
        goodput_qps=completed / wall if wall > 0 else 0.0,
        p50_ms=percentile(0.50),
        p95_ms=percentile(0.95),
        p99_ms=percentile(0.99),
        server_completed=server_completed,
        server_shed=server_shed,
    )


def run_soak_study(
    dataset: str = "G1",
    num_seeds: int = 5,
    num_arrivals: int = 60,
    multipliers: Sequence[float] = (0.5, 1.0, 2.0, 10.0),
    k: int = 100,
    selection_ratio: float = 0.02,
    max_pending: int = 8,
    pool_size: int = 16,
    timeout_ms: Optional[float] = None,
    policy: Optional[BatchPolicy] = None,
    rng: RngLike = 44,
) -> SoakStudy:
    """Soak the HTTP front door at multiples of measured capacity.

    Parameters
    ----------
    dataset:
        Dataset key of the host graph.
    num_seeds, num_arrivals:
        Hot-seed pool size and number of timed arrivals per multiple (the
        same Poisson sequence replays at every rate).
    multipliers:
        Offered load as multiples of the measured closed-loop capacity;
        include a deep overload (10x) to exercise sustained shedding.
    max_pending:
        Admission bound — the knob that turns overload into shedding.
    pool_size:
        Concurrent HTTP connections driving the load.
    timeout_ms:
        Optional per-query deadline (504s count separately from sheds).
    policy:
        Batching policy (default: batch 8, wait 2 ms, dedup on).
    """
    config = MeLoPPRConfig(
        stage_lengths=PAPER_STAGE_SPLIT,
        selector=RatioSelector(selection_ratio),
        score_table_factor=10,
        track_memory=False,
    )
    if policy is None:
        policy = BatchPolicy(max_batch_size=8)
    workload = make_open_loop_workload(
        dataset, num_seeds=num_seeds, num_arrivals=num_arrivals, k=k, rng=rng
    )
    capacity_qps = _measure_capacity(workload, config, policy, pool_size)

    # Serial reference answers, in the HTTP response's wire shape, for the
    # bit-identical check on every completed answer.
    unique = list(dict.fromkeys(workload.queries))
    with QueryEngine(MeLoPPRSolver(workload.graph, config)) as engine:
        reference = {
            query: [
                [int(node), float(score)] for node, score in result.top_k()
            ]
            for query, result in zip(unique, engine.solve_batch(unique))
        }

    runs = tuple(
        _run_multiplier(
            workload,
            config,
            reference,
            multiplier,
            capacity_qps,
            policy,
            max_pending,
            pool_size,
            timeout_ms,
        )
        for multiplier in multipliers
    )
    return SoakStudy(
        dataset=dataset,
        capacity_qps=capacity_qps,
        num_seeds=num_seeds,
        num_arrivals=num_arrivals,
        max_pending=max_pending,
        pool_size=pool_size,
        runs=runs,
    )


def format_soak(study: SoakStudy) -> str:
    """Render the study as a text table."""
    headers = [
        "Load",
        "Offered qps",
        "Done",
        "Shed",
        "Shed %",
        "Goodput",
        "p50 (ms)",
        "p95 (ms)",
        "p99 (ms)",
    ]
    rows = []
    for run in study.runs:
        rows.append(
            [
                run.label,
                f"{run.rate_qps:.0f}",
                run.completed,
                run.shed,
                f"{run.shed_rate:.0%}",
                f"{run.goodput_qps:.1f}",
                f"{run.p50_ms:.2f}",
                f"{run.p95_ms:.2f}",
                f"{run.p99_ms:.2f}",
            ]
        )
    title = (
        f"E15 — HTTP soak/overload on {study.dataset} "
        f"(capacity {study.capacity_qps:.0f} qps, {study.num_arrivals} "
        f"arrivals/multiple, admission bound {study.max_pending}; overload "
        f"goodput degradation {study.overload_degradation:.0%})"
    )
    return format_table(headers, rows, title=title)


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point printing the table (and optionally JSON)."""
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="G1")
    parser.add_argument("--num-seeds", type=int, default=5)
    parser.add_argument("--num-arrivals", type=int, default=60)
    parser.add_argument(
        "--multipliers", type=float, nargs="+", default=[0.5, 1.0, 2.0, 10.0]
    )
    parser.add_argument("--max-pending", type=int, default=8)
    parser.add_argument("--pool-size", type=int, default=16)
    parser.add_argument("--timeout-ms", type=float, default=None)
    parser.add_argument("--json", default=None, help="also write the JSON report here")
    args = parser.parse_args(argv)

    study = run_soak_study(
        dataset=args.dataset,
        num_seeds=args.num_seeds,
        num_arrivals=args.num_arrivals,
        multipliers=tuple(args.multipliers),
        max_pending=args.max_pending,
        pool_size=args.pool_size,
        timeout_ms=args.timeout_ms,
    )
    print(format_soak(study))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(study.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI only
    raise SystemExit(main())
