"""hot_http: a warm cache behind the HTTP door, two closed-loop connections.

G1, Zipf(1.1) over 256 hot seeds, ``SubgraphCache`` + ``ScoreTableCache``
on and warm, an in-process ``HttpQueryServer`` over
``MicroBatcher(max_batch=8, max_wait_ms=0.5)``, ``HttpClientPool(size=2)``.
The traced run times the same query list at each entry depth in turn —
engine, batcher, HTTP — so adjacent depths subtract into ``*.self_ms``.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.datasets import load_dataset
from repro.meloppr.solver import MeLoPPRSolver
from repro.serving.cache import SubgraphCache
from repro.serving.engine import QueryEngine
from repro.serving.frontend.batcher import BatchPolicy, MicroBatcher
from repro.serving.frontend.client import TcpQueryClient
from repro.serving.frontend.http import HttpClientPool, HttpQueryServer
from repro.serving.frontend.server import AsyncQueryServer
from repro.serving.result_cache import ScoreTableCache, stage_one_cache_key

from . import generate, spec
from .common import (
    Answer,
    SETUP_UNITS,
    Calibrator,
    Outcome,
    Scale,
    answer_of,
    cache_counts,
    engine_depth_metrics,
    hit_shares,
    mean,
    median,
    ms,
    peak_rss_mb,
    percentile,
    query_for,
    reference_answers,
    solver_config,
    timed,
    topk_ms,
)
from .spans import SpanRecorder

POLICY = BatchPolicy(max_batch_size=8, max_wait_ms=0.5)


def cached_engine(graph) -> QueryEngine:
    """The engine hot_http and churn_mixed share: both cache tiers on."""
    return QueryEngine(
        MeLoPPRSolver(graph, solver_config()),
        cache=SubgraphCache(),
        result_cache=ScoreTableCache(),
    )


class Door:
    """Engine -> batcher -> HTTP server -> client pool, started and warm."""

    def __init__(self) -> None:
        self.graph = load_dataset("G1")
        self.engine = cached_engine(self.graph)
        self.batcher = MicroBatcher(self.engine, POLICY)
        self.server = HttpQueryServer(self.batcher)
        self.pool: HttpClientPool

    async def start(self, warm_seeds: Sequence[int]) -> "Door":
        await self.batcher.start()
        host, port = await self.server.start()
        self.pool = await HttpClientPool(host, port, size=spec.CONNECTIONS).connect()
        for seed in warm_seeds:
            await self.pool.query({"seed": seed, "k": spec.PAPER_K})
        return self

    async def stop(self) -> None:
        await self.pool.close()
        await self.server.drain()
        await self.batcher.stop()
        self.engine.close()


async def closed_loop(
    send,
    items: Sequence[int],
    expected: Dict[int, Answer],
    seconds: float,
    callers: int = spec.CONNECTIONS,
    recorder: Optional[SpanRecorder] = None,
    span: str = "",
    calibrator: Optional[Calibrator] = None,
) -> Tuple[List[float], int, float]:
    """``callers`` closed-loop callers over whole passes of ``items``.

    ``send(seed)`` returns the answer in wire form (or ``None`` on any
    refusal).  Passes repeat until ``seconds`` have elapsed (0: one pass).
    With a ``recorder`` every request is a root span named ``span``.  With a
    ``calibrator`` a pass runs in blocks of ``spec.CALIBRATED_BLOCK`` requests
    with a burst between them, and every latency and the wall are calibrated.
    Returns the latencies, the failure count and the measured wall.
    """
    latencies: List[float] = []
    failed = 0

    async def caller(indices: Sequence[int]) -> None:
        nonlocal failed
        for index in indices:
            start = time.perf_counter()
            top = await send(items[index])
            end = time.perf_counter()
            latencies.append(end - start)
            failed += top != expected[items[index]]
            if recorder is not None:
                recorder.add(span, start, end, -1, index)

    block = spec.CALIBRATED_BLOCK if calibrator is not None else len(items)
    wall = 0.0
    origin = time.perf_counter()
    if calibrator is not None:
        calibrator.start()
    while True:
        for begin in range(0, len(items), block):
            indices = range(begin, min(begin + block, len(items)))
            first = len(latencies)
            start, cpu_start = time.perf_counter(), time.process_time()
            await asyncio.gather(*(caller(indices[offset::callers]) for offset in range(callers)))
            elapsed = time.perf_counter() - start
            if calibrator is not None:
                # Event loop and engine thread together are on a core ~70 %
                # of a block; the rest is the batcher's max_wait timer.
                busy = min(1.0, (time.process_time() - cpu_start) / elapsed)
                slowdown = calibrator.slowdown(busy=busy)
                elapsed /= slowdown
                latencies[first:] = [latency / slowdown for latency in latencies[first:]]
            wall += elapsed
        if time.perf_counter() - origin >= seconds:
            return latencies, failed, wall


def http_sender(pool: HttpClientPool):
    async def send(seed: int):
        status, payload = await pool.query({"seed": seed, "k": spec.PAPER_K})
        return payload.get("top") if status == 200 and payload.get("ok") else None

    return send


def run(seed: int, seconds: float, trace: bool, scale: Scale, recorder: SpanRecorder) -> Outcome:
    return asyncio.run(_run(seed, seconds, trace, scale, recorder))


async def _run(seed, seconds, trace, scale, recorder) -> Outcome:
    degrees = load_dataset("G1").degrees()
    stream = generate.zipf_stream(degrees, seed, scale.stream_length)
    distinct = list(dict.fromkeys(stream))
    sha = generate.digest({"stream": stream})

    calibrator = Calibrator()
    setups: List[float] = []
    door = None
    for _ in range(scale.setup_repeats):
        if door is not None:
            await door.stop()
        calibrator.start(SETUP_UNITS)
        start = time.perf_counter()
        door = await Door().start(distinct)
        elapsed = time.perf_counter() - start
        setups.append(elapsed / calibrator.slowdown(SETUP_UNITS))
    reference_s, (expected, _, _) = timed(lambda: reference_answers(door.graph, distinct))
    notes = {"queries_per_pass": len(stream), "distinct_seeds": len(distinct),
             "reference_s": reference_s, "setups_s": setups}
    try:
        if trace:
            metrics, attempted, failed = await _traced(door, stream, expected, scale, recorder)
        else:
            latencies, failed, wall = await closed_loop(
                http_sender(door.pool), stream, expected, seconds, calibrator=calibrator
            )
            attempted = len(latencies)
            notes["calibration"] = calibrator.summary()
            metrics = {
                "setup_s": median(setups),
                "qps": (attempted - failed) / wall,
                "latency_p50_ms": ms(median(latencies)),
                "peak_rss_mb": peak_rss_mb(),
            }
    finally:
        await door.stop()
    return Outcome(metrics, attempted, failed, sha, notes)


async def _traced(door: Door, stream, expected, scale: Scale, recorder: SpanRecorder):
    items = stream[: scale.ladder_queries]
    engine, batcher, pool = door.engine, door.batcher, door.pool
    failed = 0

    # Depth 1: the engine, one caller (it is synchronous).
    counts_before = cache_counts(engine)
    results, walls = [], []
    for index, seed in enumerate(items):
        start = time.perf_counter()
        (result,) = engine.solve_batch([query_for(seed)])
        end = time.perf_counter()
        recorder.add("serving.engine.solve_batch", start, end, -1, index)
        results.append(result)
        walls.append(end - start)
        failed += answer_of(result) != expected[seed]
    metrics = engine_depth_metrics(results, walls)
    metrics.update(hit_shares(counts_before, cache_counts(engine)))
    metrics["meloppr.aggregation.topk_ms"] = topk_ms(results)
    engine_s = mean(walls)

    # Depth 2: the batcher, as many callers as the HTTP run has connections.
    async def submit(seed: int):
        return answer_of(await batcher.submit(query_for(seed)))

    batcher_before = batcher.stats()
    submits, bad, _ = await closed_loop(
        submit, items, expected, 0.0, recorder=recorder, span="serving.frontend.batcher.submit"
    )
    failed += bad
    submit_s = mean(submits)

    # Depth 3: the HTTP door.
    traced, bad, http_wall = await closed_loop(
        http_sender(pool), items, expected, 0.0,
        recorder=recorder, span="serving.frontend.http.roundtrip",
    )
    failed += bad
    http_s = mean(traced)
    # The same pass with no span recorded: the cost of tracing itself.
    untraced, bad, _ = await closed_loop(http_sender(pool), items, expected, 0.0)
    failed += bad
    batcher_after = batcher.stats()
    batches = batcher_after.batches - batcher_before.batches
    batched = batcher_after.batched_queries - batcher_before.batched_queries
    dedup = batcher_after.dedup_hits - batcher_before.dedup_hits
    admission = batcher_after.admission
    offered = max(1, admission.offered)

    # The same queries over the TCP door (same batcher, second transport).
    tcp_server = AsyncQueryServer(batcher)
    host, port = await tcp_server.start()
    clients = [await TcpQueryClient.connect(host, port) for _ in range(spec.CONNECTIONS)]
    turn = 0

    async def tcp_send(seed: int):
        nonlocal turn
        turn += 1
        response = await clients[turn % len(clients)].query(seed, k=spec.PAPER_K)
        return response.get("top") if response.get("ok") else None

    try:
        tcp, bad, _ = await closed_loop(
            tcp_send, items, expected, 0.0,
            recorder=recorder, span="serving.frontend.server.roundtrip",
        )
        failed += bad
    finally:
        for client in clients:
            await client.close()
        await tcp_server.drain()

    # Probes of the door itself.
    repeats = scale.probe_repeats
    noop_s, _ = await _atimed(lambda: pool.request("GET", "/healthz"), repeats)
    scrape_s, _ = await _atimed(lambda: pool.request("GET", "/metrics"), max(5, repeats // 5))
    _, (_, _, body) = await _atimed(
        lambda: pool.request("POST", "/query", {"seed": items[0], "k": spec.PAPER_K}), 1
    )
    payload = json.loads(body)
    json_s, _ = timed(lambda: [json.loads(json.dumps(payload)) for _ in range(repeats)])

    # Cache tiers from outside: the lookups one query makes, on their own.
    # (After the stats above were read: these lookups count as hits.)
    cache, result_cache = engine.cache, engine.result_cache
    keys = [
        (record.center_node, result.metadata["stage_lengths"][record.stage_index])
        for result in results[:100]
        for record in result.metadata["tasks"]
    ]
    lookup_s, _ = timed(lambda: [cache.get(center, depth) for center, depth in keys])
    plans = [engine.solver.plan(query_for(seed), track_memory=False) for seed in items[:100]]
    get_s, _ = timed(lambda: [result_cache.get(stage_one_cache_key(plan)) for plan in plans])

    count = len(items)
    metrics.update({
        "serving.cache.lookup_ms": ms(lookup_s / min(100, count)),
        "serving.result_cache.get_ms": ms(get_s / len(plans)),
        "serving.frontend.batcher.submit_ms": ms(submit_s),
        "serving.frontend.batcher.self_ms": ms(submit_s - engine_s),
        "serving.frontend.batcher.mean_batch_size": batched / batches if batches else 0.0,
        "serving.frontend.batcher.dedup_share": dedup / batched if batched else 0.0,
        "serving.frontend.admission.shed_share": admission.shed / offered,
        "serving.frontend.admission.expired_share": admission.expired / offered,
        "serving.frontend.http.roundtrip_ms": ms(http_s),
        "serving.frontend.http.self_ms": ms(http_s - submit_s),
        "serving.frontend.http.noop_ms": ms(noop_s),
        "serving.frontend.http.json_ms": ms(json_s / repeats),
        "serving.frontend.http.response_bytes": float(len(body)),
        "serving.frontend.server.roundtrip_ms": ms(mean(tcp)),
        "serving.frontend.metrics.scrape_ms": ms(scrape_s),
        # Concurrent request spans must account for the wall of their pass.
        "bench.reconcile_gap_share": abs(http_s * count / spec.CONNECTIONS - http_wall) / http_wall,
        "bench.trace_overhead_share": http_s / mean(untraced) - 1.0,
        "latency_p99_ms": ms(percentile(untraced, 99)),
    })
    return metrics, 5 * count, failed


async def _atimed(call, repeats: int):
    """Mean seconds of ``repeats`` awaited calls, and the last value."""
    value = None
    start = time.perf_counter()
    for _ in range(repeats):
        value = await call()
    return (time.perf_counter() - start) / repeats, value
