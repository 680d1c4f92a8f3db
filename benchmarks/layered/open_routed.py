"""open_routed: the whole stack, the way independent users arrive.

G1, 70 % Zipf(1.1) hot seeds and 30 % never-repeated seeds arriving as a
Poisson process at a frozen rate, through ``ReplicaRouter`` to one replica
subprocess (``ServingConfig(dataset="G1", backend="serial")``).  Latency is
timed from each request's due time, so the wait a stall imposes on later
requests counts.  The untraced run holds the lowest frozen rate for the
whole run (its median latency repeats best there); the traced run sweeps the
three rates and times the same queries direct-to-replica and via the router.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.datasets import load_dataset
from repro.serving.frontend.config import ServingConfig
from repro.serving.frontend.http import HttpClientPool
from repro.serving.frontend.router import ReplicaRouter
from repro.serving.replica import ReplicaSet

from . import generate, spec
from .common import (
    Answer,
    SETUP_UNITS,
    Calibrator,
    Outcome,
    Scale,
    mean,
    median,
    ms,
    peak_rss_mb,
    percentile,
    reference_answers,
    timed,
)
from .hot_http import closed_loop, http_sender
from .spans import SpanRecorder


#: A calibration unit only runs when the next arrival is further away than this
#: (a unit takes 2-4 ms).
IDLE_GAP_S = 0.008


class Fleet:
    """One replica subprocess behind a router, a client pool on the router."""

    def __init__(self) -> None:
        self.replicas = ReplicaSet(ServingConfig(dataset="G1", backend="serial"), 1)
        self.router: ReplicaRouter
        self.pool: HttpClientPool
        self.ready_s = 0.0

    async def start(self, warm_seeds: Sequence[int]) -> "Fleet":
        start = time.perf_counter()
        self.replicas.start()
        try:
            # wait_ready polls with time.sleep; keep it off the event loop.
            await asyncio.get_running_loop().run_in_executor(None, self.replicas.wait_ready)
            self.ready_s = time.perf_counter() - start
            self.router = ReplicaRouter.for_replica_set(self.replicas)
            host, port = await self.router.start()
            self.pool = await HttpClientPool(host, port, size=spec.CONNECTIONS).connect()
            send = http_sender(self.pool)
            for seed in warm_seeds:
                await send(seed)
        except BaseException:
            self.replicas.stop()
            raise
        return self

    async def stop(self) -> None:
        try:
            await self.pool.close()
            await self.router.drain()
        finally:
            self.replicas.stop()

    @property
    def replica_address(self) -> Tuple[str, int]:
        return self.replicas.replicas[0].address

    def child_pids(self) -> List[int]:
        return [spec_.process.pid for spec_ in self.replicas.replicas if spec_.process]


async def open_loop(
    pool: HttpClientPool,
    schedule: Sequence[Tuple[float, int]],
    expected: Dict[int, Answer],
    recorder: Optional[SpanRecorder] = None,
    span_name: str = "",
    calibrator: Optional[Calibrator] = None,
) -> Dict[str, object]:
    """Send each arrival at its due time, whether or not earlier ones finished.

    Latency runs from the due time.  ``late`` is how long after its due time
    the generator dispatched each request (before it waited for one of the
    pool's connections); ``backlog`` is the number still unanswered when the
    last arrival was due.

    With a ``calibrator`` one unit runs whenever an answer leaves nothing in
    flight and the next arrival is more than ``IDLE_GAP_S`` away, so no
    request ever waits for a unit; each latency is then divided by the
    slowdown of the units that ran in the same second of the schedule.
    """
    send = http_sender(pool)
    latencies: List[float] = [0.0] * len(schedule)
    late: List[float] = []
    failed = 0
    done = 0
    next_due_at = 0.0

    async def one(index: int, due_at: float, seed: int) -> None:
        nonlocal failed, done
        late.append(time.perf_counter() - due_at)
        top = await send(seed)
        end = time.perf_counter()
        latencies[index] = end - due_at
        failed += top != expected[seed]
        done += 1
        if recorder is not None:
            recorder.add(span_name, due_at, end, -1, index)
        if calibrator is not None and done == len(tasks) and next_due_at - end > IDLE_GAP_S:
            calibrator.burst(1)

    tasks: List[asyncio.Future] = []
    first_unit = 0
    if calibrator is not None:
        first_unit = len(calibrator.units)
        calibrator.burst()  # a schedule too short to leave a gap still has units
    origin = time.perf_counter()
    for index, (due, seed) in enumerate(schedule):
        next_due_at = origin + due
        delay = next_due_at - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(index, next_due_at, seed)))
    next_due_at = 0.0
    backlog = len(tasks) - done
    await asyncio.gather(*tasks)
    wall = time.perf_counter() - origin
    if calibrator is not None:
        units = calibrator.units[first_unit:]
        overall = mean([seconds for _, seconds in units])
        by_second: Dict[int, List[float]] = {}
        for end, seconds in units:
            by_second.setdefault(max(0, int(end - origin)), []).append(seconds)
        for index, (due, _) in enumerate(schedule):
            unit = mean(by_second.get(int(due), [overall]))
            latencies[index] /= ms(unit) / spec.CALIBRATION_UNIT_MS
    return {"latencies": latencies, "late": late, "failed": failed,
            "backlog": backlog, "wall": wall, "sent": len(tasks)}


def _shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def run(seed: int, seconds: float, trace: bool, scale: Scale, recorder: SpanRecorder) -> Outcome:
    shm_before = _shm_segments()
    outcome, pids = asyncio.run(_run(seed, seconds, trace, scale, recorder))
    # The fleet is down: nothing it started may be left behind.
    leaked = [pid for pid in pids if _alive(pid)]
    new_shm = sorted(_shm_segments() - shm_before)
    if leaked or new_shm:
        outcome.failed += len(leaked) + len(new_shm)
        outcome.notes["leaked_pids"] = leaked
        outcome.notes["new_shm_segments"] = new_shm
    child_rss = peak_rss_mb(children=True)
    if trace:
        outcome.metrics["serving.replica.rss_mb"] = child_rss
    else:
        outcome.metrics["peak_rss_mb"] = max(peak_rss_mb(), child_rss)
    return outcome


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


async def _run(seed, seconds, trace, scale, recorder):
    degrees = load_dataset("G1").degrees()
    rates = spec.ROUTED_RATES
    if trace:
        span = max(0.3, min(5.0, seconds / 3.0))
        schedules = {rate: generate.arrival_schedule(degrees, seed, rate, span) for rate in rates}
    else:
        schedules = {rates[0]: generate.arrival_schedule(degrees, seed, rates[0], seconds)}
    hot = generate.hot_seeds(degrees)
    wanted = list(hot) + [s for schedule in schedules.values() for _, s in schedule]
    sha = generate.digest({str(rate): schedule for rate, schedule in schedules.items()})

    calibrator = Calibrator()
    setups: List[float] = []
    pids: List[int] = []
    fleet = None
    for _ in range(min(3, scale.setup_repeats)):
        if fleet is not None:
            await fleet.stop()
        calibrator.start(SETUP_UNITS)
        start = time.perf_counter()
        fleet = await Fleet().start(hot[: scale.warm_hot])
        elapsed = time.perf_counter() - start
        setups.append(elapsed / calibrator.slowdown(SETUP_UNITS))
        pids += fleet.child_pids()
    reference_s, (expected, _, _) = timed(
        lambda: reference_answers(load_dataset("G1"), wanted)
    )
    notes: Dict[str, object] = {"rates_qps": list(schedules), "reference_s": reference_s,
                                "setups_s": setups}
    try:
        if trace:
            metrics, attempted, failed = await _traced(
                fleet, schedules, expected, scale, recorder
            )
        else:
            (rate, schedule), = schedules.items()
            sent = await open_loop(fleet.pool, schedule, expected, calibrator=calibrator)
            attempted, failed = sent["sent"], sent["failed"]
            notes["calibration"] = calibrator.summary()
            notes["generator_late_p99_ms"] = ms(percentile(sent["late"], 99))
            notes["backlog_at_last_arrival"] = sent["backlog"]
            metrics = {
                "setup_s": median(setups),
                "qps": (attempted - failed) / sent["wall"],
                "latency_p50_ms": ms(median(sent["latencies"])),
            }
    finally:
        await fleet.stop()
    return Outcome(metrics, attempted, int(failed), sha, notes), pids


async def _traced(fleet: Fleet, schedules, expected, scale: Scale, recorder: SpanRecorder):
    rates = sorted(schedules)
    attempted = failed = 0
    metrics: Dict[str, float] = {}
    late: List[float] = []
    ok_rate = 0.0
    for label, rate in zip(("r1", "r2", "r3"), rates):
        sent = await open_loop(
            fleet.pool, schedules[rate], expected, recorder, f"open_routed.request.{label}"
        )
        attempted += sent["sent"]
        failed += sent["failed"]
        late += sent["late"]
        p99 = ms(percentile(sent["latencies"], 99))
        if label == "r2":
            metrics["latency_p99_ms"] = p99
        else:
            metrics[f"latency_p50_ms.{label}"] = ms(median(sent["latencies"]))
            metrics[f"latency_p99_ms.{label}"] = p99
        # No growing backlog: what was unanswered at the last arrival fits
        # what the connections can have in flight.
        if p99 <= spec.RATE_OK_P99_MS and not sent["failed"] and sent["backlog"] <= 2 * spec.CONNECTIONS:
            ok_rate = max(ok_rate, rate)
    metrics["max_rate_ok_qps"] = ok_rate

    # The same closed-loop queries direct to the replica, then via the router.
    items = [seed for _, seed in schedules[rates[-1]]][: scale.ladder_queries]
    host, port = fleet.replica_address
    direct_pool = await HttpClientPool(host, port, size=spec.CONNECTIONS).connect()
    try:
        direct, bad, _ = await closed_loop(
            http_sender(direct_pool), items, expected, 0.0,
            recorder=recorder, span="serving.frontend.http.roundtrip",
        )
        failed += bad
        routed, bad, routed_wall = await closed_loop(
            http_sender(fleet.pool), items, expected, 0.0,
            recorder=recorder, span="serving.frontend.router.roundtrip",
        )
        failed += bad
        # The routed pass again with no span recorded: the cost of tracing.
        plain, bad, _ = await closed_loop(http_sender(fleet.pool), items, expected, 0.0)
        failed += bad
        attempted += 3 * len(items)
        direct_s, routed_s = mean(direct), mean(routed)
        _, stats = await direct_pool.request_json("GET", "/stats")
        _, router_doc = await fleet.pool.request_json("GET", "/stats")
    finally:
        await direct_pool.close()

    admission = stats["admission"]
    offered = max(1, admission["offered"])
    engine_cache = stats["engine"]["cache"] or {}
    result_cache = stats["engine"]["result_cache"] or {}
    sub_hits = engine_cache.get("hits", 0) - result_cache.get("hits", 0)
    sub_misses = engine_cache.get("misses", 0) - result_cache.get("misses", 0)
    router_stats = router_doc["router"]
    metrics.update({
        "serving.frontend.http.roundtrip_ms": ms(direct_s),
        "serving.frontend.router.roundtrip_ms": ms(routed_s),
        "serving.frontend.router.forward_overhead_ms": ms(routed_s - direct_s),
        "serving.frontend.router.retries": float(sum(router_stats["retries"].values())),
        "serving.frontend.router.failovers": float(sum(router_stats["failovers"].values())),
        "serving.frontend.batcher.mean_batch_size": stats["mean_batch_size"],
        "serving.frontend.batcher.dedup_share": (
            stats["dedup_hits"] / stats["batched_queries"] if stats["batched_queries"] else 0.0
        ),
        "serving.frontend.admission.shed_share": admission["shed"] / offered,
        "serving.frontend.admission.expired_share": admission["expired"] / offered,
        "serving.cache.hit_share": (
            sub_hits / (sub_hits + sub_misses) if sub_hits + sub_misses else 0.0
        ),
        "serving.result_cache.hit_share": result_cache.get("hit_rate", 0.0),
        "serving.replica.ready_s": fleet.ready_s,
        "bench.generator_late_p99_ms": ms(percentile(late, 99)),
        "bench.reconcile_gap_share": abs(
            routed_s * len(items) / spec.CONNECTIONS - routed_wall
        ) / routed_wall,
        "bench.trace_overhead_share": routed_s / mean(plain) - 1.0,
    })
    return metrics, attempted, failed
