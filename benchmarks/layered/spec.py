"""The benchmark's declarations: workloads, metrics, bounds, frozen sizes.

Everything ``BENCHMARK.json`` states is derived from this module by
:func:`benchmark_json`; the smoke test asserts the committed file and the
emitters agree with it, so a metric cannot be added in one place only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: What the driver runs (one workload per invocation); see ``run.py``.
COMMAND = ["python3", "benchmarks/layered/run.py"]
PATHS = ["benchmarks/layered"]
#: Seconds one run measures for.  92 driver runs x (this + set-up + the
#: reference answers) must fit 3420 s, which leaves ~37 s per run on this box.
RUN_SECONDS = 20
DEFAULT_SEED = 20210613

#: Workload name -> the one-line reason it exists (stamped into every result).
WORKLOADS: Dict[str, str] = {
    "cold_wide": (
        "G3 at the paper's k=200/L=6/(3,3)/c=10, distinct overflowing seeds, "
        "no caches, in-process engine: all time is bfs, diffusion and the "
        "bounded fold, so serving-layer changes must leave it flat"
    ),
    "hot_http": (
        "G1 Zipf(1.1) over 256 hot seeds, both caches warm, HTTP door over "
        "the micro-batcher, 2 closed-loop connections: compute is a tenth of "
        "the round trip, so transport and batcher changes show here first"
    ),
    "churn_mixed": (
        "the same Zipf stream straight into the cached engine with 4 edge ops "
        "after every 40 queries: uses the cache tiers to invalidate and "
        "re-key, not to hit; only workload on graph.delta and the barrier"
    ),
    "open_routed": (
        "70% Zipf hot / 30% never-repeated seeds arriving open-loop (Poisson, "
        "frozen rate) through router and one replica subprocess, timed from "
        "the due time: queueing and forwarding only show under a schedule"
    ),
}


@dataclass(frozen=True)
class Metric:
    """One declared metric; ``bound`` is ``None`` for per-layer metrics."""

    name: str
    unit: str
    better: str
    bound: float | None = None
    note: str = ""


#: End-to-end metrics: every workload emits every one with ``--trace 0``.
#: Every timing is calibrated (``common.Calibrator``; README.md, "Why timings
#: are calibrated"): divided by how much slower than the nominal core the
#: calibration unit ran around the measured block.  Calibrated spreads across
#: ten seeds are 3-8 % (README.md, "Repeatability study"); the bounds stay
#: at three times that, the contract's ceiling of 0.25.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25,
           "median of the set-ups in a run, each calibrated: graph load, "
           "engine/server/fleet start and the warm pass"),
    Metric("qps", "1/s", "higher", 0.25,
           "bit-identical answers per second of calibrated wall "
           "(open_routed: of the schedule, not calibrated)"),
    Metric("latency_p50_ms", "ms", "lower", 0.25,
           "median calibrated request latency (open_routed: from the due time)"),
    Metric("peak_rss_mb", "MB", "lower", 0.10,
           "peak resident set of the bench process (open_routed: the larger "
           "of it and the replica child)"),
)


def _layer(name: str, unit: str, better: str, note: str) -> Metric:
    return Metric(name, unit, better, None, note)


#: Per-layer metrics: every workload emits every one with ``--trace 1``; a
#: layer the workload never enters reports 0.  ``note`` names the end-to-end
#: metric the layer metric should move, and on which workload.
PER_LAYER: Tuple[Metric, ...] = (
    # graph.bfs
    _layer("graph.bfs.extract_ms", "ms", "lower",
           "qps/latency_p50_ms on cold_wide and churn_mixed; flat on hot_http"),
    _layer("graph.bfs.calls_per_query", "count", "lower", "same as extract_ms"),
    _layer("graph.bfs.edges_scanned_per_query", "count", "lower",
           "exact count; must not move unless the algorithm changes"),
    # diffusion
    _layer("diffusion.diffuse_ms", "ms", "lower", "qps on cold_wide"),
    _layer("diffusion.propagations_per_query", "count", "lower", "exact count"),
    _layer("diffusion.kernels.diffuse_ms.reference", "ms", "lower",
           "evidence row: keep or delete a kernel"),
    _layer("diffusion.kernels.diffuse_ms.csr", "ms", "lower", "evidence row"),
    _layer("diffusion.kernels.diffuse_ms.frontier", "ms", "lower", "evidence row"),
    # meloppr
    _layer("meloppr.aggregation.fold_ms", "ms", "lower",
           "qps/latency_p50_ms on cold_wide (most of the wall); ~0 on hot_http"),
    _layer("meloppr.aggregation.updates_per_query", "count", "lower", "exact count"),
    _layer("meloppr.aggregation.evictions_per_query", "count", "lower", "exact count"),
    _layer("meloppr.aggregation.evictions_per_update", "share", "lower",
           "wasted-work ratio of the bounded table"),
    _layer("meloppr.aggregation.topk_ms", "ms", "lower", "latency on every workload"),
    _layer("meloppr.selection.select_ms", "ms", "lower", "qps on cold_wide"),
    _layer("meloppr.planner.tasks_per_query", "count", "lower", "exact count"),
    _layer("meloppr.planner.self_ms", "ms", "lower",
           "solve - extract - diffuse - fold - select"),
    _layer("meloppr.solver.solve_ms", "ms", "lower", "qps on cold_wide"),
    # serving.engine and caches
    _layer("serving.engine.solve_batch_ms", "ms", "lower",
           "qps on churn_mixed and hot_http"),
    _layer("serving.engine.self_ms", "ms", "lower", "solve_batch - solver"),
    _layer("serving.engine.update_ms", "ms", "lower", "update_p50_ms on churn_mixed"),
    _layer("serving.cache.hit_share", "share", "higher", "qps on hot_http"),
    _layer("serving.cache.lookup_ms", "ms", "lower", "qps on hot_http"),
    _layer("serving.cache.dropped_per_update", "count", "lower",
           "qps and update_p50_ms on churn_mixed"),
    _layer("serving.result_cache.hit_share", "share", "higher", "qps on hot_http"),
    _layer("serving.result_cache.get_ms", "ms", "lower", "qps on hot_http"),
    _layer("serving.result_cache.dropped_per_update", "count", "lower",
           "qps on churn_mixed"),
    _layer("serving.result_cache.rekeyed_per_update", "count", "lower",
           "update_p50_ms on churn_mixed"),
    # graph.delta
    _layer("graph.delta.apply_compact_ms", "ms", "lower",
           "update_p50_ms/update_p90_ms on churn_mixed only"),
    _layer("graph.delta.fingerprint_ms", "ms", "lower", "same"),
    _layer("graph.delta.distance_bound_ms", "ms", "lower", "same"),
    # serving.backends (evidence rows; every workload runs serial)
    _layer("serving.backends.batch_qps.serial", "1/s", "higher",
           "none of the four workloads: backend-deletion evidence"),
    _layer("serving.backends.batch_qps.thread2", "1/s", "higher", "same"),
    # serving.frontend
    _layer("serving.frontend.batcher.submit_ms", "ms", "lower",
           "latency_p50_ms/qps on hot_http; latency_p99_ms.r3 on open_routed"),
    _layer("serving.frontend.batcher.self_ms", "ms", "lower", "submit - engine"),
    _layer("serving.frontend.batcher.mean_batch_size", "count", "higher",
           "batches only form under arrivals"),
    _layer("serving.frontend.batcher.dedup_share", "share", "higher", "same"),
    _layer("serving.frontend.admission.shed_share", "share", "lower",
           "failed_share and max_rate_ok_qps on open_routed"),
    _layer("serving.frontend.admission.expired_share", "share", "lower", "same"),
    _layer("serving.frontend.http.roundtrip_ms", "ms", "lower",
           "latency_p50_ms/qps on hot_http; every .r* latency"),
    _layer("serving.frontend.http.self_ms", "ms", "lower", "roundtrip - batcher submit"),
    _layer("serving.frontend.http.noop_ms", "ms", "lower", "GET /healthz"),
    _layer("serving.frontend.http.json_ms", "ms", "lower",
           "encode + decode of one k=200 answer"),
    _layer("serving.frontend.http.response_bytes", "bytes", "lower", "one k=200 answer"),
    _layer("serving.frontend.server.roundtrip_ms", "ms", "lower",
           "the row a transport-collapse change must hold"),
    _layer("serving.frontend.metrics.scrape_ms", "ms", "lower",
           "the row a metric-registry change must hold"),
    _layer("serving.frontend.router.roundtrip_ms", "ms", "lower",
           "latency_p50_ms on open_routed"),
    _layer("serving.frontend.router.forward_overhead_ms", "ms", "lower",
           "routed - direct-to-replica on the same queries"),
    _layer("serving.frontend.router.retries", "count", "lower", "0 on a healthy fleet"),
    _layer("serving.frontend.router.failovers", "count", "lower", "0 on a healthy fleet"),
    _layer("serving.replica.ready_s", "s", "lower", "setup_s on open_routed"),
    _layer("serving.replica.rss_mb", "MB", "lower", "peak_rss_mb on open_routed"),
    # Demoted end-to-end metrics: they apply to one workload only (the
    # contract wants every end-to-end metric from every workload) or are
    # exactly 0 on a healthy run.  Names are the issue's, so later issues
    # can cite them.
    _layer("latency_p99_ms", "ms", "lower",
           "99th percentile request latency with no span recorded (cold_wide "
           "has 12 samples: the slowest); 30-140 % spread on open_routed"),
    _layer("failed_share", "share", "lower",
           "failed + refused + shed + not-bit-identical over attempted"),
    _layer("precision_at_k", "share", "higher",
           "cold_wide: result_precision vs LocalPPRSolver; exact"),
    _layer("query_peak_kb", "kB", "lower",
           "cold_wide: median modelled_bytes (Table II quantity); exact"),
    _layer("update_p50_ms", "ms", "lower", "churn_mixed: apply_update wall"),
    _layer("update_p90_ms", "ms", "lower", "churn_mixed: apply_update wall"),
    _layer("latency_p50_ms.r1", "ms", "lower", "open_routed at the lowest frozen rate"),
    _layer("latency_p99_ms.r1", "ms", "lower", "same"),
    _layer("latency_p50_ms.r3", "ms", "lower", "open_routed at the highest frozen rate"),
    _layer("latency_p99_ms.r3", "ms", "lower", "same"),
    _layer("max_rate_ok_qps", "1/s", "higher",
           "open_routed: highest frozen rate with p99 <= 50 ms, no failure, "
           "no growing backlog"),
    # bench diagnostics
    _layer("bench.calibration_ms", "ms", "lower",
           "mean of 25 calibration units run first (per-layer timings are "
           "not calibrated); sets differing > 15 % are flagged, not compared"),
    _layer("bench.trace_overhead_share", "share", "lower", "traced vs untraced wall"),
    _layer("bench.reconcile_gap_share", "share", "lower",
           "|sum of layer self times - traced wall| / traced wall; <= 0.10"),
    _layer("bench.generator_late_p99_ms", "ms", "lower",
           "how late the open-loop generator dispatched"),
)

E2E_NAMES: Tuple[str, ...] = tuple(metric.name for metric in END_TO_END)
LAYER_NAMES: Tuple[str, ...] = tuple(metric.name for metric in PER_LAYER)
UNITS: Dict[str, str] = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}

#: Unit time of the nominal core every end-to-end timing is scaled to: the
#: floor of ``common.Calibrator``'s unit on the box this benchmark was built on
#: (the time it takes there when nothing else is on the host).
CALIBRATION_UNIT_MS = 1.9

#: Requests between two calibration bursts of a closed-loop socket run.
CALIBRATED_BLOCK = 100

#: The traced run fails when the un-attributed share of its wall exceeds this.
RECONCILE_LIMIT = 0.10
#: Latency limit for ``max_rate_ok_qps``.
RATE_OK_P99_MS = 50.0

# ----------------------------------------------------------------------
# Frozen sizes.  They fix run length on parent and change alike; the numbers
# were chosen in the repeatability study recorded in README.md.
# ----------------------------------------------------------------------
PAPER_K = 200
HOT_SEEDS = 256
ZIPF_SKEW = 1.1
#: Queries in one pass of the Zipf stream (hot_http, churn_mixed).
STREAM_LENGTH = 3000
#: churn_mixed: one update after this many queries, of this shape.
UPDATE_EVERY = 40
UPDATE_INSERTS = 2
#: churn_mixed: a from-scratch rebuild checks the answers after every n-th update.
REFERENCE_EVERY = 10
#: open_routed: share of arrivals that are never-repeated seeds.
COLD_SHARE = 0.30
#: open_routed: frozen offered rates in queries/s (about 35/55/75 % of the
#: ~147 qps two closed-loop connections reach on this mix through the router).
ROUTED_RATES: Tuple[float, float, float] = (50.0, 80.0, 110.0)
#: Connections / in-flight callers of every socket workload (nproc = 2).
CONNECTIONS = 2
#: Set-ups per run; ``setup_s`` is their median.  (open_routed, whose set-up
#: spawns a process, does three.)
SETUP_REPEATS = 5


def benchmark_json() -> Dict[str, object]:
    """The exact content ``BENCHMARK.json`` must have."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {
                "name": metric.name,
                "unit": metric.unit,
                "better": metric.better,
                "bound": metric.bound,
            }
            for metric in END_TO_END
        ],
        "per_layer": [
            {"name": metric.name, "unit": metric.unit, "better": metric.better}
            for metric in PER_LAYER
        ],
    }


def validate() -> List[str]:
    """Contract checks on the declarations (names, units, lengths)."""
    import re

    problems: List[str] = []
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    seen = set()
    for name in list(WORKLOADS) + list(E2E_NAMES) + list(LAYER_NAMES):
        if not name_re.match(name):
            problems.append(f"bad name {name!r}")
        if name in seen:
            problems.append(f"name used twice: {name!r}")
        seen.add(name)
    for metric in END_TO_END + PER_LAYER:
        if not unit_re.match(metric.unit):
            problems.append(f"bad unit {metric.unit!r} on {metric.name}")
        if metric.better not in ("lower", "higher"):
            problems.append(f"bad direction on {metric.name}")
    for metric in END_TO_END:
        if metric.bound is None or not 0 < metric.bound <= 0.25:
            problems.append(f"bad bound on {metric.name}")
    for name, why in WORKLOADS.items():
        if len(why) > 200 or "\n" in why:
            problems.append(f"why of {name} is not one line of <= 200 chars")
    if "setup_s" not in E2E_NAMES:
        problems.append("setup_s missing")
    return problems
