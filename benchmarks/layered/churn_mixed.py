"""churn_mixed: the cached engine under a stream of edge updates.

G1, the Zipf stream of hot_http driven straight into ``QueryEngine`` (both
caches on), closed loop, one caller, with one ``apply_update`` of four edge
ops after every 40 queries.  Every tenth update the graph is rebuilt from
scratch with ``CSRGraph.from_edges`` and the answers that follow are checked
against a fresh solver on the rebuild.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Set, Tuple

from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_dataset
from repro.graph.delta import DeltaGraph, update_distance_bound

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
    timed,
    topk_ms,
)
from .hot_http import cached_engine
from .spans import SpanRecorder

Script = List[List[Tuple[str, int, int]]]


def _segments(stream: Sequence[int], script: Script) -> List[Tuple[list, List[int]]]:
    """``(ops applied first, queries that follow)`` in run order.

    The stream starts on the base graph; update ``i`` lands after query
    ``(i + 1) * UPDATE_EVERY``; the script's last batch (the clean-up that
    returns the graph to its base) lands after the last query.
    """
    every = spec.UPDATE_EVERY
    segments: List[Tuple[list, List[int]]] = [([], list(stream[:every]))]
    for index, ops in enumerate(script[:-1]):
        begin = (index + 1) * every
        end = begin + every if index + 2 < len(script) else len(stream)
        segments.append((ops, list(stream[begin:end])))
    segments.append((script[-1], []))
    return segments


def _references(graph, segments) -> Tuple[Dict[int, Dict[int, Answer]], Dict[int, str]]:
    """From-scratch answers for the segment after every n-th update."""
    edges: Set[Tuple[int, int]] = set(generate.edge_set(graph))
    expected: Dict[int, Dict[int, Answer]] = {}
    fingerprints: Dict[int, str] = {}
    for index, (ops, queries) in enumerate(segments):
        for kind, u, v in ops:
            (edges.add if kind == "insert" else edges.discard)((u, v))
        if index % spec.REFERENCE_EVERY == 0 and queries:
            rebuilt = CSRGraph.from_edges(graph.num_nodes, sorted(edges), name=graph.name)
            expected[index], _, _ = reference_answers(rebuilt, queries)
            fingerprints[index] = rebuilt.fingerprint()
    return expected, fingerprints


def _build(warm_seeds: Sequence[int]):
    graph = load_dataset("G1")
    engine = cached_engine(graph)
    for seed in warm_seeds:
        engine.solve_batch([query_for(seed)])
    return graph, engine


def run(seed: int, seconds: float, trace: bool, scale: Scale, recorder: SpanRecorder) -> Outcome:
    base = load_dataset("G1")
    stream = generate.zipf_stream(base.degrees(), seed, scale.stream_length)
    script = generate.update_script(
        base.num_nodes, generate.edge_set(base), num_queries=len(stream)
    )
    sha = generate.digest({"stream": stream, "script": script})
    segments = _segments(stream, script)
    distinct = list(dict.fromkeys(stream))

    calibrator = Calibrator()
    setups: List[float] = []
    engine = None
    for _ in range(scale.setup_repeats):
        if engine is not None:
            engine.close()
        calibrator.start(SETUP_UNITS)
        elapsed, (graph, engine) = timed(lambda: _build(distinct))
        setups.append(elapsed / calibrator.slowdown(SETUP_UNITS))
    reference_s, (expected, fingerprints) = timed(lambda: _references(graph, segments))
    notes = {"queries_per_pass": len(stream), "updates_per_pass": len(script),
             "checked_segments": len(expected), "reference_s": reference_s,
             "setups_s": setups}

    counts_before = cache_counts(engine)
    try:
        if trace:
            # One traced pass for attribution, then the same pass with no
            # span recorded (the script returns the graph to its base).
            traced = _Pass()
            traced.run(engine, segments, expected, fingerprints, recorder)
            counts_after = cache_counts(engine)
            plain = _Pass()
            plain.run(engine, segments, expected, fingerprints, None)
            metrics = _traced_metrics(graph, script, traced, hit_shares(counts_before, counts_after))
            metrics["bench.trace_overhead_share"] = traced.wall / plain.wall - 1.0
            metrics["latency_p99_ms"] = ms(percentile(plain.query_lat, 99))
            attempted, failed = traced.attempted + plain.attempted, traced.failed + plain.failed
        else:
            total = _Pass()
            origin = time.perf_counter()
            calibrator.start()
            while time.perf_counter() - origin < seconds:
                total.run(engine, segments, expected, fingerprints, None, calibrator)
            attempted, failed = total.attempted, total.failed
            notes["calibration"] = calibrator.summary()
            metrics = {
                "setup_s": median(setups),
                "qps": (attempted - failed) / total.wall,
                "latency_p50_ms": ms(median(total.query_lat)),
                "peak_rss_mb": peak_rss_mb(),
            }
    finally:
        engine.close()
    return Outcome(metrics, attempted, int(failed), sha, notes)


class _Pass:
    """Accumulates whole passes over the segments (closed loop, one caller)."""

    def __init__(self) -> None:
        self.query_lat: List[float] = []
        self.update_lat: List[float] = []
        self.outcomes: List[dict] = []
        self.results: list = []
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0

    def run(self, engine, segments, expected, fingerprints, recorder, calibrator=None) -> None:
        """One pass.  With a ``calibrator`` (started by the caller) a burst
        follows every segment, and the segment's latencies and its share of
        the wall are calibrated."""
        for index, (ops, queries) in enumerate(segments):
            first_query, first_update = len(self.query_lat), len(self.update_lat)
            segment_start = time.perf_counter()
            if ops:
                start = time.perf_counter()
                outcome = engine.apply_update(ops)
                end = time.perf_counter()
                self.update_lat.append(end - start)
                self.outcomes.append(outcome)
                if recorder is not None:
                    recorder.add("serving.engine.update", start, end)
                if index in fingerprints:
                    self.failed += outcome["new_fingerprint"] != fingerprints[index]
            checked = expected.get(index)
            for seed in queries:
                start = time.perf_counter()
                (result,) = engine.solve_batch([query_for(seed)])
                end = time.perf_counter()
                self.query_lat.append(end - start)
                self.attempted += 1
                if recorder is not None:
                    recorder.add("serving.engine.solve_batch", start, end, -1, self.attempted)
                    self.results.append(result)
                if checked is not None:
                    self.failed += answer_of(result) != checked[seed]
            elapsed = time.perf_counter() - segment_start
            if calibrator is not None:
                slowdown = calibrator.slowdown()
                elapsed /= slowdown
                for series, first in ((self.query_lat, first_query), (self.update_lat, first_update)):
                    series[first:] = [latency / slowdown for latency in series[first:]]
            self.wall += elapsed


def _traced_metrics(graph, script: Script, run: _Pass, shares: Dict[str, float]) -> Dict[str, float]:
    metrics = engine_depth_metrics(run.results, run.query_lat)
    metrics.update(shares)
    metrics["meloppr.aggregation.topk_ms"] = topk_ms(run.results)
    updates = max(1, len(run.outcomes))

    def per_update(key: str) -> float:
        return sum(outcome["invalidated"][key] for outcome in run.outcomes) / updates

    # graph.delta from outside: the script's first batches, one after another.
    probes = script[: min(20, len(script) - 1)]
    compact_s = fingerprint_s = bound_s = 0.0
    current = graph
    for ops in probes:
        delta = DeltaGraph(current)
        elapsed, fresh = timed(lambda: (delta.apply(ops), delta.compact())[1])
        compact_s += elapsed
        elapsed, _ = timed(fresh.fingerprint)
        fingerprint_s += elapsed
        touched = delta.touched_nodes()
        elapsed, _ = timed(lambda: update_distance_bound(current, fresh, touched, 3))
        bound_s += elapsed
        current = fresh

    metrics.update({
        "serving.engine.update_ms": ms(mean(run.update_lat)),
        "update_p50_ms": ms(median(run.update_lat)),
        "update_p90_ms": ms(percentile(run.update_lat, 90)),
        "serving.cache.dropped_per_update": per_update("subgraph_entries_dropped"),
        "serving.result_cache.dropped_per_update": per_update("result_entries_dropped"),
        "serving.result_cache.rekeyed_per_update": per_update("result_entries_rekeyed"),
        "graph.delta.apply_compact_ms": ms(compact_s / len(probes)),
        "graph.delta.fingerprint_ms": ms(fingerprint_s / len(probes)),
        "graph.delta.distance_bound_ms": ms(bound_s / len(probes)),
        # One caller: queries and updates are the wall, but for the loop itself.
        "bench.reconcile_gap_share": abs(
            sum(run.query_lat) + sum(run.update_lat) - run.wall
        ) / run.wall,
    })
    return metrics
