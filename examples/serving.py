"""Serving-engine example: batch queries, cache extractions, compare backends.

Builds a hot-seed workload (a handful of seeds queried repeatedly, as real
traffic would) and answers it four ways — ``serial`` and ``thread:2``, each
with a cold and a warm sub-graph cache — printing throughput, mean latency
and the cache hit rate, and verifying all four return identical answers.

Run with::

    PYTHONPATH=src python examples/serving.py
"""

from __future__ import annotations

from repro.graph import load_dataset
from repro.meloppr import MeLoPPRConfig, MeLoPPRSolver
from repro.meloppr.selection import RatioSelector
from repro.ppr import PPRQuery
from repro.serving import QueryEngine, SubgraphCache, make_backend


def main() -> None:
    graph = load_dataset("G1")  # the citeseer stand-in
    print(f"Loaded {graph.name}: {graph.num_nodes} nodes, {graph.num_edges} edges")

    # Hot-seed workload: 6 seeds, each queried 5 times.
    seeds = [42, 7, 99, 512, 7, 42] * 5
    queries = [PPRQuery(seed=seed, k=100) for seed in seeds]
    config = MeLoPPRConfig(
        stage_lengths=(3, 3),
        selector=RatioSelector(0.02),
        score_table_factor=10,
        track_memory=False,  # wall-clock numbers, not tracemalloc overhead
    )

    reference = None
    for label, spec, cache in (
        ("serial, cold cache  ", "serial", None),
        ("serial, warm cache  ", "serial", SubgraphCache()),
        ("thread:2, cold cache", "thread:2", None),
        ("thread:2, warm cache", "thread:2", SubgraphCache()),
    ):
        backend = make_backend(spec)
        with QueryEngine(MeLoPPRSolver(graph, config), backend=backend, cache=cache) as engine:
            results = engine.solve_batch(queries)
            stats = engine.stats()
        answers = [result.top_k_nodes() for result in results]
        if reference is None:
            reference = answers
        assert answers == reference, "backends must not change answers"
        hit_rate = "  (no cache)" if stats.cache is None else f"  hit rate {stats.cache.hit_rate:.0%}"
        print(
            f"{label} {stats.throughput_qps:7.1f} qps   "
            f"mean latency {stats.mean_latency_seconds * 1e3:6.2f} ms{hit_rate}"
        )

    print(f"\nAll {len(queries)} queries returned identical top-k answers.")



if __name__ == "__main__":
    main()
