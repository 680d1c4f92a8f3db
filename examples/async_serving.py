"""Async serving example: a TCP/JSON query service and a pipelining client.

Stands up the full online request path in one process — engine (serial
backend + sub-graph cache) → micro-batching scheduler → admission control →
TCP server speaking newline-delimited JSON — then drives it with a
:class:`~repro.serving.frontend.TcpQueryClient`:

1. a pipelined burst of hot-seed queries (duplicates included, so the
   batcher's dedup and the engine's cache both engage),
2. a verification that every answer matches the offline
   ``QueryEngine.solve_batch`` reference exactly,
3. the server's own stats report: batches formed, dedup hits, cache hit
   rate, and p50/p95/p99 end-to-end latency,
4. a deliberately over-tight deadline showing the explicit ``deadline``
   rejection (no silent stale answers).

Run with::

    PYTHONPATH=src python examples/async_serving.py
"""

from __future__ import annotations

import asyncio

from repro.graph import load_dataset
from repro.meloppr import MeLoPPRConfig, MeLoPPRSolver
from repro.meloppr.selection import RatioSelector
from repro.ppr import PPRQuery
from repro.serving import QueryEngine, SubgraphCache, make_backend
from repro.serving.frontend import (
    AdmissionController,
    AsyncQueryServer,
    BatchPolicy,
    DeadlineExceededError,
    MicroBatcher,
    TcpQueryClient,
)


async def main() -> None:
    graph = load_dataset("G1")  # the citeseer stand-in
    print(f"Loaded {graph.name}: {graph.num_nodes} nodes, {graph.num_edges} edges")

    config = MeLoPPRConfig(
        stage_lengths=(3, 3),
        selector=RatioSelector(0.02),
        score_table_factor=10,
        track_memory=False,
    )
    # Hot-seed burst: 6 seeds, each queried 5 times, order shuffled.
    seeds = [42, 7, 99, 512, 7, 42] * 5
    queries = [PPRQuery(seed=seed, k=100) for seed in seeds]

    # Offline reference: what every online answer must match exactly.
    with QueryEngine(MeLoPPRSolver(graph, config)) as reference_engine:
        reference = {
            query: result.top_k()
            for query, result in zip(
                queries, reference_engine.solve_batch(queries)
            )
        }

    engine = QueryEngine(
        MeLoPPRSolver(graph, config),
        backend=make_backend("serial"),
        cache=SubgraphCache(),
    )
    policy = BatchPolicy(max_batch_size=8, dedup=True)
    admission = AdmissionController(max_pending=64)

    async with MicroBatcher(engine, policy, admission) as batcher:
        async with AsyncQueryServer(batcher) as server:
            host, port = server.address
            print(f"Serving on {host}:{port} (policy {policy.label})\n")

            client = await TcpQueryClient.connect(host, port)
            try:
                # Pipelined burst: all requests in flight at once.
                answers = await asyncio.gather(
                    *(client.solve(seed=q.seed, k=q.k) for q in queries)
                )
                matches = sum(
                    answer == [(int(n), float(s)) for n, s in reference[query]]
                    for query, answer in zip(queries, answers)
                )
                print(
                    f"Burst of {len(queries)} queries answered; "
                    f"{matches}/{len(queries)} bit-identical to the offline engine"
                )

                stats = await client.stats()
                latency = stats["admission"]["latency"]
                print(
                    f"Server formed {stats['batches']} batches "
                    f"(mean size {stats['mean_batch_size']:.1f}), "
                    f"dedup served {stats['dedup_hits']} waiters for free, "
                    f"cache hit rate {stats['engine']['cache']['hit_rate']:.0%}"
                )
                print(
                    "End-to-end latency: "
                    f"p50 {latency['p50_seconds'] * 1e3:.2f} ms, "
                    f"p95 {latency['p95_seconds'] * 1e3:.2f} ms, "
                    f"p99 {latency['p99_seconds'] * 1e3:.2f} ms"
                )

                # Deadlines are enforced, not advisory: an impossible budget
                # is answered with an explicit rejection.
                try:
                    await client.solve(seed=1234, k=100, timeout_ms=0.01)
                    print("Deadline demo: unexpectedly fast machine!")
                except DeadlineExceededError:
                    print(
                        "Deadline demo: 0.01 ms budget correctly rejected "
                        "with error='deadline'"
                    )
            finally:
                await client.close()
    engine.close()


if __name__ == "__main__":
    asyncio.run(main())
