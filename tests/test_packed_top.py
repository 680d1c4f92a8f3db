"""The packed ranking: one layout, and the same answer on every route.

A query carrying ``"packed": true`` gets its top-k as ``"top_packed"``,
base64 of little-endian ``(int64 node, float64 score)`` records, and
``HttpClientPool.query`` always asks for it.  The first group holds the
layout to the JSON form bit for bit.  The second serves G1 seeds, computed
and then replayed, through every route a client can take — the pool on the
HTTP door, a bare JSON request, the TCP door and the pool through the
replica router — and requires one ranking from all of them.
"""

from __future__ import annotations

import asyncio
import json
import struct
from contextlib import AsyncExitStack

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.serving.frontend import (
    AsyncQueryServer,
    HttpClient,
    HttpClientPool,
    HttpQueryServer,
    MicroBatcher,
    ReplicaRouter,
    ServingConfig,
    TcpQueryClient,
    build_frontend,
)
from repro.serving.frontend.protocol import pack_top, unpack_top

PAIRS = st.lists(
    st.tuples(
        st.integers(-(2**63), 2**63 - 1),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    max_size=40,
)


def bits(pairs):
    """Each pair as its two types, the node and the score's IEEE-754 bytes."""
    return [
        (type(node), type(score), node, struct.pack("<d", score))
        for node, score in pairs
    ]


class TestPackedLayout:
    @settings(max_examples=200, deadline=None)
    @given(PAIRS)
    # Signed zeros, the int64 ends, the smallest subnormal, a negative
    # subnormal and the largest finite magnitudes.
    @example([(0, -0.0), (1, 0.0), (2**63 - 1, 5e-324), (-(2**63), -2.2e-308)])
    @example([(7, 1.7976931348623157e308), (8, -1.7976931348623157e308)])
    def test_unpack_of_pack_is_the_json_round_trip(self, pairs):
        text = pack_top(pairs)
        assert len(text) == 4 * -(-16 * len(pairs) // 3)  # base64 of 16 B each
        unpacked = unpack_top(text)
        assert all(type(pair) is list for pair in unpacked)
        assert bits(unpacked) == bits(json.loads(json.dumps(pairs)))


CONFIG = ServingConfig(dataset="G1", backend="serial")
SEEDS = range(0, 400, 20)  # 20 seeds
K = 50


class TestEveryRoute:
    def test_computed_and_replayed_answers_agree_on_every_route(self):
        engine, policy, admission = build_frontend(CONFIG)
        solver = MeLoPPRSolver(engine.solver.graph, engine.solver.config)

        async def run():
            async with AsyncExitStack() as stack:
                enter = stack.enter_async_context
                batcher = await enter(MicroBatcher(engine, policy, admission))
                http = await enter(HttpQueryServer(batcher, "127.0.0.1", 0))
                tcp = await enter(AsyncQueryServer(batcher, "127.0.0.1", 0))
                router = await enter(
                    ReplicaRouter([http.address], health_interval_s=0)
                )
                stack.push_async_callback(router.stop)
                pool = await enter(HttpClientPool(*http.address, size=2))
                routed = await enter(HttpClientPool(*router.address, size=2))
                bare = await enter(HttpClient(*http.address))
                tcp_client = await enter(await TcpQueryClient.connect(*tcp.address))

                async def via_pool(seed):
                    request = {"seed": seed, "k": K}
                    status, payload = await pool.query(request)
                    assert request == {"seed": seed, "k": K}  # not mutated
                    return status, payload

                async def via_bare(seed):
                    return await bare.query({"seed": seed, "k": K})

                async def via_tcp(seed):
                    return 200, await tcp_client.query(seed, k=K)

                async def via_router(seed):
                    return await routed.query({"seed": seed, "k": K})

                routes = [via_pool, via_bare, via_tcp, via_router]
                answers = {}
                for index, seed in enumerate(SEEDS):
                    # Each route computes some seeds first; every route then
                    # replays every seed.
                    first = routes[index % len(routes)]
                    answers[seed] = [await first(seed)] + [
                        await route(seed) for route in routes
                    ]
                return answers, batcher.stats()

        with engine:
            answers, stats = asyncio.run(run())
        assert stats.engine.result_cache.hits >= 4 * len(SEEDS)
        for seed, deliveries in answers.items():
            expected = [
                [int(node), float(score)]
                for node, score in solver.solve(PPRQuery(seed=seed, k=K)).top_k()
            ]
            for status, payload in deliveries:
                assert status == 200 and payload["ok"] is True
                assert "top_packed" not in payload
                assert bits(payload["top"]) == bits(expected)
