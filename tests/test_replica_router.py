"""``ReplicaRouter``: routing, failover, drain, and metrics accounting.

Most tests run against in-process ``HttpQueryServer`` replicas (fast,
deterministic); the crash-failover acceptance test at the bottom runs
a real ``ReplicaSet`` of subprocesses and SIGKILLs one under load —
zero dropped queries, every answer bit-identical to the serial
reference, and the router's counters account for every retry.
"""

from __future__ import annotations

import asyncio
import json
import signal
from contextlib import AsyncExitStack

import pytest

from repro.serving.frontend import (
    HttpQueryServer,
    MicroBatcher,
    ReplicaRouter,
    ServingConfig,
    build_frontend,
    parse_prometheus_text,
)
from repro.serving.frontend.http import HttpClientPool
from repro.serving.frontend.router import (
    DEAD,
    DRAINING,
    HEALTHY,
    INCOMPATIBLE,
    SUSPECT,
)
from repro.serving.replica import ReplicaSet
from repro.serving.tracing import Tracer

CONFIG = ServingConfig(
    dataset="G1", backend="serial", num_shards=4, max_wait_ms=0.5
)


class InProcessFleet:
    """N real HttpQueryServers over one dataset, addressable like replicas."""

    def __init__(self, count: int, config: ServingConfig = CONFIG) -> None:
        self.count = count
        self.config = config
        self.servers = []
        self.endpoints = []
        self._stack = AsyncExitStack()

    async def __aenter__(self):
        for _ in range(self.count):
            engine, policy, admission = build_frontend(self.config)
            batcher = await self._stack.enter_async_context(
                MicroBatcher(engine, policy, admission)
            )
            server = HttpQueryServer(batcher, "127.0.0.1", 0)
            await self._stack.enter_async_context(server)
            self.servers.append(server)
            self.endpoints.append(server.address)
        return self

    async def __aexit__(self, exc_type, exc, traceback):
        await self._stack.aclose()

    async def crash(self, index: int):
        """Stop one server's listener and abort its connections."""
        server = self.servers[index]
        await server.stop()
        # A closed listener alone does not sever established keep-alive
        # connections; kill them so clients see the "crash" immediately.
        for task in list(server._conn_tasks):
            task.cancel()
        await asyncio.gather(*server._conn_tasks, return_exceptions=True)


def run(coro):
    asyncio.run(coro)


@pytest.fixture(scope="module")
def reference_answers():
    """Serial-engine answers for the query mix every test replays."""
    engine, _, _ = build_frontend(CONFIG.replace(backend="serial"))
    try:
        from repro.ppr.base import PPRQuery

        answers = {}
        for seed in range(24):
            result = engine.solve_batch([PPRQuery(seed=seed, k=50)])[0]
            answers[seed] = [[int(n), float(s)] for n, s in result.top_k()]
        return answers
    finally:
        engine.close()


class TestRouting:
    def test_routes_by_owner_and_answers_bit_identically(
        self, reference_answers
    ):
        async def main():
            async with InProcessFleet(3) as fleet:
                router = ReplicaRouter(
                    fleet.endpoints, num_shards=4, health_interval_s=0
                )
                async with router:
                    async with HttpClientPool(*router.address) as pool:
                        for seed, expected in reference_answers.items():
                            status, payload = await pool.request_json(
                                "POST", "/query", {"seed": seed, "k": 50}
                            )
                            assert status == 200 and payload["ok"]
                            assert payload["top"] == expected
                        # With everyone healthy, every query lands on its
                        # ring owner: zero failovers, zero retries.
                        stats = router._router_stats()
                        assert stats["queries"] == len(reference_answers)
                        assert sum(stats["retries"].values()) == 0
                        assert sum(stats["failovers"].values()) == 0
                        for seed in reference_answers:
                            owner = router.owner_of(seed)
                            assert stats["answers"][owner] > 0
                    await router.stop()

        run(main())

    def test_same_shard_seeds_share_a_replica(self):
        async def main():
            async with InProcessFleet(2) as fleet:
                router = ReplicaRouter(
                    fleet.endpoints, num_shards=4, health_interval_s=0
                )
                # Pure function of the ring: no serving needed.
                from repro.graph.partition import hash_shard_of

                by_shard = {}
                for seed in range(200):
                    shard = hash_shard_of(seed, 4)
                    by_shard.setdefault(shard, set()).add(
                        router.owner_of(seed)
                    )
                for shard, owners in by_shard.items():
                    assert len(owners) == 1, (shard, owners)

        run(main())

    def test_bad_seed_is_bad_request_not_a_forward(self):
        async def main():
            async with InProcessFleet(1) as fleet:
                router = ReplicaRouter(
                    fleet.endpoints, num_shards=4, health_interval_s=0
                )
                async with router:
                    async with HttpClientPool(*router.address) as pool:
                        for body in ({"k": 5}, {"seed": True}, {"seed": "x"}):
                            status, payload = await pool.request_json(
                                "POST", "/query", body
                            )
                            assert status == 400
                            assert payload["error"] == "bad_request"
                        assert sum(router._forwards.values()) == 0
                    await router.stop()

        run(main())

    def test_replica_rejection_is_forwarded_not_retried(self):
        async def main():
            async with InProcessFleet(2) as fleet:
                router = ReplicaRouter(
                    fleet.endpoints,
                    num_shards=4,
                    health_interval_s=0,
                    retries=5,
                )
                async with router:
                    async with HttpClientPool(*router.address) as pool:
                        # The replica answers bad_request for a negative
                        # seed; the router must relay it on one forward.
                        status, payload = await pool.request_json(
                            "POST", "/query", {"seed": -1, "k": 5}
                        )
                        assert status == 400
                        assert payload["error"] == "bad_request"
                        assert sum(router._forwards.values()) == 1
                        assert sum(router._retries_by_replica.values()) == 0
                    await router.stop()

        run(main())


class TestFailover:
    def test_crash_fails_over_bit_identically(self, reference_answers):
        async def main():
            async with InProcessFleet(3) as fleet:
                router = ReplicaRouter(
                    fleet.endpoints,
                    num_shards=4,
                    health_interval_s=0,
                    retries=3,
                    retry_backoff_ms=1.0,
                )
                async with router:
                    async with HttpClientPool(*router.address) as pool:
                        victim = router.owner_of(0)
                        victim_index = int(victim.split("-")[1])
                        await fleet.crash(victim_index)
                        for seed, expected in reference_answers.items():
                            status, payload = await pool.request_json(
                                "POST", "/query", {"seed": seed, "k": 50}
                            )
                            assert status == 200 and payload["ok"], payload
                            assert payload["top"] == expected
                        assert router.replica_states()[victim] in (
                            SUSPECT,
                            DEAD,
                        )
                        # Retries are visible and attributed: at least one
                        # forward to the victim failed and was re-sent.
                        stats = router._router_stats()
                        assert stats["forward_errors"][victim] > 0
                        assert sum(stats["retries"].values()) > 0
                        assert stats["answers"][victim] == 0
                    await router.stop()

        run(main())

    def test_metrics_account_for_every_retry(self, reference_answers):
        """forwards == answered + transport failures, and
        forwards - queries-that-got-an-answer == retries."""

        async def main():
            async with InProcessFleet(2) as fleet:
                router = ReplicaRouter(
                    fleet.endpoints,
                    num_shards=4,
                    health_interval_s=0,
                    retries=3,
                    retry_backoff_ms=1.0,
                )
                async with router:
                    async with HttpClientPool(*router.address) as pool:
                        await fleet.crash(0)
                        for seed in range(16):
                            status, payload = await pool.request_json(
                                "POST", "/query", {"seed": seed, "k": 10}
                            )
                            assert status == 200 and payload["ok"]
                        _, _, body = await pool.request("GET", "/metrics")
                        scrape = parse_prometheus_text(body.decode())

                        def total(family):
                            return sum(
                                value
                                for key, value in scrape.samples.items()
                                if key[0] == family
                            )

                        forwards = total("repro_router_forwards_total")
                        answers = total("repro_router_answers_total")
                        errors = total("repro_router_forward_errors_total")
                        retries = total("repro_router_retries_total")
                        queries = scrape.value("repro_router_queries_total")
                        unavailable = scrape.value(
                            "repro_router_unavailable_total"
                        )
                        assert forwards == answers + errors
                        assert retries == forwards - queries
                        assert queries == 16 and unavailable == 0
                        assert answers == 16
                    await router.stop()

        run(main())

    def test_total_outage_is_unavailable_not_a_hang(self):
        async def main():
            async with InProcessFleet(2) as fleet:
                router = ReplicaRouter(
                    fleet.endpoints,
                    num_shards=4,
                    health_interval_s=0,
                    retries=2,
                    retry_backoff_ms=1.0,
                )
                async with router:
                    async with HttpClientPool(*router.address) as pool:
                        await fleet.crash(0)
                        await fleet.crash(1)
                        status, payload = await pool.request_json(
                            "POST", "/query", {"seed": 1, "k": 5}
                        )
                        assert status == 503
                        assert payload["error"] == "unavailable"
                        assert router._unavailable == 1
                    await router.stop()

        run(main())

    def test_health_checks_mark_dead_and_resurrect(self):
        async def main():
            async with InProcessFleet(2) as fleet:
                router = ReplicaRouter(
                    fleet.endpoints,
                    num_shards=4,
                    health_interval_s=0,  # drive probes by hand
                    dead_after=2,
                )
                async with router:
                    states = await router.check_health()
                    assert set(states.values()) == {HEALTHY}
                    crashed = fleet.servers[1]
                    await fleet.crash(1)
                    await router.check_health()
                    assert router.replica_states()["replica-1"] == SUSPECT
                    await router.check_health()
                    assert router.replica_states()["replica-1"] == DEAD
                    # Replica comes back on the same port: next probe heals.
                    revived = HttpQueryServer(
                        crashed.batcher, *fleet.endpoints[1]
                    )
                    async with revived:
                        states = await router.check_health()
                        assert states["replica-1"] == HEALTHY
                    await router.stop()

        run(main())


class TestDrain:
    def test_rolling_drain_excludes_replica(self, reference_answers):
        async def main():
            async with InProcessFleet(3) as fleet:
                router = ReplicaRouter(
                    fleet.endpoints, num_shards=4, health_interval_s=0
                )
                async with router:
                    async with HttpClientPool(*router.address) as pool:
                        status, payload = await pool.request_json(
                            "POST", "/admin/drain?replica=1"
                        )
                        assert status == 202
                        assert payload["draining"] == "replica-1"
                        assert payload["forwarded"] is True
                        assert (
                            router.replica_states()["replica-1"] == DRAINING
                        )
                        # Every query still answers, none via replica-1.
                        for seed, expected in reference_answers.items():
                            status, payload = await pool.request_json(
                                "POST", "/query", {"seed": seed, "k": 50}
                            )
                            assert status == 200
                            assert payload["top"] == expected
                        assert router._answers["replica-1"] == 0
                        # A health probe must not resurrect it.
                        await router.check_health()
                        assert (
                            router.replica_states()["replica-1"] == DRAINING
                        )
                    await router.stop()

        run(main())

    def test_drain_unknown_replica_is_bad_request(self):
        async def main():
            async with InProcessFleet(1) as fleet:
                router = ReplicaRouter(
                    fleet.endpoints, num_shards=4, health_interval_s=0
                )
                async with router:
                    async with HttpClientPool(*router.address) as pool:
                        status, payload = await pool.request_json(
                            "POST", "/admin/drain?replica=7"
                        )
                        assert status == 400
                        assert "unknown replica" in payload["message"]
                    await router.stop()

        run(main())

    def test_drain_accepts_bare_index_and_full_name(self):
        async def main():
            async with InProcessFleet(2) as fleet:
                router = ReplicaRouter(
                    fleet.endpoints, num_shards=4, health_interval_s=0
                )
                async with router:
                    async with HttpClientPool(*router.address) as pool:
                        status, payload = await pool.request_json(
                            "POST", "/admin/drain?replica=replica-0"
                        )
                        assert status == 202
                        assert payload["draining"] == "replica-0"
                    await router.stop()

        run(main())


class TestAggregation:
    def test_stats_and_traces_cover_every_replica(self):
        async def main():
            async with InProcessFleet(2) as fleet:
                router = ReplicaRouter(
                    fleet.endpoints, num_shards=4, health_interval_s=0
                )
                async with router:
                    async with HttpClientPool(*router.address) as pool:
                        status, payload = await pool.request_json(
                            "GET", "/stats"
                        )
                        assert status == 200
                        assert set(payload["replicas"]) == {
                            "replica-0",
                            "replica-1",
                        }
                        assert all(
                            "admission" in stats
                            for stats in payload["replicas"].values()
                        )
                        assert payload["router"]["proto"] == 1
                        status, payload = await pool.request_json(
                            "GET", "/debug/traces"
                        )
                        assert status == 200 and payload["ok"]
                        # Tracing is off on these replicas: each reports
                        # its error rather than vanishing from the doc.
                        assert all(
                            "error" in entry
                            for entry in payload["replicas"].values()
                        )
                    await router.stop()

        run(main())

    def test_metrics_relabel_replica_families(self):
        async def main():
            async with InProcessFleet(2) as fleet:
                router = ReplicaRouter(
                    fleet.endpoints, num_shards=4, health_interval_s=0
                )
                async with router:
                    async with HttpClientPool(*router.address) as pool:
                        for seed in range(8):
                            await pool.request_json(
                                "POST", "/query", {"seed": seed, "k": 5}
                            )
                        _, _, body = await pool.request("GET", "/metrics")
                        scrape = parse_prometheus_text(body.decode())
                        # Per-replica re-export: completed queries across
                        # both replicas sum to what the router forwarded.
                        completed = {
                            dict(key[1])["replica"]: value
                            for key, value in scrape.samples.items()
                            if key[0] == "repro_queries_completed_total"
                        }
                        assert set(completed) == {"replica-0", "replica-1"}
                        assert sum(completed.values()) == 8
                        # The server info gauge carries the proto label.
                        infos = [
                            dict(key[1])
                            for key in scrape.samples
                            if key[0] == "repro_server_info"
                        ]
                        assert len(infos) == 2
                        assert all(info["proto"] == "1" for info in infos)
                    await router.stop()

        run(main())


class StubReplica:
    """A recording stub replica: keeps every request body it receives and
    answers each with the ``(status, body)`` the test scripted, under the
    ``X-Repro-Proto`` header value given (``None``: no such header)."""

    def __init__(self, proto="1") -> None:
        self.proto = proto
        self.answer = (200, b"{}")
        self.bodies = []

    async def __aenter__(self):
        self._server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        return self

    async def __aexit__(self, exc_type, exc, traceback):
        self._server.close()
        await self._server.wait_closed()

    @property
    def address(self):
        return self._server.sockets[0].getsockname()[:2]

    async def _handle(self, reader, writer):
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(head.lower().split(b"content-length:")[1].split()[0])
                self.bodies.append(await reader.readexactly(length))
                status, body = self.answer
                stamp = f"X-Repro-Proto: {self.proto}\r\n" if self.proto else ""
                writer.write(
                    f"HTTP/1.1 {status} Scripted\r\n{stamp}"
                    f"Content-Length: {len(body)}\r\n\r\n".encode() + body
                )
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        finally:
            writer.close()


def seed_owned_by(router, name):
    return next(seed for seed in range(1000) if router.owner_of(seed) == name)


class TestProtocolQuarantine:
    def test_future_version_replica_is_quarantined(self):
        async def main():
            # A fake replica whose /healthz body says proto 999.
            async with StubReplica() as fake:
                fake.answer = (
                    200, b'{"ok": true, "status": "serving", "proto": 999}'
                )
                router = ReplicaRouter(
                    [fake.address], num_shards=4, health_interval_s=0
                )
                async with router:
                    states = await router.check_health()
                    assert states["replica-0"] == INCOMPATIBLE
                    await router.stop()

        run(main())


class TestRelay:
    """The router parses the request for its seed and nothing else: the
    client's bytes reach the replica, the replica's bytes reach the client."""

    # Spaced as no encoder here would space them: a re-encode would show.
    ANSWERS = [
        (200, b'{"ok":true,  "seed":3,"top":[[3,0.5e0]],"proto":1}'),
        (400, b'{"ok":false,"error":"bad_request","message":"k  invalid"}'),
        (429, b'{"ok":false,"error":"shed",  "message":"full"}'),
        (504, b'{ "ok":false,"error":"deadline","message":"late" }'),
    ]

    def test_status_and_body_bytes_are_the_replicas(self):
        async def main():
            async with StubReplica() as stub:
                router = ReplicaRouter(
                    [stub.address], num_shards=4, health_interval_s=0
                )
                async with router:
                    async with HttpClientPool(*router.address) as pool:
                        request = b'{ "seed" : 3,"k":  -7 }'
                        for answer in self.ANSWERS:
                            stub.answer = answer
                            status, _, body = await pool.request(
                                "POST", "/query", request
                            )
                            assert (status, body) == answer
                        assert stub.bodies == [request] * len(self.ANSWERS)
                        # Refusals are answers: one forward each, no retry.
                        stats = router._router_stats()
                        assert stats["answers"]["replica-0"] == 4
                        assert sum(stats["retries"].values()) == 0
                    await router.stop()

        run(main())

    def test_real_replica_body_is_what_a_reencode_produced(self):
        async def main():
            async with InProcessFleet(1) as fleet:
                router = ReplicaRouter(
                    fleet.endpoints, num_shards=4, health_interval_s=0
                )
                async with router:
                    async with HttpClientPool(*router.address) as pool:
                        for request in ({"seed": 5, "k": 50}, {"seed": -1}):
                            _, _, body = await pool.request(
                                "POST", "/query", request
                            )
                            assert body == json.dumps(json.loads(body)).encode()
                    await router.stop()

        run(main())

    @pytest.mark.parametrize("proto", [None, "999"], ids=["absent", "future"])
    def test_query_proto_header_mismatch_quarantines_and_fails_over(
        self, proto
    ):
        async def main():
            async with StubReplica(proto) as skewed, StubReplica() as good:
                good.answer = self.ANSWERS[0]
                router = ReplicaRouter(
                    [skewed.address, good.address],
                    num_shards=4,
                    health_interval_s=0,
                    retry_backoff_ms=1.0,
                )
                async with router:
                    seed = seed_owned_by(router, "replica-0")
                    async with HttpClientPool(*router.address) as pool:
                        status, _, body = await pool.request(
                            "POST", "/query", {"seed": seed}
                        )
                    assert (status, body) == good.answer
                    assert len(skewed.bodies) == len(good.bodies) == 1
                    assert router.replica_states() == {
                        "replica-0": INCOMPATIBLE,
                        "replica-1": HEALTHY,
                    }
                    stats = router._router_stats()
                    assert stats["forward_errors"]["replica-0"] == 1
                    assert stats["failovers"]["replica-0"] == 1
                    assert stats["answers"]["replica-1"] == 1
                    await router.stop()

        run(main())

    def test_forced_trace_spans_the_relay(self):
        trace_id = "ab" * 16
        tracer = Tracer(sample_rate=0.0)

        async def main():
            async with InProcessFleet(1, CONFIG.replace(trace_sample=1.0)) as fleet:
                router = ReplicaRouter(
                    fleet.endpoints,
                    num_shards=4,
                    health_interval_s=0,
                    tracer=tracer,
                )
                async with router:
                    async with HttpClientPool(*router.address) as pool:
                        forced = {"traceparent": f"00-{trace_id}-{'cd' * 8}-01"}
                        answered = await pool.request_json(
                            "POST", "/query", {"seed": 5, "k": 5}, forced
                        )
                        refused = await pool.request_json(
                            "POST", "/query", {"seed": -1}, forced
                        )
                    await router.stop()
                return answered, refused

        (status, body), (refused_status, _) = asyncio.run(main())
        # The replica continued the router's trace and said so in its body.
        assert status == 200 and body["trace_id"] == trace_id
        assert refused_status == 400
        answered, refused = tracer.traces()
        assert answered["trace_id"] == refused["trace_id"] == trace_id
        assert (answered["status"], refused["status"]) == ("ok", "bad_request")
        for trace in (answered, refused):
            (forward,) = [
                span for span in trace["spans"] if span["name"] == "router.forward"
            ]
            assert forward["attributes"]["outcome"] == "answered"
            assert forward["attributes"]["replica"] == "replica-0"


# ----------------------------------------------------------------------
# The acceptance test: SIGKILL a real replica under load.
# ----------------------------------------------------------------------


class TestCrashFailoverAcceptance:
    def test_sigkill_under_load_zero_wrong_answers(self, reference_answers):
        """Three subprocess replicas; one is SIGKILLed mid-stream.  Every
        in-flight and subsequent query must answer, bit-identical to the
        serial solver, and the router's counters must account for every
        retry (forwards == answers + transport failures)."""

        with ReplicaSet(CONFIG, 3, startup_timeout=120.0) as fleet:

            async def main():
                router = ReplicaRouter.for_replica_set(
                    fleet,
                    health_interval_s=0.2,
                    retries=6,
                    retry_backoff_ms=20.0,
                )
                async with router:
                    async with HttpClientPool(
                        *router.address, size=8
                    ) as pool:
                        seeds = list(reference_answers) * 4
                        victim = router.owner_of(seeds[0])
                        victim_index = int(victim.split("-")[1])
                        killed = asyncio.Event()

                        async def one(seed):
                            status, payload = await pool.request_json(
                                "POST", "/query", {"seed": seed, "k": 50}
                            )
                            return seed, status, payload

                        async def kill_mid_load():
                            await asyncio.sleep(0.05)
                            fleet.terminate(
                                victim_index, sig=signal.SIGKILL
                            )
                            killed.set()

                        results, _ = await asyncio.gather(
                            asyncio.gather(*(one(s) for s in seeds)),
                            kill_mid_load(),
                        )
                        assert killed.is_set()
                        for seed, status, payload in results:
                            assert status == 200 and payload["ok"], (
                                seed,
                                payload,
                            )
                            assert (
                                payload["top"] == reference_answers[seed]
                            ), f"wrong answer for seed {seed}"
                        # Counter accounting: every forward is either an
                        # answer or an attributed transport failure, and
                        # every retry is visible.
                        stats = router._router_stats()
                        forwards = sum(stats["forwards"].values())
                        answers = sum(stats["answers"].values())
                        errors = sum(stats["forward_errors"].values())
                        retries = sum(stats["retries"].values())
                        assert forwards == answers + errors
                        assert retries == forwards - len(seeds)
                        assert answers == len(seeds)
                        assert stats["unavailable"] == 0
                    await router.stop()

            asyncio.run(main())
