"""Tests for the HTTP/JSON front door, its /metrics endpoint and live ops.

Everything runs against a real socket on an ephemeral localhost port: the
differential round-trip (HTTP answers identical to the in-process engine),
status-code mapping for shed/deadline/bad-request, the Prometheus
exposition (scraped and parsed in-test), graceful drain with zero in-flight
drops, and hot config reload under traffic.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.diffusion.sparse_vector import SparseScoreVector
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery, PPRResult, PPRSolver
from repro.serving import QueryEngine, SubgraphCache
from repro.serving.frontend import (
    AdmissionController,
    AsyncQueryServer,
    BatchPolicy,
    HttpClient,
    HttpClientPool,
    HttpQueryServer,
    MicroBatcher,
    parse_prometheus_text,
)
from repro.serving.result_cache import ScoreTableCache
from oracle import serial_answers, wire_top


@pytest.fixture()
def config():
    return MeLoPPRConfig(stage_lengths=(3, 3), track_memory=False)


class SleepySolver(PPRSolver):
    """Stub solver with a fixed service time (forces queueing)."""

    name = "sleepy"

    def __init__(self, graph, delay_seconds: float) -> None:
        super().__init__(graph)
        self.delay_seconds = delay_seconds

    def solve(self, query: PPRQuery) -> PPRResult:
        time.sleep(self.delay_seconds)
        return PPRResult(query=query, scores=SparseScoreVector([query.seed], [1.0]))


def serve_http(engine, policy=None, admission=None, **server_kwargs):
    """Async context manager: batcher + HTTP server + connected client."""

    class _Stack:
        async def __aenter__(self):
            self.batcher = MicroBatcher(engine, policy, admission)
            await self.batcher.start()
            self.server = HttpQueryServer(self.batcher, **server_kwargs)
            host, port = await self.server.start()
            self.client = await HttpClient(host, port).connect()
            return self.client, self.server

        async def __aexit__(self, exc_type, exc, traceback):
            await self.client.close()
            await self.server.stop()
            await self.batcher.stop()

    return _Stack()


class TestHttpRoundTrip:
    def test_http_answers_match_engine(self, small_ba_graph, config):
        queries = [PPRQuery(seed=s, k=30) for s in (3, 11, 27, 3, 11)]
        expected = [wire_top(result) for result in serial_answers(small_ba_graph, config, queries)]

        engine = QueryEngine(
            MeLoPPRSolver(small_ba_graph, config), cache=SubgraphCache()
        )

        async def run():
            async with serve_http(engine) as (_, server):
                host, port = server.address
                async with HttpClientPool(host, port, size=4) as pool:
                    return await asyncio.gather(
                        *(
                            pool.query({"seed": q.seed, "k": q.k})
                            for q in queries
                        )
                    )

        with engine:
            responses = asyncio.run(run())
        assert [status for status, _ in responses] == [200] * len(queries)
        assert [body["top"] for _, body in responses] == expected

    def test_query_response_shape(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve_http(engine) as (client, _):
                return await client.query({"id": "q1", "seed": 3, "k": 10})

        with engine:
            status, body = asyncio.run(run())
        assert status == 200
        assert body["ok"] is True
        assert body["id"] == "q1"
        assert body["seed"] == 3
        assert body["k"] == 10
        assert body["latency_ms"] >= 0
        assert len(body["top"]) <= 10
        assert all(len(pair) == 2 for pair in body["top"])

    def test_healthz_and_stats(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve_http(engine) as (client, _):
                health = await client.request_json("GET", "/healthz")
                await client.query({"seed": 3, "k": 10})
                stats = await client.request_json("GET", "/stats")
                return health, stats

        with engine:
            (health_status, health), (stats_status, stats) = asyncio.run(run())
        assert health_status == 200 and health["status"] == "serving"
        assert stats_status == 200
        assert stats["admission"]["completed"] == 1
        assert stats["engine"]["queries_served"] == 1

    def test_keep_alive_serves_sequential_requests(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve_http(engine) as (client, _):
                first = await client.query({"seed": 1, "k": 5})
                second = await client.query({"seed": 2, "k": 5})
                return first, second

        with engine:
            (s1, b1), (s2, b2) = asyncio.run(run())
        assert s1 == s2 == 200
        assert b1["seed"] == 1 and b2["seed"] == 2

    def test_connection_close_is_honoured(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve_http(engine) as (client, _):
                status, headers, _ = await client.request(
                    "GET", "/healthz", headers={"Connection": "close"}
                )
                assert headers["connection"] == "close"
                # The client auto-closed; the next request reconnects.
                status2, _ = await client.request_json("GET", "/healthz")
                return status, status2

        with engine:
            status, status2 = asyncio.run(run())
        assert status == 200 and status2 == 200


class TestHttpStatusMapping:
    def test_shed_is_429(self, small_ba_graph):
        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.05))
        admission = AdmissionController(max_pending=2)
        policy = BatchPolicy(max_batch_size=1)

        async def run():
            async with serve_http(engine, policy, admission) as (_, server):
                host, port = server.address
                async with HttpClientPool(host, port, size=12) as pool:
                    return await asyncio.gather(
                        *(pool.query({"seed": s % 5, "k": 10}) for s in range(12))
                    )

        with engine:
            responses = asyncio.run(run())
        statuses = [status for status, _ in responses]
        assert statuses.count(200) + statuses.count(429) == 12
        assert 429 in statuses, "overload must produce explicit 429s"
        assert 200 in statuses, "admitted queries must still be answered"
        shed_bodies = [body for status, body in responses if status == 429]
        assert all(body["error"] == "shed" for body in shed_bodies)

    def test_deadline_is_504(self, small_ba_graph):
        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.1))
        policy = BatchPolicy(max_batch_size=1)

        async def run():
            async with serve_http(engine, policy) as (_, server):
                host, port = server.address
                async with HttpClientPool(host, port, size=2) as pool:
                    blocker = asyncio.ensure_future(
                        pool.query({"seed": 1, "k": 10})
                    )
                    await asyncio.sleep(0.02)
                    doomed = await pool.query(
                        {"seed": 2, "k": 10, "timeout_ms": 5.0}
                    )
                    await blocker
                    return doomed

        with engine:
            status, body = asyncio.run(run())
        assert status == 504
        assert body["error"] == "deadline"

    def test_bad_request_is_400(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve_http(engine) as (client, _):
                return await client.query({"seed": 10_000, "k": 10})

        with engine:
            status, body = asyncio.run(run())
        assert status == 400
        assert body["error"] == "bad_request"


class TestMetricsEndpoint:
    def test_metrics_is_valid_prometheus_and_counts_match(
        self, small_ba_graph, config
    ):
        engine = QueryEngine(
            MeLoPPRSolver(small_ba_graph, config),
            cache=SubgraphCache(),
            result_cache=ScoreTableCache(),
        )

        async def run():
            async with serve_http(engine) as (client, _):
                for seed in (3, 3, 7, 3):
                    status, _ = await client.query({"seed": seed, "k": 10})
                    assert status == 200
                status, headers, raw = await client.request("GET", "/metrics")
                return status, headers, raw

        with engine:
            status, headers, raw = asyncio.run(run())
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        scrape = parse_prometheus_text(raw.decode("utf-8"))

        # Outcome ledger.
        assert scrape.value("repro_queries_offered_total") == 4
        assert scrape.value("repro_queries_completed_total") == 4
        assert scrape.value("repro_queries_shed_total") == 0
        assert scrape.value("repro_queries_deadline_expired_total") == 0
        assert scrape.value("repro_server_draining") == 0

        # Latency summary: quantiles present and ordered, sum/count coherent.
        p50 = scrape.value("repro_request_latency_seconds", quantile="0.5")
        p95 = scrape.value("repro_request_latency_seconds", quantile="0.95")
        p99 = scrape.value("repro_request_latency_seconds", quantile="0.99")
        assert 0 < p50 <= p95 <= p99
        assert scrape.value("repro_request_latency_seconds_count") == 4
        assert scrape.value("repro_request_latency_seconds_sum") > 0

        # Cache tiers: combined = subgraph + result, counter-wise, and the
        # hot seed (3 queried three times) produced result-cache hits.
        for family in ("repro_cache_hits_total", "repro_cache_misses_total"):
            combined = scrape.value(family, cache="combined")
            subgraph = scrape.value(family, cache="subgraph")
            result = scrape.value(family, cache="result")
            assert combined == subgraph + result
        assert scrape.value("repro_cache_hits_total", cache="result") >= 2
        for tier in ("combined", "subgraph", "result"):
            ratio = scrape.value("repro_cache_hit_ratio", cache=tier)
            assert 0.0 <= ratio <= 1.0

        # Engine families.
        assert scrape.value("repro_engine_queries_served_total") == 4
        assert scrape.types["repro_queries_completed_total"] == "counter"
        assert scrape.types["repro_request_latency_seconds"] == "summary"

    def test_metrics_reflects_shed_and_draining(self, small_ba_graph):
        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.05))
        admission = AdmissionController(max_pending=1)
        policy = BatchPolicy(max_batch_size=1)

        async def run():
            async with serve_http(engine, policy, admission) as (_, server):
                host, port = server.address
                async with HttpClientPool(host, port, size=6) as pool:
                    responses = await asyncio.gather(
                        *(pool.query({"seed": s, "k": 5}) for s in range(6))
                    )
                    shed = sum(1 for status, _ in responses if status == 429)
                    status, _, raw = await pool._clients[0].request(
                        "GET", "/metrics"
                    )
                    return shed, raw.decode("utf-8")

        with engine:
            shed, exposition = asyncio.run(run())
        assert shed > 0
        scrape = parse_prometheus_text(exposition)
        assert scrape.value("repro_queries_shed_total") == shed


class TestGracefulDrain:
    def test_drain_completes_every_inflight_query(self, small_ba_graph):
        """The drain contract: zero admitted queries dropped."""
        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.1))
        policy = BatchPolicy(max_batch_size=1)

        async def run():
            batcher = MicroBatcher(engine, policy)
            await batcher.start()
            server = HttpQueryServer(batcher)
            host, port = await server.start()
            slow_client = await HttpClient(host, port).connect()
            admin_client = await HttpClient(host, port).connect()
            try:
                # A slow query is in flight when the drain begins.
                inflight = asyncio.ensure_future(
                    slow_client.query({"seed": 1, "k": 5})
                )
                await asyncio.sleep(0.02)
                status, body = await admin_client.request_json(
                    "POST", "/admin/drain"
                )
                assert status == 202 and body["draining"] is True
                # The in-flight query still completes with its answer.
                answer_status, answer = await inflight
                assert answer_status == 200
                assert answer["ok"] is True and answer["seed"] == 1
                await server.drain()  # wait for full completion
                assert server.draining
                # New connections are refused: the listener is closed.
                with pytest.raises(OSError):
                    await HttpClient(host, port).connect()
            finally:
                await slow_client.close()
                await admin_client.close()
                await server.drain()
                await batcher.stop()

        with engine:
            asyncio.run(run())

    def test_healthz_reports_draining(self, small_ba_graph, config):
        """Once the drain begins, the health check flips to 503/draining.

        Checked at the routing layer: over the wire an *idle* keep-alive
        connection is closed the moment the drain starts (by design), so a
        request only observes the 503 in the race window where its bytes
        were already received — not something a test can time reliably.
        """
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with MicroBatcher(engine) as batcher:
                server = HttpQueryServer(batcher)
                await server.start()
                status, body, _ = await server._route("GET", "/healthz", b"", 0.0)
                assert status == 200 and body["status"] == "serving"
                await server.drain()
                status, body, _ = await server._route("GET", "/healthz", b"", 0.0)
                assert status == 503
                assert body["status"] == "draining"

        with engine:
            asyncio.run(run())

    def test_drain_closes_idle_keepalive_connections(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with MicroBatcher(engine) as batcher:
                server = HttpQueryServer(batcher)
                host, port = await server.start()
                idle = await HttpClient(host, port).connect()
                try:
                    status, _ = await idle.request_json("GET", "/healthz")
                    assert status == 200
                    await server.drain()
                    # The idle connection was closed by the server; the next
                    # request on it fails rather than hanging forever.
                    with pytest.raises((ConnectionError, OSError)):
                        await asyncio.wait_for(
                            idle.request_json("GET", "/healthz"), timeout=5
                        )
                finally:
                    await idle.close()

        with engine:
            asyncio.run(run())

    def test_drain_returns_with_idle_connections_already_closed(
        self, small_ba_graph, config
    ):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with MicroBatcher(engine) as batcher:
                server = HttpQueryServer(batcher)
                host, port = await server.start()
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
                    response = await reader.readuntil(b'"proto": 1}')
                    assert response.startswith(b"HTTP/1.1 200 ")
                    await server.drain()
                    # Nothing left to wait for: the handler has finished and
                    # the idle socket already reads EOF.
                    assert not server._conn_tasks
                    assert await asyncio.wait_for(reader.read(), timeout=5) == b""
                finally:
                    writer.close()

        with engine:
            asyncio.run(run())

    def test_drain_answers_requests_already_received(self, small_ba_graph):
        """Two requests arrive in one segment; the drain begins while the
        first is being answered.  The second was received before the drain,
        so it is answered too — then the connection closes."""
        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.05))
        request = (
            b"POST /query HTTP/1.1\r\nContent-Length: 20\r\n\r\n"
            b'{"seed": %d, "k": 5} '
        )

        async def run():
            async with MicroBatcher(engine) as batcher:
                server = HttpQueryServer(batcher)
                host, port = await server.start()
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    writer.write(request % 1 + request % 2)
                    await writer.drain()
                    await asyncio.sleep(0.02)  # the first query is in flight
                    await server.drain()
                    raw = await asyncio.wait_for(reader.read(), timeout=5)
                finally:
                    writer.close()
                return raw

        with engine:
            raw = asyncio.run(run())
        assert raw.count(b"HTTP/1.1 200 OK") == 2
        assert raw.index(b'"seed": 1') < raw.index(b'"seed": 2')

    def test_serving_a_request_creates_no_task(self, small_ba_graph, config):
        """The connection loop awaits its reads itself: however many requests
        one connection carries, the loop's task count stays where it was."""
        engine = QueryEngine(
            MeLoPPRSolver(small_ba_graph, config),
            cache=SubgraphCache(),
            result_cache=ScoreTableCache(),
        )

        async def run():
            async with serve_http(engine) as (client, _):
                await client.query({"seed": 3, "k": 10})  # connected and warm
                loop = asyncio.get_running_loop()
                created = []

                def counting_factory(loop, coro, **kwargs):
                    task = asyncio.Task(coro, loop=loop, **kwargs)
                    created.append(task)
                    return task

                before = len(asyncio.all_tasks())
                loop.set_task_factory(counting_factory)
                try:
                    for _ in range(25):
                        status, _ = await client.request_json("GET", "/healthz")
                        assert status == 200
                        status, _ = await client.query({"seed": 3, "k": 10})
                        assert status == 200
                finally:
                    loop.set_task_factory(None)
                return created, len(asyncio.all_tasks()) - before

        with engine:
            created, growth = asyncio.run(run())
        assert created == [] and growth == 0

    def test_drain_is_idempotent_and_safe_unstarted(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            batcher = MicroBatcher(engine)
            await batcher.start()
            # Unstarted server: drain is a no-op, not a crash.
            unstarted = HttpQueryServer(batcher)
            await unstarted.drain()
            server = HttpQueryServer(batcher)
            await server.start()
            await server.drain()
            await server.drain()  # idempotent
            await batcher.stop()

        with engine:
            asyncio.run(run())


class ScriptedServer:
    """A stub HTTP server: reads each request properly, then answers the
    ``n``-th one (over all connections) with ``script(n)`` — byte pieces
    written one segment at a time; a trailing ``None`` closes the connection."""

    def __init__(self, script) -> None:
        self.script = script
        self.requests = 0
        self.connections = 0

    async def __aenter__(self):
        self._server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        return self._server.sockets[0].getsockname()[:2]

    async def __aexit__(self, exc_type, exc, traceback):
        self._server.close()
        await self._server.wait_closed()

    async def _handle(self, reader, writer):
        self.connections += 1
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(head.lower().split(b"content-length:")[1].split()[0])
                await reader.readexactly(length)
                self.requests += 1
                for piece in self.script(self.requests - 1):
                    if piece is None:
                        return
                    writer.write(piece)
                    await writer.drain()
                    await asyncio.sleep(0)
                    await asyncio.sleep(0)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        finally:
            writer.close()


class TestHttpClientFraming:
    """The client half of the shared head parser."""

    BODY = b'{"ok": true, "top": [[1, 0.5]], "proto": 1}'
    RESPONSE = (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\nX-Repro-Proto: 1\r\n\r\n" % len(BODY)
    ) + BODY

    def test_response_split_at_every_offset(self):
        response = self.RESPONSE

        def script(n):
            if n == len(response):  # one byte at a time
                return [response[i : i + 1] for i in range(len(response))]
            return [response[:n], response[n:]] if n else [response]

        async def run():
            async with ScriptedServer(script) as (host, port):
                async with HttpClient(host, port) as client:
                    return [
                        await client.request("POST", "/query", {"seed": 1})
                        for _ in range(len(response) + 1)
                    ]

        answers = asyncio.run(run())
        assert answers[0][0] == 200 and answers[0][2] == self.BODY
        assert answers[0][1]["x-repro-proto"] == "1"
        assert all(answer == answers[0] for answer in answers)

    @pytest.mark.parametrize(
        "sent, error",
        [
            (0, ConnectionError),
            (30, ConnectionError),
            (len(RESPONSE) - 5, asyncio.IncompleteReadError),
        ],
        ids=["before-status-line", "mid-head", "mid-body"],
    )
    def test_torn_response_is_a_connection_failure(self, sent, error):
        async def run():
            script = lambda n: [self.RESPONSE[:sent], None]  # noqa: E731
            async with ScriptedServer(script) as (host, port):
                async with HttpClient(host, port) as client:
                    with pytest.raises(error):
                        await client.request("GET", "/healthz")

        asyncio.run(run())

    @pytest.mark.parametrize(
        "garbage",
        [
            b"NOT HTTP AT ALL\r\n\r\nleftover",
            b"HTTP/1.1 200 OK\r\nContent-Length: banana\r\n\r\nleftover",
        ],
        ids=["status-line", "content-length"],
    )
    def test_malformed_head_does_not_go_back_into_the_pool(self, garbage):
        """An unparseable head leaves unframed bytes on the connection: the
        client closes it and fails like a torn response, so the pool
        replaces it instead of handing the leftovers to the next caller."""
        stub = ScriptedServer(lambda n: [self.RESPONSE if n else garbage])

        async def run():
            async with stub as (host, port):
                async with HttpClient(host, port) as client:
                    with pytest.raises(ConnectionError, match="malformed"):
                        await client.request("GET", "/healthz")
                    assert client._writer is None  # closed, not reusable
                stub.requests = 0
                async with HttpClientPool(host, port, size=1) as pool:
                    first = await pool.request("GET", "/healthz")
                    second = await pool.request("GET", "/healthz")
                return first, second

        first, second = asyncio.run(run())
        assert first == second and first[0] == 200 and first[2] == self.BODY
        # garbage, its retry on a fresh connection, the second request
        assert stub.requests == 3


class TestHotReload:
    def test_reload_applies_without_dropping_queries(self, small_ba_graph):
        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.05))
        policy = BatchPolicy(max_batch_size=1)

        async def run():
            async with serve_http(engine, policy) as (client, server):
                host, port = server.address
                slow_client = await HttpClient(host, port).connect()
                try:
                    inflight = asyncio.ensure_future(
                        slow_client.query({"seed": 1, "k": 5})
                    )
                    await asyncio.sleep(0.01)
                    status, body = await client.request_json(
                        "POST",
                        "/admin/reload",
                        {"max_pending": 99, "max_batch_size": 16,
                         "dedup": False},
                    )
                    inflight_status, inflight_body = await inflight
                    return status, body, inflight_status, inflight_body, server
                finally:
                    await slow_client.close()

        with engine:
            status, body, inflight_status, inflight_body, server = asyncio.run(run())
        assert status == 200 and body["ok"] is True
        assert sorted(body["applied"]) == [
            "dedup", "max_batch_size", "max_pending",
        ]
        assert body["config"]["max_pending"] == 99
        assert body["config"]["max_batch_size"] == 16
        assert body["config"]["dedup"] is False
        # The query in flight across the reload was not dropped.
        assert inflight_status == 200 and inflight_body["ok"] is True
        # And the live objects reflect the new configuration.
        assert server.batcher.policy.max_batch_size == 16
        assert server.batcher.admission.max_pending == 99

    def test_reload_resizes_caches_and_reports_evictions(
        self, small_ba_graph, config
    ):
        engine = QueryEngine(
            MeLoPPRSolver(small_ba_graph, config),
            cache=SubgraphCache(),
            result_cache=ScoreTableCache(),
        )

        async def run():
            async with serve_http(engine) as (client, _):
                for seed in (3, 7, 11, 19):
                    status, _ = await client.query({"seed": seed, "k": 10})
                    assert status == 200
                return await client.request_json(
                    "POST",
                    "/admin/reload",
                    {"cache_bytes": 1024, "result_cache_bytes": 1024},
                )

        with engine:
            status, body = asyncio.run(run())
        assert status == 200
        assert body["evicted"]["cache"] >= 1
        assert body["evicted"]["result_cache"] >= 1
        assert engine.cache.max_bytes == 1024
        assert engine.result_cache.max_bytes == 1024
        assert engine.cache.stats.current_bytes <= 1024

    def test_bad_reload_is_rejected_wholesale(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve_http(engine) as (client, server):
                before = server.batcher.admission.max_pending
                # One bad field: nothing applies (all-or-nothing).
                status, body = await client.request_json(
                    "POST",
                    "/admin/reload",
                    {"max_pending": 77, "max_batch_size": -1},
                )
                after = server.batcher.admission.max_pending
                return status, body, before, after

        with engine:
            status, body, before, after = asyncio.run(run())
        assert status == 400
        assert body["error"] == "bad_request"
        assert "max_batch_size" in body["message"]
        assert after == before


class TestServerValidation:
    def test_rejects_nonpositive_max_body_bytes(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        with pytest.raises(ValueError, match="max_body_bytes"):
            HttpQueryServer(MicroBatcher(engine), max_body_bytes=0)
        engine.close()

    def test_address_before_start_raises(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        server = HttpQueryServer(MicroBatcher(engine))
        with pytest.raises(RuntimeError, match="not started"):
            server.address
        engine.close()

    def test_double_start_raises_and_stop_is_idempotent(
        self, small_ba_graph, config
    ):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            batcher = MicroBatcher(engine)
            await batcher.start()
            server = HttpQueryServer(batcher)
            await server.start()
            with pytest.raises(RuntimeError, match="already started"):
                await server.start()
            await server.stop()
            await server.stop()  # idempotent
            await batcher.stop()

        with engine:
            asyncio.run(run())


class TestSharedBatcherAcrossTransports:
    def test_tcp_and_http_serve_one_batcher(self, small_ba_graph, config):
        """Both front doors share admission, batching and caches."""
        engine = QueryEngine(
            MeLoPPRSolver(small_ba_graph, config), cache=SubgraphCache()
        )

        async def run():
            from repro.serving.frontend import TcpQueryClient

            async with MicroBatcher(engine) as batcher:
                tcp_server = AsyncQueryServer(batcher)
                http_server = HttpQueryServer(batcher)
                tcp_host, tcp_port = await tcp_server.start()
                http_host, http_port = await http_server.start()
                try:
                    tcp_client = await TcpQueryClient.connect(tcp_host, tcp_port)
                    async with HttpClient(http_host, http_port) as http_client:
                        tcp_answer = await tcp_client.solve(seed=3, k=10)
                        status, http_answer = await http_client.query(
                            {"seed": 3, "k": 10}
                        )
                    await tcp_client.close()
                    stats = batcher.stats()
                    return tcp_answer, status, http_answer, stats
                finally:
                    await tcp_server.stop()
                    await http_server.stop()

        with engine:
            tcp_answer, status, http_answer, stats = asyncio.run(run())
        assert status == 200
        assert [[n, s] for n, s in tcp_answer] == http_answer["top"]
        # One admission ledger across both transports.
        assert stats.admission.completed == 2
        # The second query hit the sub-graph cache warmed by the first.
        assert stats.engine.cache.hits > 0


class TestAdminUpdate:
    def test_update_applies_and_serves_new_topology(self, small_ba_graph, config):
        from repro.graph.csr import CSRGraph

        u, v = 0, int(small_ba_graph.neighbors(0)[0])
        canonical = (min(u, v), max(u, v))
        remaining = [
            edge for edge in small_ba_graph.iter_edges() if edge != canonical
        ]
        rebuilt = CSRGraph.from_edges(small_ba_graph.num_nodes, remaining)
        expected = [
            [int(n), float(s)]
            for n, s in MeLoPPRSolver(rebuilt, config)
            .solve(PPRQuery(seed=3, k=20))
            .top_k()
        ]
        engine = QueryEngine(
            MeLoPPRSolver(small_ba_graph, config), cache=SubgraphCache()
        )

        async def run():
            async with serve_http(engine) as (client, _):
                await client.query({"seed": 3, "k": 20})  # warm the old graph
                status, body = await client.request_json(
                    "POST",
                    "/admin/update",
                    {"ops": [{"op": "delete", "u": u, "v": v}]},
                )
                answer_status, answer = await client.query({"seed": 3, "k": 20})
                return status, body, answer_status, answer

        with engine:
            status, body, answer_status, answer = asyncio.run(run())
        assert status == 200 and body["ok"] is True
        assert body["ops"] == 1
        assert body["new_fingerprint"] == rebuilt.fingerprint()
        assert body["invalidated"]["subgraph_entries_dropped"] >= 0
        # No result cache here: nothing to keep or strip, but the report says so.
        assert body["invalidated"]["result_answers_kept"] == 0
        assert body["invalidated"]["result_answers_stripped"] == 0
        # Post-update answers come from the new topology.
        assert answer_status == 200
        assert answer["top"] == expected

    def test_bad_update_is_400_and_changes_nothing(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        fingerprint = small_ba_graph.fingerprint()

        async def run():
            async with serve_http(engine) as (client, _):
                non_array = await client.request_json(
                    "POST", "/admin/update", {"ops": {"op": "insert"}}
                )
                out_of_range = await client.request_json(
                    "POST",
                    "/admin/update",
                    {"ops": [["insert", 0, 10**9]]},
                )
                empty = await client.request_json("POST", "/admin/update", {})
                return non_array, out_of_range, empty

        with engine:
            non_array, out_of_range, empty = asyncio.run(run())
        for status, body in (non_array, out_of_range, empty):
            assert status == 400
            assert body["ok"] is False and body["error"] == "bad_request"
        assert "JSON array" in non_array[1]["message"]
        assert engine.solver.graph.fingerprint() == fingerprint

    def test_update_requires_post(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve_http(engine) as (client, _):
                return await client.request_json("GET", "/admin/update", None)

        with engine:
            status, body = asyncio.run(run())
        assert status == 405
