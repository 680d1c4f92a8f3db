"""The two clients, ``TcpQueryClient`` and ``HttpClientPool``: one matrix.

Both run the failure shapes they share: connection refusal, a crash
mid-session and a torn response all surface as ``ClientConnectionError``; a
peer advertising a different protocol version raises
``ProtocolMismatchError`` while a missing ``proto`` is tolerated; a shed is an
answer, not an error.  After every abuse, a differential query proves a real
server still answers exactly what the serial engine computes.  Neither client
retries — the replica router owns retries and failover
(``test_replica_router.py``).
"""

from __future__ import annotations

import asyncio
import itertools
import json

import pytest

from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.serving import QueryEngine
from repro.serving.frontend import (
    AsyncQueryServer,
    BatchPolicy,
    ClientConnectionError,
    HttpClient,
    HttpClientPool,
    HttpQueryServer,
    MalformedResponseError,
    MicroBatcher,
    ProtocolMismatchError,
    QueryShedError,
    ServerError,
    TcpQueryClient,
    raise_for_response,
)

TRANSPORTS = ["tcp", "http"]


class PoolClient:
    """A one-connection ``HttpClientPool`` behind the ``TcpQueryClient``
    calls this file makes."""

    def __init__(self, pool: HttpClientPool) -> None:
        self.pool = pool

    @classmethod
    async def connect(cls, host, port):
        return cls(await HttpClientPool(host, port, size=1).connect())

    async def query(self, seed, k):
        return (await self.pool.query({"seed": seed, "k": k}))[1]

    async def ping(self):
        return (await self.pool.request_json("GET", "/healthz"))[0] == 200

    async def stats(self):
        return (await self.pool.request_json("GET", "/stats"))[1]

    async def drain(self):
        _, payload = await self.pool.request_json("POST", "/admin/drain")
        return raise_for_response(payload)

    async def traces(self):
        _, payload = await self.pool.request_json("GET", "/debug/traces")
        return raise_for_response(payload)

    async def close(self):
        await self.pool.close()

    async def __aenter__(self):
        return self

    async def __aexit__(self, exc_type, exc, traceback):
        await self.close()


def connect(transport, host, port):
    client_cls = TcpQueryClient if transport == "tcp" else PoolClient
    return client_cls.connect(host, port)


def top_of(response):
    return [(int(n), float(s)) for n, s in raise_for_response(response)["top"]]


@pytest.fixture()
def config():
    return MeLoPPRConfig(stage_lengths=(3, 3), track_memory=False)


@pytest.fixture()
def engine(small_ba_graph, config):
    engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
    yield engine
    engine.close()


@pytest.fixture()
def expected_top(engine):
    result = engine.solve_batch([PPRQuery(seed=3, k=10)])[0]
    return [(int(n), float(s)) for n, s in result.top_k()]


def serve(engine, transport):
    """Async context: one batcher behind the requested transport."""

    class _Stack:
        async def __aenter__(self):
            self.batcher = MicroBatcher(engine, BatchPolicy())
            await self.batcher.start()
            server_cls = (
                AsyncQueryServer if transport == "tcp" else HttpQueryServer
            )
            self.server = server_cls(self.batcher)
            return await self.server.start()

        async def __aexit__(self, exc_type, exc, traceback):
            await self.server.stop()
            await self.batcher.stop()

    return _Stack()


def abuse_then_differential(engine, transport, expected_top, abuse):
    """Run ``await abuse()`` while a real server is up, then the
    differential check: that server still answers what the engine does."""

    async def run():
        async with serve(engine, transport) as (host, port):
            await abuse()
            async with await connect(transport, host, port) as client:
                assert top_of(await client.query(seed=3, k=10)) == expected_top

    asyncio.run(run())


# ----------------------------------------------------------------------
# Scripted fake servers
# ----------------------------------------------------------------------


class _FakeServer:
    """Shared listener scaffolding: scripted answers, torn responses and a
    crash.  ``proto=None`` leaves the version out; ``answer`` replaces the
    ok answer (an ``ok: false`` one goes out as HTTP 429)."""

    def __init__(self, fail_first: int = 0, proto=1, answer=None) -> None:
        self.fail_first = fail_first
        self.proto = proto
        self.answer = answer
        self.requests_seen = 0
        self._server = None
        self._writers = set()

    async def __aenter__(self):
        self._server = await asyncio.start_server(
            self._tracked_handle, "127.0.0.1", 0
        )
        return self._server.sockets[0].getsockname()[:2]

    async def __aexit__(self, exc_type, exc, traceback):
        await self.crash()

    async def crash(self):
        """Simulate SIGKILL: abort every connection and stop listening."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers):
            writer.transport.abort()
        self._writers.clear()

    def response(self, request: dict) -> dict:
        """The scripted answer to one request, or ``None`` to tear it."""
        self.requests_seen += 1
        if self.requests_seen <= self.fail_first:
            return None
        response = dict(
            self.answer
            or {
                "ok": True,
                "seed": request.get("seed"),
                "top": [[request.get("seed"), 1.0]],
            }
        )
        if self.proto is not None:
            response["proto"] = self.proto
        return response

    async def _tracked_handle(self, reader, writer):
        self._writers.add(writer)
        try:
            await self._handle(reader, writer)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            self._writers.discard(writer)


class FakeTcpServer(_FakeServer):
    async def _handle(self, reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            request = json.loads(line)
            response = self.response(request)
            if response is None:
                writer.write(b'{"id": ')  # torn mid-response
                await writer.drain()
                writer.close()
                return
            response["id"] = request.get("id")
            writer.write(json.dumps(response).encode() + b"\n")
            await writer.drain()


class FakeHttpServer(_FakeServer):
    """Stamps ``X-Repro-Proto`` when ``proto`` is set, as a server does."""

    async def _handle(self, reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            length = 0
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _, value = header.decode().partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            body = await reader.readexactly(length) if length else b""
            response = self.response(json.loads(body) if body else {})
            if response is None:
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Le")  # torn
                await writer.drain()
                writer.close()
                return
            payload = json.dumps(response).encode()
            status = "200 OK" if response["ok"] else "429 Too Many Requests"
            stamp = (
                f"X-Repro-Proto: {self.proto}\r\n" if self.proto is not None else ""
            )
            writer.write(
                f"HTTP/1.1 {status}\r\n{stamp}"
                f"Content-Length: {len(payload)}\r\n\r\n".encode()
                + payload
            )
            await writer.drain()


def fake_for(transport, **kwargs):
    return (FakeTcpServer if transport == "tcp" else FakeHttpServer)(**kwargs)


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestBothClients:
    def test_query_matches_engine(self, engine, expected_top, transport):
        async def run():
            async with serve(engine, transport) as (host, port):
                async with await connect(transport, host, port) as client:
                    response = await client.query(seed=3, k=10)
                    assert response["ok"] is True
                    assert response["proto"] == 1
                    assert top_of(response) == expected_top

        asyncio.run(run())

    def test_ping_stats_drain(self, engine, transport):
        async def run():
            async with serve(engine, transport) as (host, port):
                async with await connect(transport, host, port) as client:
                    assert await client.ping() is True
                    stats = await client.stats()
                    assert "admission" in stats
                    ack = await client.drain()
                    assert ack["ok"] is True

        asyncio.run(run())

    def test_traces_raise_when_tracing_disabled(self, engine, transport):
        async def run():
            async with serve(engine, transport) as (host, port):
                async with await connect(transport, host, port) as client:
                    with pytest.raises(ServerError):
                        await client.traces()

        asyncio.run(run())

    def test_refusal_is_an_answer(self, engine, transport):
        async def run():
            async with serve(engine, transport) as (host, port):
                async with await connect(transport, host, port) as client:
                    response = await client.query(seed=-1, k=5)
                    assert response["ok"] is False
                    assert response["error"] == "bad_request"
                    with pytest.raises(ServerError):
                        raise_for_response(response)

        asyncio.run(run())

    def test_shed_is_an_answer(self, engine, expected_top, transport):
        shed = {"ok": False, "error": "shed", "message": "full"}

        async def abuse():
            fake = fake_for(transport, answer=shed)
            async with fake as (host, port):
                async with await connect(transport, host, port) as client:
                    response = await client.query(seed=7, k=5)
                    assert response["error"] == "shed"
                    assert fake.requests_seen == 1
                    with pytest.raises(QueryShedError, match="full"):
                        raise_for_response(response)

        abuse_then_differential(engine, transport, expected_top, abuse)

    def test_connection_refused(self, engine, expected_top, transport):
        async def abuse():
            from repro.serving.replica import pick_free_port

            with pytest.raises(ClientConnectionError):
                await connect(transport, "127.0.0.1", pick_free_port())

        abuse_then_differential(engine, transport, expected_top, abuse)

    def test_crash_mid_session_raises(self, engine, expected_top, transport):
        async def abuse():
            fake = fake_for(transport)
            async with fake as (host, port):
                async with await connect(transport, host, port) as client:
                    assert (await client.query(seed=3, k=5))["ok"] is True
                    await fake.crash()
                    # (The pool's one reconnect also finds the port closed.)
                    with pytest.raises(ClientConnectionError):
                        await client.query(seed=3, k=5)

        abuse_then_differential(engine, transport, expected_top, abuse)

    def test_torn_response_raises(self, engine, expected_top, transport):
        async def abuse():
            # The pool replaces a broken connection once per request, so it
            # takes two torn responses to fail one of its requests.
            fake = fake_for(transport, fail_first=2)
            async with fake as (host, port):
                async with await connect(transport, host, port) as client:
                    with pytest.raises(ClientConnectionError):
                        await client.query(seed=7, k=5)

        abuse_then_differential(engine, transport, expected_top, abuse)

    def test_future_proto_raises(self, engine, expected_top, transport):
        async def abuse():
            async with fake_for(transport, proto=999) as (host, port):
                async with await connect(transport, host, port) as client:
                    with pytest.raises(ProtocolMismatchError) as excinfo:
                        await client.query(seed=7, k=5)
                    assert excinfo.value.peer_version == 999

        abuse_then_differential(engine, transport, expected_top, abuse)

    def test_missing_proto_tolerated(self, transport):
        """Absence is legal for plain clients (pre-versioning servers);
        only the router requires the field.  Such a server ignores
        ``packed``: its JSON ``"top"`` reaches the caller as it came."""

        async def run():
            async with fake_for(transport, proto=None) as (host, port):
                async with await connect(transport, host, port) as client:
                    response = await client.query(seed=7, k=5)
                    assert response["ok"] is True and "proto" not in response
                    assert response["top"] == [[7, 1.0]]

        asyncio.run(run())


# ----------------------------------------------------------------------
# What only the pool does
# ----------------------------------------------------------------------


class TestPool:
    def test_relay_requires_the_proto_header(self, engine, expected_top):
        async def run():
            async with serve(engine, "http") as (host, port):
                async with HttpClientPool(host, port, size=1) as pool:
                    status, body = await pool.relay_query(b'{"seed": 3, "k": 10}')
                    assert status == 200
                    assert top_of(json.loads(body)) == expected_top
            # The body carries no proto either: only the header counts.
            async with FakeHttpServer(proto=None) as (host, port):
                async with HttpClientPool(host, port, size=1) as pool:
                    with pytest.raises(ProtocolMismatchError):
                        await pool.relay_query(b'{"seed": 3}')

        asyncio.run(run())

    @pytest.mark.parametrize(
        "packed",
        ["!!!!" * 4, "A" * 20 + "=", 7],
        ids=["not-base64", "15-bytes", "number"],
    )
    def test_malformed_top_packed_is_a_malformed_response(self, packed):
        async def run():
            answer = {"ok": True, "top_packed": packed}
            async with FakeHttpServer(answer=answer) as (host, port):
                async with HttpClientPool(host, port, size=1) as pool:
                    with pytest.raises(MalformedResponseError, match="top_packed"):
                        await pool.query({"seed": 3})

        asyncio.run(run())

    def test_failed_connect_closes_what_it_opened(self, monkeypatch):
        """``connect()`` is all or none: the third connection is refused,
        the two opened before it are closed (the server sees EOF), and a
        later ``connect()`` holds exactly ``size``."""

        async def run():
            accepted, open_now = [], set()

            async def track(reader, writer):
                accepted.append(writer)
                open_now.add(writer)
                await reader.read()  # b"" at the client's EOF
                open_now.discard(writer)
                writer.close()

            async def until(condition):
                while not condition():
                    await asyncio.sleep(0.01)

            server = await asyncio.start_server(track, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            calls = itertools.count(1)
            real_connect = HttpClient.connect

            async def refuse_the_third(client):
                if next(calls) == 3:
                    raise ConnectionRefusedError("refused")
                return await real_connect(client)

            monkeypatch.setattr(HttpClient, "connect", refuse_the_third)
            pool = HttpClientPool(host, port, size=4)
            try:
                with pytest.raises(ClientConnectionError) as refused:
                    await pool.connect()
                await asyncio.wait_for(until(lambda: len(accepted) == 2), 10.0)
                # ``refused`` keeps the failed connect's frame alive, so the
                # EOFs come from connect() closing, not from the collector.
                await asyncio.wait_for(until(lambda: not open_now), 10.0)
                assert "refused" in str(refused.value)
                await pool.connect()
                await asyncio.wait_for(until(lambda: len(accepted) == 6), 10.0)
                assert len(open_now) == 4
            finally:
                await pool.close()
                server.close()
                await server.wait_closed()

        asyncio.run(run())
