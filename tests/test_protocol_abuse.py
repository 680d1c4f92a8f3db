"""Protocol-abuse suite shared across the TCP and HTTP front doors.

One malformed-payload corpus is pushed through *both* transports; every
abuse must produce a typed error (``bad_request`` over TCP, the mapped
status code over HTTP) — never a silently dropped connection — and the
server must keep answering correct queries afterwards.  A second group
abuses the HTTP framing itself (bad request lines, bad Content-Length,
chunked bodies, oversized payloads), and a third proves a mid-batch client
disconnect cannot poison the answers of the queries batched alongside it.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.diffusion.sparse_vector import SparseScoreVector
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery, PPRResult, PPRSolver
from repro.serving import QueryEngine
from repro.serving.frontend import (
    AsyncQueryServer,
    BatchPolicy,
    HttpClient,
    HttpQueryServer,
    MicroBatcher,
)


@pytest.fixture()
def config():
    return MeLoPPRConfig(stage_lengths=(3, 3), track_memory=False)


class SleepySolver(PPRSolver):
    name = "sleepy"

    def __init__(self, graph, delay_seconds: float) -> None:
        super().__init__(graph)
        self.delay_seconds = delay_seconds

    def solve(self, query: PPRQuery) -> PPRResult:
        time.sleep(self.delay_seconds)
        return PPRResult(query=query, scores=SparseScoreVector({query.seed: 1.0}))


def both_servers(engine, policy=None):
    """Async context: one batcher serving a TCP *and* an HTTP front door."""

    class _Stack:
        async def __aenter__(self):
            self.batcher = MicroBatcher(engine, policy)
            await self.batcher.start()
            self.tcp = AsyncQueryServer(self.batcher)
            self.http = HttpQueryServer(self.batcher)
            tcp_addr = await self.tcp.start()
            http_addr = await self.http.start()
            return tcp_addr, http_addr

        async def __aexit__(self, exc_type, exc, traceback):
            await self.tcp.stop()
            await self.http.stop()
            await self.batcher.stop()

    return _Stack()


async def tcp_exchange(addr, payload: bytes) -> dict:
    """One raw JSON-lines exchange; returns the server's parsed answer."""
    reader, writer = await asyncio.open_connection(*addr)
    try:
        writer.write(payload + b"\n")
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout=5)
        assert line, "server dropped the connection without answering"
        return json.loads(line)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def http_pieces_exchange(addr, pieces) -> bytes:
    """Send ``pieces`` one segment at a time (the loop runs between writes,
    so the server reads each alone), return the raw response up to close."""
    reader, writer = await asyncio.open_connection(*addr)
    try:
        for piece in pieces:
            writer.write(piece)
            await writer.drain()
            await asyncio.sleep(0)
            await asyncio.sleep(0)
        return await asyncio.wait_for(reader.read(), timeout=5)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def http_raw_exchange(addr, request: bytes) -> bytes:
    """Send raw bytes, return the raw response (up to connection close)."""
    return await http_pieces_exchange(addr, [request])


def answers_of(raw: bytes) -> list:
    """Every response in ``raw`` as ``(status, body)``, the measured
    ``latency_ms`` dropped — the one field two deliveries may differ in."""
    answers = []
    while raw:
        head, _, rest = raw.partition(b"\r\n\r\n")
        length = int(head.lower().split(b"content-length:")[1].split()[0])
        body = json.loads(rest[:length])
        body.pop("latency_ms", None)
        answers.append((status_of(head), body))
        raw = rest[length:]
    return answers


def http_post_query(body: bytes, extra_headers: bytes = b"") -> bytes:
    return (
        b"POST /query HTTP/1.1\r\nHost: t\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n"
        + extra_headers
        + b"Connection: close\r\n\r\n"
        + body
    )


def status_of(raw: bytes) -> int:
    assert raw.startswith(b"HTTP/1.1 "), raw[:40]
    return int(raw.split(b" ", 2)[1])


async def assert_still_serving(tcp_addr, http_addr, expected_top) -> None:
    """After any abuse, both transports still answer correctly."""
    answer = await tcp_exchange(tcp_addr, json.dumps({"seed": 3, "k": 10}).encode())
    assert answer["ok"] is True and answer["top"] == expected_top
    async with HttpClient(*http_addr) as client:
        status, body = await client.query({"seed": 3, "k": 10})
    assert status == 200 and body["top"] == expected_top


# The shared corpus: payload (as a dict or raw JSON value) plus a fragment
# the error message must mention.  Each entry is sent to both transports.
MALFORMED_BODIES = [
    pytest.param([1, 2, 3], "object", id="json-array"),
    pytest.param("a string", "object", id="json-string"),
    pytest.param(42, "object", id="json-number"),
    pytest.param({"k": 10}, "seed", id="missing-seed"),
    pytest.param({"seed": True, "k": 10}, "seed", id="bool-seed"),
    pytest.param({"seed": 3, "k": True}, "k", id="bool-k"),
    pytest.param({"seed": 3.5, "k": 10}, "seed", id="float-seed"),
    pytest.param({"seed": -1, "k": 10}, "", id="negative-seed"),
    pytest.param({"seed": 10**9, "k": 10}, "", id="out-of-range-seed"),
    pytest.param({"seed": 3, "k": 10, "timeout_ms": "fast"}, "timeout_ms", id="string-timeout"),
    pytest.param({"seed": 3, "k": 10, "timeout_ms": True}, "timeout_ms", id="bool-timeout"),
    pytest.param({"seed": 3, "k": 10, "timeout_ms": -5}, "timeout_ms", id="negative-timeout"),
]


class TestSharedMalformedBodies:
    """The same abusive payloads through both front doors."""

    @pytest.fixture()
    def stack(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        expected = [
            [int(n), float(s)]
            for n, s in engine.solve_batch([PPRQuery(seed=3, k=10)])[0].top_k()
        ]
        yield engine, expected
        engine.close()

    @pytest.mark.parametrize("payload, fragment", MALFORMED_BODIES)
    def test_typed_error_on_both_transports(self, stack, payload, fragment):
        engine, expected = stack

        async def run():
            async with both_servers(engine) as (tcp_addr, http_addr):
                raw = json.dumps(payload).encode("utf-8")

                tcp_answer = await tcp_exchange(tcp_addr, raw)
                assert tcp_answer["ok"] is False
                assert tcp_answer["error"] == "bad_request"
                assert fragment in tcp_answer["message"]

                http_raw = await http_raw_exchange(http_addr, http_post_query(raw))
                assert status_of(http_raw) == 400
                http_body = json.loads(http_raw.split(b"\r\n\r\n", 1)[1])
                assert http_body["ok"] is False
                assert http_body["error"] == "bad_request"
                assert fragment in http_body["message"]

                await assert_still_serving(tcp_addr, http_addr, expected)

        asyncio.run(run())

    def test_non_json_body_on_both_transports(self, stack):
        engine, expected = stack

        async def run():
            async with both_servers(engine) as (tcp_addr, http_addr):
                raw = b"{not json at all"
                tcp_answer = await tcp_exchange(tcp_addr, raw)
                assert tcp_answer["ok"] is False
                assert tcp_answer["error"] == "bad_request"

                http_raw = await http_raw_exchange(http_addr, http_post_query(raw))
                assert status_of(http_raw) == 400

                await assert_still_serving(tcp_addr, http_addr, expected)

        asyncio.run(run())

    def test_unknown_operation_is_typed_on_both(self, stack):
        engine, expected = stack

        async def run():
            async with both_servers(engine) as (tcp_addr, http_addr):
                tcp_answer = await tcp_exchange(
                    tcp_addr, json.dumps({"op": "frobnicate"}).encode()
                )
                assert tcp_answer["ok"] is False
                assert tcp_answer["error"] == "bad_request"
                assert "frobnicate" in tcp_answer["message"]

                # The HTTP analogue of an unknown op is an unknown path /
                # wrong method: 404 and 405, not a dropped connection.
                raw404 = await http_raw_exchange(
                    http_addr,
                    b"GET /frobnicate HTTP/1.1\r\nHost: t\r\n"
                    b"Connection: close\r\n\r\n",
                )
                assert status_of(raw404) == 404
                raw405 = await http_raw_exchange(
                    http_addr,
                    b"DELETE /query HTTP/1.1\r\nHost: t\r\n"
                    b"Connection: close\r\n\r\n",
                )
                assert status_of(raw405) == 405

                await assert_still_serving(tcp_addr, http_addr, expected)

        asyncio.run(run())

    def test_oversized_payload_on_both_transports(self, stack):
        engine, expected = stack

        async def run():
            async with both_servers(engine) as (tcp_addr, http_addr):
                # TCP: a line beyond the stream limit gets an explicit
                # answer, then the (unresynchronisable) connection closes.
                blob = b'{"seed": 3, "pad": "' + b"x" * (1 << 17) + b'"}'
                tcp_answer = await tcp_exchange(tcp_addr, blob)
                assert tcp_answer["ok"] is False
                assert tcp_answer["error"] == "bad_request"

                # HTTP: a body over the cap is refused from the declared
                # Content-Length alone — a 413 before the body is read (so
                # the abuser cannot make the server buffer it).
                http_raw = await http_raw_exchange(
                    http_addr,
                    b"POST /query HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: " + str((1 << 20) + 1).encode() + b"\r\n\r\n",
                )
                assert status_of(http_raw) == 413

                await assert_still_serving(tcp_addr, http_addr, expected)

        asyncio.run(run())


class TestHttpFramingAbuse:
    """Abuse aimed at the HTTP layer itself, below the JSON protocol."""

    @pytest.fixture()
    def stack(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        expected = [
            [int(n), float(s)]
            for n, s in engine.solve_batch([PPRQuery(seed=3, k=10)])[0].top_k()
        ]
        yield engine, expected
        engine.close()

    def run_case(self, stack, check):
        engine, expected = stack

        async def run():
            async with both_servers(engine) as (tcp_addr, http_addr):
                await check(http_addr)
                await assert_still_serving(tcp_addr, http_addr, expected)

        asyncio.run(run())

    def test_garbage_request_line(self, stack):
        async def check(addr):
            raw = await http_raw_exchange(addr, b"NOT AN HTTP REQUEST\r\n\r\n")
            assert status_of(raw) == 400

        self.run_case(stack, check)

    def test_unsupported_http_version(self, stack):
        async def check(addr):
            raw = await http_raw_exchange(
                addr, b"GET /healthz HTTP/2.0\r\n\r\n"
            )
            assert status_of(raw) == 400

        self.run_case(stack, check)

    def test_chunked_transfer_encoding_is_501(self, stack):
        async def check(addr):
            raw = await http_raw_exchange(
                addr,
                b"POST /query HTTP/1.1\r\nHost: t\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"5\r\nhello\r\n0\r\n\r\n",
            )
            assert status_of(raw) == 501

        self.run_case(stack, check)

    def test_missing_content_length_on_post(self, stack):
        async def check(addr):
            raw = await http_raw_exchange(
                addr,
                b"POST /query HTTP/1.1\r\nHost: t\r\n"
                b"Connection: close\r\n\r\n",
            )
            # No body: parsed as an empty payload -> bad_request, not a hang.
            assert status_of(raw) == 400

        self.run_case(stack, check)

    @pytest.mark.parametrize(
        "value", [b"banana", b"-5", b"1e3"], ids=["text", "negative", "float"]
    )
    def test_invalid_content_length(self, stack, value):
        async def check(addr):
            raw = await http_raw_exchange(
                addr,
                b"POST /query HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: " + value + b"\r\n\r\n",
            )
            assert status_of(raw) == 400

        self.run_case(stack, check)

    def test_header_flood_is_rejected(self, stack):
        async def check(addr):
            flood = b"".join(
                b"X-Flood-%d: x\r\n" % i for i in range(200)
            )
            raw = await http_raw_exchange(
                addr,
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n" + flood + b"\r\n",
            )
            assert status_of(raw) == 400

        self.run_case(stack, check)

    def test_hundred_header_lines_are_served(self, stack):
        """The cap refuses the 101st header line, not the 100th."""

        async def check(addr):
            for count, expected in ((100, 200), (101, 400)):
                lines = b"".join(b"X-H-%d: x\r\n" % i for i in range(count - 1))
                raw = await http_raw_exchange(
                    addr,
                    b"GET /healthz HTTP/1.1\r\nConnection: close\r\n"
                    + lines + b"\r\n",
                )
                assert status_of(raw) == expected, count

        self.run_case(stack, check)

    def test_overlong_head_is_400(self, stack):
        """One byte past the 64 KiB head limit, no blank line in sight: the
        refusal comes at once, not after the client gives up."""

        async def check(addr):
            head = b"GET /healthz HTTP/1.1\r\nX-Pad: "
            raw = await http_raw_exchange(
                addr, head + b"x" * ((1 << 16) + 1 - len(head))
            )
            assert status_of(raw) == 400

        self.run_case(stack, check)

    def test_bare_lf_line_endings_are_served(self, stack):
        """Pinned: a head that ends its lines with LF alone is answered like
        its CRLF twin (and must never wait for a CRLF that is not coming)."""
        _, expected = stack

        async def check(addr):
            raw = await http_raw_exchange(
                addr, b"GET /healthz HTTP/1.1\nHost: t\nConnection: close\n\n"
            )
            assert status_of(raw) == 200
            body = json.dumps({"seed": 3, "k": 10}).encode()
            raw = await http_raw_exchange(
                addr, http_post_query(body).replace(b"\r\n", b"\n")
            )
            ((status, answer),) = answers_of(raw)
            assert status == 200 and answer["top"] == expected

        self.run_case(stack, check)

    def test_disconnect_mid_head_is_silent(self, stack):
        async def check(addr):
            _, writer = await asyncio.open_connection(*addr)
            writer.write(b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Le")
            await writer.drain()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

        self.run_case(stack, check)

    def test_disconnect_mid_body_is_silent(self, stack):
        """Client advertises a body then vanishes: no stack trace, no wedge."""

        async def check(addr):
            reader, writer = await asyncio.open_connection(*addr)
            writer.write(
                b"POST /query HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 1000\r\n\r\n" + b'{"seed"'
            )
            await writer.drain()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

        self.run_case(stack, check)

    def test_disconnect_before_request_is_silent(self, stack):
        async def check(addr):
            _, writer = await asyncio.open_connection(*addr)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

        self.run_case(stack, check)


class TestHttpFraming:
    """However the bytes of valid requests are cut into segments, the
    answers are the ones they get delivered whole."""

    @pytest.fixture()
    def stack(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        yield engine
        engine.close()

    @staticmethod
    def request(seed: int, close: bool) -> bytes:
        body = json.dumps({"id": seed, "seed": seed, "k": 10}).encode()
        return (
            b"POST /query HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: %d\r\n" % len(body)
            + (b"Connection: close\r\n" if close else b"")
            + b"\r\n" + body
        )

    def test_split_at_every_offset_and_bytewise(self, stack):
        request = self.request(3, close=True)

        async def run():
            async with both_servers(stack) as (_, addr):
                whole = answers_of(await http_raw_exchange(addr, request))
                assert [status for status, _ in whole] == [200]
                for cut in range(1, len(request)):
                    raw = await http_pieces_exchange(
                        addr, [request[:cut], request[cut:]]
                    )
                    assert answers_of(raw) == whole, cut
                raw = await http_pieces_exchange(
                    addr, [request[i : i + 1] for i in range(len(request))]
                )
                assert answers_of(raw) == whole

        asyncio.run(run())

    def test_requests_sharing_a_segment_are_answered_in_order(self, stack):
        async def run():
            async with both_servers(stack) as (_, addr):
                expected = [
                    answers_of(
                        await http_raw_exchange(addr, self.request(seed, True))
                    )[0]
                    for seed in (3, 5)
                ]
                both = self.request(3, close=False) + self.request(5, close=True)
                assert answers_of(await http_raw_exchange(addr, both)) == expected
                # Stray blank lines before and between requests are skipped.
                stray = (
                    b"\r\n" + self.request(3, close=False)
                    + b"\r\n\r\n" + self.request(5, close=True)
                )
                assert answers_of(await http_raw_exchange(addr, stray)) == expected
                pieces = [b"\r\n", self.request(3, False), b"\r\n", self.request(5, True)]
                assert answers_of(await http_pieces_exchange(addr, pieces)) == expected

        asyncio.run(run())


class TestMidBatchDisconnect:
    """A client vanishing mid-batch must not poison its batchmates."""

    def test_tcp_disconnect_does_not_poison_batchmates(self, small_ba_graph):
        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.05))
        # A wide, patient policy so both queries land in one batch.
        policy = BatchPolicy(max_batch_size=8, max_wait_ms=50.0)

        async def run():
            async with both_servers(engine, policy) as (tcp_addr, _):
                # Victim submits a query, then disconnects immediately —
                # while its query is still queued/batching.
                _, victim_writer = await asyncio.open_connection(*tcp_addr)
                victim_writer.write(json.dumps({"seed": 1, "k": 5}).encode() + b"\n")
                await victim_writer.drain()

                survivor_reader, survivor_writer = await asyncio.open_connection(
                    *tcp_addr
                )
                survivor_writer.write(
                    json.dumps({"seed": 2, "k": 5}).encode() + b"\n"
                )
                await survivor_writer.drain()
                victim_writer.close()  # mid-batch disconnect

                line = await asyncio.wait_for(
                    survivor_reader.readline(), timeout=5
                )
                answer = json.loads(line)
                survivor_writer.close()
                return answer

        with engine:
            answer = asyncio.run(run())
        assert answer["ok"] is True
        assert answer["seed"] == 2
        assert answer["top"] == [[2, 1.0]]

    def test_http_disconnect_does_not_poison_batchmates(self, small_ba_graph):
        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.05))
        policy = BatchPolicy(max_batch_size=8, max_wait_ms=50.0)

        async def run():
            async with both_servers(engine, policy) as (_, http_addr):
                victim_reader, victim_writer = await asyncio.open_connection(
                    *http_addr
                )
                victim_writer.write(
                    http_post_query(json.dumps({"seed": 1, "k": 5}).encode())
                )
                await victim_writer.drain()

                async with HttpClient(*http_addr) as survivor:
                    task = asyncio.ensure_future(
                        survivor.query({"seed": 2, "k": 5})
                    )
                    await asyncio.sleep(0.005)
                    victim_writer.close()  # mid-batch disconnect
                    status, body = await task
                return status, body

        with engine:
            status, body = asyncio.run(run())
        assert status == 200
        assert body["ok"] is True
        assert body["top"] == [[2, 1.0]]
