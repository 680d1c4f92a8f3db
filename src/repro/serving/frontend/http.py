"""An HTTP/1.1 + JSON front door over the same micro-batcher as TCP.

The JSON-lines TCP protocol (:mod:`repro.serving.frontend.server`) is the
low-overhead path for purpose-built clients; this module is the *operable*
one — anything that speaks HTTP (curl, load balancers, Prometheus) can talk
to it, and both transports can serve the **same**
:class:`~repro.serving.frontend.batcher.MicroBatcher` simultaneously, so
queries arriving over HTTP coalesce into the same batches as TCP traffic.

Endpoints::

    POST /query         {"seed": 42, "k": 100, "alpha": 0.85, "length": 6,
                         "timeout_ms": 250}
                        -> 200 {"ok": true, "top": [[node, score], ...],
                                "latency_ms": 3.1}
                        -> 400 bad request, 429 shed (overload),
                           504 deadline exceeded, 500 engine failure —
                           every rejection is a JSON body with
                           {"ok": false, "error": <code>, "message": ...}
    GET  /healthz       200 while serving, 503 while draining (load
                        balancers stop routing before the listener closes)
    GET  /stats         the full nested stats snapshot as JSON
    GET  /metrics       Prometheus text exposition (0.0.4) of the same
                        counters (repro.serving.frontend.metrics)
    POST /admin/drain   begin a graceful drain; 202, in-flight queries
                        complete, the process's serve loop exits
    POST /admin/reload  hot-apply config overrides (max_pending, batch
                        policy, cache budgets, trace sampling) without
                        dropping queries; body = the override object,
                        response echoes the effective config
                        (repro.serving.frontend.ops)
    GET  /debug/traces  the tracer's ring of finished span trees as JSON
                        (404 unless the server runs with --trace-sample)
    GET  /debug/traces/perfetto
                        the same ring in Chrome trace-event format — save
                        the body and load it in Perfetto or chrome://tracing

``POST /query`` honours a W3C ``traceparent`` request header: with a tracer
configured, a sampled-flagged header forces the query to record a span tree
under the supplied trace id, echoed back as ``trace_id`` in the response
body (see :mod:`repro.serving.tracing`).

The implementation is deliberately stdlib-asyncio-only (no aiohttp):
HTTP/1.1 with ``Content-Length`` bodies and keep-alive, one request at a
time per connection.  Concurrency comes from many connections — use
:class:`HttpClientPool` — which is also how real HTTP load arrives.

Server and client frame messages with one parser (:func:`parse_head` behind
``_MessageReader``): a head costs one read when it arrives in one segment,
holds at most 64 KiB and 100 header lines, and may end its lines with bare
LF.  A connection's loop awaits that read itself — no task per request — and
:meth:`BaseHttpServer.drain` ends the loop by feeding the reader EOF *behind*
what it has already received: every request that arrived before the drain is
answered, and an idle connection closes at once.

Run it from the command line::

    PYTHONPATH=src python -m repro.serving.frontend.http \
        --dataset G1 --port 7080 --backend thread:4 --max-batch 8
"""

from __future__ import annotations

import asyncio
import json
import re
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.serving.frontend.batcher import MicroBatcher
from repro.serving.frontend.metrics import render_prometheus
from repro.serving.frontend.ops import answer_query, apply_graph_update, apply_reload
from repro.serving.frontend.protocol import PROTOCOL_VERSION
from repro.serving.frontend.server import parse_query_request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.serving.frontend.recorder import WorkloadRecorder

__all__ = [
    "BaseHttpServer",
    "HttpQueryServer",
    "HttpClient",
    "HttpClientPool",
    "main",
]

#: Largest request body the server will read (1 MiB is generous: a query
#: is ~100 bytes, a reload config ~200).
DEFAULT_MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Protocol error codes -> HTTP status.  The JSON bodies carry the same
#: ``error`` codes as the TCP protocol, so clients can switch transports
#: without relearning the failure taxonomy.
_ERROR_STATUS = {
    "bad_request": 400,
    "shed": 429,
    "deadline": 504,
    "internal": 500,
}


#: Largest message head (start line + headers) either side will buffer:
#: asyncio's default stream limit, now for the whole head rather than per line.
MAX_HEAD_BYTES = 1 << 16
MAX_HEADER_LINES = 100

#: The blank line ending a head.  Bare-LF line endings are accepted.
_HEAD_END = re.compile(rb"\r?\n\r?\n")


class _BadHead(Exception):
    """The start line or headers were not parseable HTTP."""


def parse_head(head: bytes) -> Tuple[str, Dict[str, str]]:
    """Split a message head into its start line and lower-cased headers."""
    start, *lines = head.decode("latin-1").split("\n")
    if len(lines) > MAX_HEADER_LINES:
        raise _BadHead(f"more than {MAX_HEADER_LINES} header lines")
    headers: Dict[str, str] = {}
    for line in lines:
        name, colon, value = line.partition(":")
        if not colon:
            raise _BadHead(f"malformed header line: {line.strip()!r}")
        headers[name.strip().lower()] = value.strip()
    return start.strip(), headers


class _MessageReader:
    """Frames HTTP/1.1 messages off one stream, for the server and the client.

    Reads whatever has arrived rather than a line at a time, so a head that
    arrives in one segment costs one await — and none when it was pipelined
    behind the previous message.
    """

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._reader = reader
        self._buffer = b""

    async def head(self) -> Optional[Tuple[str, Dict[str, str]]]:
        """The next message's ``(start line, headers)``; ``None`` on EOF
        between messages.  Raises ``ConnectionError`` on EOF inside a head."""
        # Stray blank lines between messages are tolerated.
        buffer = self._buffer.lstrip(b"\r\n")
        scanned = 0
        while True:
            end = _HEAD_END.search(buffer, scanned)
            if (len(buffer) if end is None else end.start()) > MAX_HEAD_BYTES:
                raise _BadHead(f"head exceeds {MAX_HEAD_BYTES} bytes")
            if end is not None:
                break
            scanned = max(0, len(buffer) - 3)
            chunk = await self._reader.read(MAX_HEAD_BYTES)
            if not chunk:
                if buffer:
                    raise ConnectionError("peer closed the connection mid-head")
                return None
            buffer = (buffer + chunk).lstrip(b"\r\n")
        self._buffer = buffer[end.end():]
        return parse_head(buffer[: end.start()])

    async def body(self, length: int) -> bytes:
        """The ``length`` bytes after the head just returned."""
        buffer = self._buffer
        if len(buffer) < length:
            buffer += await self._reader.readexactly(length - len(buffer))
        self._buffer = buffer[length:]
        return buffer[:length]


class BaseHttpServer:
    """The transport shell shared by every HTTP front door.

    Owns everything about *being an HTTP/1.1 server* — the listener
    lifecycle, per-connection request loop, request-line/header parsing,
    ``Content-Length`` framing with the body-size cap, keep-alive handling,
    response serialisation (every response carries an ``X-Repro-Proto``
    header) and the graceful-drain contract — and nothing about what the
    endpoints *mean*.  Subclasses implement :meth:`_route`:
    :class:`HttpQueryServer` answers from a micro-batcher, the replica
    router (:mod:`repro.serving.frontend.router`) forwards to a fleet.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ) -> None:
        if max_body_bytes <= 0:
            raise ValueError(
                f"max_body_bytes must be > 0, got {max_body_bytes}"
            )
        self._host = host
        self._port = port
        self._max_body_bytes = max_body_bytes
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        #: Each open connection's handler task -> its (reader, writer).
        self._conn_tasks: Dict["asyncio.Task[None]", tuple] = {}

    async def _route(
        self,
        method: str,
        target: str,
        body: bytes,
        received: float,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, object, str]:
        """Dispatch one request; returns ``(status, payload, content_type)``.

        ``payload`` is a dict/list (JSON-encoded on the way out), a
        pre-rendered string, or already-encoded bytes.
        """
        raise NotImplementedError

    @property
    def draining(self) -> bool:
        """Whether :meth:`drain` has begun (no new work is accepted)."""
        return self._draining

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting connections; returns the bound address."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._draining = False
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        return self.address

    async def stop(self) -> None:
        """Stop accepting connections and close the listener (idempotent)."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def drain(self) -> None:
        """Gracefully wind the server down: stop accepting, finish in-flight.

        Same contract as the TCP server's drain — **no admitted request is
        ever dropped**: the listener closes, every connection answers (and
        flushes) each request it has already received, idle keep-alive
        connections close, and :meth:`drain` returns once every connection
        task has finished.  Whatever answers the requests (a batcher, a
        replica fleet) is *not* stopped here — the caller owns it and may be
        draining several transports.
        """
        self._draining = True
        for reader, writer in self._conn_tasks.values():
            self._end_input(reader, writer)
        await self.stop()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)

    @staticmethod
    def _end_input(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """End one connection's input where it stands: the socket delivers
        nothing more, and the reader reports EOF once the bytes it already
        holds are consumed — which ends an idle connection at once and a
        busy one after the answers it owes."""
        writer.transport.pause_reading()
        reader.feed_eof()

    async def serve_forever(self) -> None:
        """Block serving until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def __aenter__(self) -> "BaseHttpServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, traceback) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn_task = asyncio.current_task()
        assert conn_task is not None
        self._conn_tasks[conn_task] = (reader, writer)
        if self._draining:  # accepted while the listener was closing
            self._end_input(reader, writer)
        messages = _MessageReader(reader)
        try:
            # Requests on one connection are handled sequentially (HTTP/1.1
            # without pipelining — what every real client sends), and the
            # loop awaits the read itself: no task per request.  drain() ends
            # it through the reader's EOF, which arrives only after every
            # request already received has had its response.
            while True:
                try:
                    head = await messages.head()
                except _BadHead as exc:
                    await self._respond_error(writer, 400, str(exc), close=True)
                    break
                except (ConnectionError, OSError):
                    break
                # None: the client closed, or drain() ended an idle connection.
                if head is None or not await self._handle_request(
                    messages, writer, *head
                ):
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            del self._conn_tasks[conn_task]

    async def _handle_request(
        self,
        messages: _MessageReader,
        writer: asyncio.StreamWriter,
        request_line: str,
        headers: Dict[str, str],
    ) -> bool:
        """Answer one request whose head has been parsed; returns whether to
        keep the connection open."""
        # The latency clock starts at request receipt: body/JSON parse time
        # is part of what the client observes, so it is part of what the
        # server reports.
        received = asyncio.get_running_loop().time()
        parts = request_line.split()
        if len(parts) != 3:
            problem = f"malformed request line: {request_line!r}"
        elif parts[2] not in ("HTTP/1.1", "HTTP/1.0"):
            problem = f"unsupported HTTP version {parts[2]!r}"
        else:
            problem = ""
        if problem:
            await self._respond_error(writer, 400, problem, close=True)
            return False
        method, target, version = parts

        keep_alive = version == "HTTP/1.1"
        connection = headers.get("connection", "").lower()
        if connection == "close":
            keep_alive = False
        elif connection == "keep-alive":
            keep_alive = True

        if "transfer-encoding" in headers:
            await self._respond_error(
                writer,
                501,
                "chunked bodies are not supported; send Content-Length",
                close=True,
            )
            return False
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            await self._respond_error(
                writer, 400, "malformed Content-Length", close=True
            )
            return False
        if length > self._max_body_bytes:
            # Refuse before reading: the connection closes because the
            # unread body would desynchronise the stream.
            await self._respond_error(
                writer,
                413,
                f"body of {length} bytes exceeds the "
                f"{self._max_body_bytes}-byte limit",
                close=True,
            )
            return False
        try:
            body = await messages.body(length)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return False  # client disconnected mid-body

        status, payload, content_type = await self._route(
            method.upper(), target, body, received, headers
        )
        sent = await self._respond(
            writer,
            status,
            payload,
            content_type=content_type,
            close=not keep_alive,
        )
        return keep_alive and sent

    # ------------------------------------------------------------------
    def _parse_json_body(self, body: bytes) -> dict:
        if not body:
            raise ValueError("request body must be a JSON object, got nothing")
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ValueError(f"body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError(
                f"request body must be a JSON object, "
                f"got {type(payload).__name__}"
            )
        return payload

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: object,
        content_type: str = "application/json",
        close: bool = False,
    ) -> bool:
        """Serialise and send one response; returns False if the client
        went away (nothing to deliver the answer to)."""
        if isinstance(payload, dict) and "ok" in payload:
            # Every ok-envelope answer carries the protocol version so
            # clients can detect mixed-version fleets (document payloads
            # like /stats or perfetto keep their exact shapes).
            payload.setdefault("proto", PROTOCOL_VERSION)
        if isinstance(payload, (dict, list)):
            body = json.dumps(payload).encode("utf-8")
        elif isinstance(payload, str):
            body = payload.encode("utf-8")
        else:  # pre-encoded (a query answer): passed through untouched
            body = bytes(payload)
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"X-Repro-Proto: {PROTOCOL_VERSION}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            "\r\n"
        ).encode("ascii")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, OSError):
            return False
        return True

    async def _respond_error(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        message: str,
        close: bool = False,
    ) -> bool:
        return await self._respond(
            writer,
            status,
            {"ok": False, "error": "bad_request" if status == 400 else "error",
             "message": message},
            close=close,
        )


class HttpQueryServer(BaseHttpServer):
    """Serve a :class:`MicroBatcher` over HTTP/1.1 with JSON bodies.

    Parameters
    ----------
    batcher:
        The started (or about-to-be-started) micro-batcher answering
        queries — share one instance with an
        :class:`~repro.serving.frontend.server.AsyncQueryServer` to serve
        both transports from the same batches.
    host, port:
        Bind address; port 0 picks a free port (read it from
        :meth:`start`'s return value).
    max_body_bytes:
        Bound on request bodies; larger ones are refused with 413 before
        being read.
    recorder:
        Optional workload recorder; every accepted ``/query`` is captured
        with its arrival offset.
    info:
        Static labels for the ``repro_server_info`` metric (backend,
        kernel, dataset...).  Defaults to the live backend name and batch
        policy; a ``proto`` label always rides along.
    """

    def __init__(
        self,
        batcher: MicroBatcher,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        recorder: Optional["WorkloadRecorder"] = None,
        info: Optional[Mapping[str, str]] = None,
    ) -> None:
        super().__init__(host=host, port=port, max_body_bytes=max_body_bytes)
        self._batcher = batcher
        self._recorder = recorder
        self._info = dict(info) if info is not None else None

    @property
    def batcher(self) -> MicroBatcher:
        """The micro-batcher answering this server's queries."""
        return self._batcher

    @property
    def recorder(self) -> Optional["WorkloadRecorder"]:
        """The workload recorder capturing query requests (``None`` = off)."""
        return self._recorder

    # ------------------------------------------------------------------
    #: Every route and the one method it answers (``HEAD`` rides on ``GET``).
    _ROUTES = {
        "/query": "POST",
        "/healthz": "GET",
        "/stats": "GET",
        "/metrics": "GET",
        "/admin/drain": "POST",
        "/admin/reload": "POST",
        "/admin/update": "POST",
        "/debug/traces": "GET",
        "/debug/traces/perfetto": "GET",
    }

    async def _route(
        self,
        method: str,
        target: str,
        body: bytes,
        received: float,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, object, str]:
        """Dispatch to a handler; returns ``(status, payload, content_type)``.

        ``payload`` is a dict (JSON-encoded on the way out) except for
        ``/metrics``, which returns the exposition text directly, and an
        answered ``/query``, which returns the encoded body.
        """
        headers = headers or {}
        path = target.split("?", 1)[0]
        json_type = "application/json"
        routes = self._ROUTES
        if path not in routes:
            return (
                404,
                {"ok": False, "error": "not_found", "message": f"no route {path!r}"},
                json_type,
            )
        if method != routes[path] and not (
            method == "HEAD" and routes[path] == "GET"
        ):
            return (
                405,
                {
                    "ok": False,
                    "error": "method_not_allowed",
                    "message": f"{path} expects {routes[path]}, got {method}",
                },
                json_type,
            )

        if path == "/healthz":
            if self.draining:
                return 503, {"ok": False, "status": "draining"}, json_type
            return 200, {"ok": True, "status": "serving"}, json_type
        if path == "/stats":
            return 200, self._batcher.stats().as_dict(), json_type
        if path == "/metrics":
            text = render_prometheus(
                self._batcher.stats(),
                draining=self.draining,
                info=self._metrics_info(),
            )
            return 200, text, "text/plain; version=0.0.4; charset=utf-8"
        if path == "/admin/drain":
            # Acknowledge first, drain as a background task: drain() waits
            # for every connection handler — including the one carrying
            # this request — so awaiting it here would deadlock.
            asyncio.ensure_future(self.drain())
            return 202, {"ok": True, "draining": True}, json_type
        if path == "/admin/reload":
            try:
                overrides = self._parse_json_body(body)
                outcome = apply_reload(self._batcher, overrides)
            except ValueError as exc:
                return (
                    400,
                    {"ok": False, "error": "bad_request", "message": str(exc)},
                    json_type,
                )
            return 200, {"ok": True, **outcome}, json_type
        if path == "/admin/update":
            loop = asyncio.get_running_loop()
            try:
                request = self._parse_json_body(body)
                # The writer barrier blocks until in-flight batches finish —
                # run it off the event loop, or it would deadlock against
                # the very batch the loop is completing.
                outcome = await loop.run_in_executor(
                    None,
                    apply_graph_update,
                    self._batcher,
                    request.get("ops", []),
                )
            except ValueError as exc:
                return (
                    400,
                    {"ok": False, "error": "bad_request", "message": str(exc)},
                    json_type,
                )
            return 200, {"ok": True, **outcome}, json_type
        if path in ("/debug/traces", "/debug/traces/perfetto"):
            tracer = self._batcher.engine.tracer
            if tracer is None:
                return (
                    404,
                    {
                        "ok": False,
                        "error": "not_found",
                        "message": (
                            "tracing is disabled; start the server with "
                            "--trace-sample > 0 (or reload trace_sample)"
                        ),
                    },
                    json_type,
                )
            if path.endswith("/perfetto"):
                return 200, tracer.perfetto(), json_type
            return (
                200,
                {
                    "ok": True,
                    "stats": tracer.stats().as_dict(),
                    "traces": tracer.traces(),
                },
                json_type,
            )
        # path == "/query"
        response = await self._answer_query(body, received, headers)
        if isinstance(response, bytes):
            return 200, response, json_type
        return _ERROR_STATUS.get(str(response.get("error")), 500), response, json_type

    def _metrics_info(self) -> Dict[str, str]:
        info = (
            dict(self._info)
            if self._info is not None
            else {
                "backend": self._batcher.engine.backend.name,
                "policy": self._batcher.policy.label,
            }
        )
        # The proto label always rides along so a scrape of a mixed-version
        # fleet shows the skew (the replica router aggregates these).
        info.setdefault("proto", str(PROTOCOL_VERSION))
        return info

    async def _answer_query(
        self, body: bytes, received: float, headers: Dict[str, str]
    ) -> Union[dict, bytes]:
        """The ``POST /query`` handler: same semantics as the TCP query op."""
        request_id = None
        try:
            request = self._parse_json_body(body)
            request_id = request.get("id")
            query, timeout_ms = parse_query_request(
                request, self._batcher.engine.solver.graph.num_nodes
            )
        except (ValueError, TypeError, KeyError) as exc:
            return {
                "id": request_id,
                "ok": False,
                "error": "bad_request",
                "message": str(exc),
            }
        return await answer_query(
            self._batcher,
            self._recorder,
            "http",
            headers.get("traceparent"),
            request_id,
            query,
            timeout_ms,
            received,
        )


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------


class HttpClient:
    """A minimal asyncio HTTP/1.1 client for one keep-alive connection.

    Just enough HTTP for tests, benchmarks and the soak study: JSON bodies,
    ``Content-Length`` framing, sequential requests.  Not a general client.
    """

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._messages: Optional[_MessageReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "HttpClient":
        reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )
        self._messages = _MessageReader(reader)
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._messages = None
            self._writer = None

    async def __aenter__(self) -> "HttpClient":
        return await self.connect()

    async def __aexit__(self, exc_type, exc, traceback) -> None:
        await self.close()

    async def request(
        self,
        method: str,
        path: str,
        body: Optional[object] = None,
        headers: Optional[Mapping[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One request/response cycle; returns ``(status, headers, body)``.

        ``body`` may be a dict (sent as JSON), ``bytes`` (sent raw) or
        ``None``.
        """
        if self._writer is None:
            await self.connect()
        assert self._messages is not None and self._writer is not None
        if isinstance(body, (dict, list)):
            raw = json.dumps(body).encode("utf-8")
        elif body is None:
            raw = b""
        else:
            raw = bytes(body)
        head_lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self._host}:{self._port}",
            f"Content-Length: {len(raw)}",
        ]
        for name, value in (headers or {}).items():
            head_lines.append(f"{name}: {value}")
        request = ("\r\n".join(head_lines) + "\r\n\r\n").encode("ascii") + raw
        self._writer.write(request)
        await self._writer.drain()
        return await self._read_response(self._messages)

    async def request_json(
        self,
        method: str,
        path: str,
        body: Optional[object] = None,
        headers: Optional[Mapping[str, str]] = None,
    ) -> Tuple[int, dict]:
        """:meth:`request`, with the response body parsed as JSON."""
        status, _, raw = await self.request(method, path, body, headers=headers)
        return status, json.loads(raw)

    async def query(self, request: dict) -> Tuple[int, dict]:
        """``POST /query`` with ``request`` as the JSON body."""
        return await self.request_json("POST", "/query", request)

    async def _read_response(
        self, messages: _MessageReader
    ) -> Tuple[int, Dict[str, str], bytes]:
        try:
            head = await messages.head()
            if head is None:
                raise ConnectionError("server closed the connection")
            status_line, headers = head
            status = int(status_line.split(None, 2)[1])
            length = int(headers.get("content-length", "0"))
            if length < 0:
                raise ValueError("negative Content-Length")
        except (_BadHead, ValueError, IndexError) as exc:
            # Whatever follows an unparseable head cannot be framed, so the
            # connection must not serve another request: close it and fail
            # the way a torn response does (pools replace the connection).
            await self.close()
            raise ConnectionError(f"malformed response head: {exc}") from exc
        body = await messages.body(length)
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, headers, body


class HttpClientPool:
    """A fixed-size pool of keep-alive :class:`HttpClient` connections.

    The server handles one request at a time per connection, so driving it
    hard needs many connections — exactly like production HTTP traffic.
    The pool checks a connection out per request and replaces broken ones
    transparently.
    """

    def __init__(self, host: str, port: int, size: int = 8) -> None:
        if size <= 0:
            raise ValueError(f"size must be > 0, got {size}")
        self._host = host
        self._port = port
        self._size = size
        self._free: "asyncio.Queue[HttpClient]" = asyncio.Queue()
        self._clients: List[HttpClient] = []

    async def connect(self) -> "HttpClientPool":
        for _ in range(self._size):
            client = await HttpClient(self._host, self._port).connect()
            self._clients.append(client)
            self._free.put_nowait(client)
        return self

    async def close(self) -> None:
        for client in self._clients:
            await client.close()
        self._clients.clear()
        while not self._free.empty():
            self._free.get_nowait()

    async def __aenter__(self) -> "HttpClientPool":
        return await self.connect()

    async def __aexit__(self, exc_type, exc, traceback) -> None:
        await self.close()

    async def request_json(
        self,
        method: str,
        path: str,
        body: Optional[object] = None,
        headers: Optional[Mapping[str, str]] = None,
    ) -> Tuple[int, dict]:
        """:meth:`request`, with the response body parsed as JSON."""
        status, _, raw = await self.request(method, path, body, headers)
        return status, json.loads(raw)

    async def request(
        self,
        method: str,
        path: str,
        body: Optional[object] = None,
        headers: Optional[Mapping[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One request on the next free connection (reconnecting a broken
        one once); returns ``(status, headers, body)``."""
        client = await self._free.get()
        try:
            try:
                return await client.request(method, path, body, headers)
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                # The connection died (e.g. an earlier Connection: close);
                # replace it and retry once.
                await client.close()
                await client.connect()
                return await client.request(method, path, body, headers)
        finally:
            self._free.put_nowait(client)

    async def query(self, request: dict) -> Tuple[int, dict]:
        """``POST /query`` on the next free connection."""
        return await self.request_json("POST", "/query", request)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover - blocks serving
    """Command-line entry point: serve a dataset over HTTP until drained."""
    from repro.serving.frontend.recorder import WorkloadRecorder
    from repro.serving.frontend.request_log import configure_logging
    from repro.serving.frontend.server import (
        build_frontend,
        install_drain_signal_handler,
        write_ready_file,
    )
    from repro.serving.frontend.config import build_serving_parser

    # Keep clear of the TCP default (7071).
    parser = build_serving_parser(__doc__, default_port=7080)
    args = parser.parse_args(argv)
    configure_logging(args.log_level, json_mode=args.log_json)
    engine, policy, admission = build_frontend(args)
    recorder = WorkloadRecorder() if args.record else None

    async def serve() -> None:
        async with MicroBatcher(engine, policy, admission) as batcher:
            server = HttpQueryServer(
                batcher,
                args.host,
                args.port,
                recorder=recorder,
                info={
                    "backend": engine.backend.name,
                    "dataset": engine.solver.graph.name,
                    "policy": policy.label,
                },
            )
            host, port = await server.start()
            if getattr(args, "ready_file", None):
                write_ready_file(
                    args.ready_file,
                    host,
                    port,
                    transport="http",
                    dataset=args.dataset,
                    num_shards=args.num_shards,
                )
            install_drain_signal_handler(server)
            print(
                f"serving {engine.solver.graph.name} on http://{host}:{port} "
                f"(backend {engine.backend.name}, policy {policy.label}, "
                f"max_pending {admission.max_pending})"
            )
            try:
                # Ends via CancelledError when a drain (SIGTERM or
                # POST /admin/drain) closes the listener.
                await server.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                # Idempotent: completes any in-flight queries on every
                # exit path before the batcher shuts down.
                await server.drain()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    finally:
        engine.close()
        if recorder is not None and args.record:
            count = recorder.save(args.record)
            print(f"recorded {count} queries to {args.record}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI only
    raise SystemExit(main())
