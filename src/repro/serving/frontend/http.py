"""The HTTP/1.1 + JSON front door: the same operations as the TCP door.

Both doors are codecs on one shell (:class:`~repro.serving.frontend.shell.FrontDoor`:
listener, connections, drain) and answer from one op table
(:data:`~repro.serving.frontend.ops.OPS`); they differ only in framing and
envelope, and cost about the same per round trip.  HTTP is the one anything
can talk to (curl, load balancers, Prometheus).  Both can serve the
**same** :class:`~repro.serving.frontend.batcher.MicroBatcher` at once, so
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
                        (every GET route also answers HEAD: the same head,
                        no body)
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
time per connection.  Concurrency comes from many connections, which is also
how real HTTP load arrives, so :class:`HttpClientPool` is the HTTP client:
it opens its connections all or none, replaces a stale one once per request,
raises :class:`~repro.serving.frontend.protocol.ClientConnectionError` for
any transport failure, checks the ``proto`` of what it parses, and relays
``/query`` bytes for the replica router (``relay_query``).  Beyond that one
reconnect it never retries: retries and failover are the router's.
:class:`HttpClient` is one bare connection, for tests that observe exactly
one.

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
from typing import Dict, List, Mapping, Optional, Tuple

from repro.serving.frontend.batcher import MicroBatcher
from repro.serving.frontend.metrics import render_prometheus
from repro.serving.frontend.ops import (
    OPS,
    TracingDisabledError,
    answer_query,
    parse_query_request,
    refusal,
    tracer_of,
)
from repro.serving.frontend.protocol import (
    PROTOCOL_VERSION,
    ClientConnectionError,
    MalformedResponseError,
    check_protocol_version,
    unpack_top,
)
from repro.serving.frontend.shell import FrontDoor, serve_main

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
    "not_found": 404,
    "shed": 429,
    "deadline": 504,
    "internal": 500,
}


_JSON_TYPE = "application/json"

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


class BaseHttpServer(FrontDoor):
    """The HTTP/1.1 codec on the shell, shared by every HTTP front door.

    Owns the HTTP framing — head parsing, ``Content-Length`` bodies under a
    size cap, keep-alive, the ``404`` / ``405`` check against
    :attr:`_ROUTES`, ``HEAD`` (the ``GET`` head without its body), and
    responses stamped ``X-Repro-Proto`` — and nothing about what a route
    *means*: subclasses declare :attr:`_ROUTES` and implement :meth:`_route`
    (:class:`HttpQueryServer` answers from a micro-batcher, the replica
    router forwards to a fleet).
    """

    #: Every route and the one method it answers (``HEAD`` rides on ``GET``).
    _ROUTES: Dict[str, str] = {}

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
        super().__init__(host, port)
        self._max_body_bytes = max_body_bytes

    async def _route(
        self,
        method: str,
        target: str,
        body: bytes,
        received: float,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, object, str]:
        """Answer one request to a route in :attr:`_ROUTES` with an allowed
        method; returns ``(status, payload, content_type)``.

        ``payload`` is a dict/list (JSON-encoded on the way out), a
        pre-rendered string, or already-encoded bytes.
        """
        raise NotImplementedError

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        messages = _MessageReader(reader)
        # Requests on one connection are handled sequentially (HTTP/1.1
        # without pipelining — what every real client sends), and the loop
        # awaits the read itself: no task per request.  drain() ends it
        # through the reader's EOF, which arrives only after every request
        # already received has had its response.
        while True:
            try:
                head = await messages.head()
            except _BadHead as exc:
                await self._respond_error(writer, 400, str(exc), close=True)
                return
            except (ConnectionError, OSError):
                return
            # None: the client closed, or drain() ended an idle connection.
            if head is None or not await self._handle_request(
                messages, writer, *head
            ):
                return

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

        method = method.upper()
        path = target.split("?", 1)[0]
        allowed = self._ROUTES.get(path)
        if allowed is None:
            status, payload, content_type = (
                404,
                {"ok": False, "error": "not_found", "message": f"no route {path!r}"},
                _JSON_TYPE,
            )
        elif method != allowed and not (method == "HEAD" and allowed == "GET"):
            status, payload, content_type = (
                405,
                {
                    "ok": False,
                    "error": "method_not_allowed",
                    "message": f"{path} expects {allowed}, got {method}",
                },
                _JSON_TYPE,
            )
        else:
            status, payload, content_type = await self._route(
                method, target, body, received, headers
            )
        sent = await self._respond(
            writer,
            status,
            payload,
            content_type=content_type,
            close=not keep_alive,
            head_only=method == "HEAD",
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
        content_type: str = _JSON_TYPE,
        close: bool = False,
        head_only: bool = False,
    ) -> bool:
        """Serialise and send one response; returns False if the client
        went away (nothing to deliver the answer to).  ``head_only`` (the
        answer to a ``HEAD``) sends the head, ``Content-Length`` included,
        and no body (RFC 9110 §9.3.2)."""
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
            writer.write(head if head_only else head + body)
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
    info:
        Static labels for the ``repro_server_info`` metric (backend,
        dataset, policy...).  Defaults to the live backend name and batch
        policy; a ``proto`` label always rides along.
    """

    def __init__(
        self,
        batcher: MicroBatcher,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        info: Optional[Mapping[str, str]] = None,
    ) -> None:
        super().__init__(host=host, port=port, max_body_bytes=max_body_bytes)
        self._batcher = batcher
        self._info = dict(info) if info is not None else None

    @property
    def batcher(self) -> MicroBatcher:
        """The micro-batcher answering this server's queries."""
        return self._batcher

    # ------------------------------------------------------------------
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
        path = target.split("?", 1)[0]
        if path == "/query":
            request_id = None
            try:
                request = self._parse_json_body(body)
                request_id = request.get("id")
                query, timeout_ms, packed = parse_query_request(
                    request, self._batcher.engine.solver.graph.num_nodes
                )
            except (ValueError, TypeError, KeyError) as exc:
                return 400, refusal(request_id, str(exc)), _JSON_TYPE
            response = await answer_query(
                self._batcher, "http",
                (headers or {}).get("traceparent"),
                request_id, query, timeout_ms, received, packed,
            )
            if isinstance(response, bytes):
                return 200, response, _JSON_TYPE
            return _ERROR_STATUS.get(response["error"], 500), response, _JSON_TYPE
        if path == "/healthz":
            if self.draining:
                return 503, {"ok": False, "status": "draining"}, _JSON_TYPE
            return 200, {"ok": True, "status": "serving"}, _JSON_TYPE
        if path == "/metrics":
            text = render_prometheus(
                self._batcher.stats(),
                draining=self.draining,
                info=self._metrics_info(),
            )
            return 200, text, "text/plain; version=0.0.4; charset=utf-8"
        # Every other route ends in the name of its op in the shared table
        # (/stats, /admin/<op>, /debug/traces), except the perfetto export.
        op = path.rsplit("/", 1)[1]
        try:
            if op == "perfetto":
                return 200, tracer_of(self._batcher).perfetto(), _JSON_TYPE
            args = self._parse_json_body(body) if op in ("reload", "update") else {}
            payload = await OPS[op](self, args)
        except (ValueError, TypeError, KeyError) as exc:
            not_found = isinstance(exc, TracingDisabledError)
            error = "not_found" if not_found else "bad_request"
            reply = {"ok": False, "error": error, "message": str(exc)}
            return _ERROR_STATUS[error], reply, _JSON_TYPE
        if op == "stats":
            return 200, payload["stats"], _JSON_TYPE  # the bare document
        return 202 if op == "drain" else 200, {"ok": True, **payload}, _JSON_TYPE

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
        """``POST /query`` on the next free connection."""
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
    """The HTTP client: a fixed-size pool of keep-alive :class:`HttpClient`
    connections.

    The server handles one request at a time per connection, so driving it
    hard needs many connections — exactly like production HTTP traffic.
    The pool connects on first use (or :meth:`connect`), checks a connection
    out per request and replaces a broken one once.  Every transport failure
    raises :class:`ClientConnectionError`; a body that does not parse raises
    :class:`MalformedResponseError`.
    """

    def __init__(self, host: str, port: int, size: int = 8) -> None:
        if size <= 0:
            raise ValueError(f"size must be > 0, got {size}")
        self._host = host
        self._port = port
        self._size = size
        self.source = f"http://{host}:{port}"
        self._free: "asyncio.Queue[HttpClient]" = asyncio.Queue()
        self._clients: List[HttpClient] = []
        self._connecting = asyncio.Lock()

    async def connect(self) -> "HttpClientPool":
        """Open all ``size`` connections or none: a refused one closes those
        already opened.  A connected pool is left as it is."""
        async with self._connecting:
            if self._clients:
                return self
            opened: List[HttpClient] = []
            try:
                for _ in range(self._size):
                    opened.append(await HttpClient(self._host, self._port).connect())
            except OSError as exc:
                raise ClientConnectionError(
                    f"cannot connect to {self.source}: {exc}"
                ) from exc
            finally:
                if len(opened) < self._size:  # refused or cancelled part-way
                    for client in opened:
                        await client.close()
            self._clients = opened
            for client in opened:
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
        """:meth:`request`, with the response body parsed as a JSON object
        whose ``proto``, when it has one, must be ours."""
        status, _, raw = await self.request(method, path, body, headers)
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            raise MalformedResponseError(self.source, str(exc)) from exc
        if not isinstance(payload, dict):
            raise MalformedResponseError(self.source, "not a JSON object")
        check_protocol_version(payload.get("proto"), self.source)
        return status, payload

    async def request(
        self,
        method: str,
        path: str,
        body: Optional[object] = None,
        headers: Optional[Mapping[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One request on the next free connection (reconnecting a broken
        one once); returns ``(status, headers, body)``."""
        if not self._clients:
            await self.connect()
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
        except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
            raise ClientConnectionError(f"{self.source}{path}: {exc}") from exc
        finally:
            self._free.put_nowait(client)

    async def query(self, request: dict) -> Tuple[int, dict]:
        """``POST /query`` on the next free connection, asking for the
        ranking packed; the payload's ``"top"`` is the same ``[[node, score],
        ...]`` lists as the JSON form's (an older server's passes through)."""
        status, payload = await self.request_json(
            "POST", "/query", {**request, "packed": True}
        )
        if "top_packed" in payload:
            try:
                payload["top"] = unpack_top(payload.pop("top_packed"))
            except (ValueError, TypeError) as exc:
                detail = f"top_packed: {exc}"
                raise MalformedResponseError(self.source, detail) from exc
        return status, payload

    async def relay_query(
        self, body: bytes, traceparent: Optional[str] = None
    ) -> Tuple[int, bytes]:
        """``POST /query`` with ``body`` sent as it is; returns the server's
        ``(status, body)`` unparsed.

        The replica router's form: the replica validates the client's bytes
        and encodes the answer, the router only moves both.  The protocol
        version comes from the ``X-Repro-Proto`` response header and is
        *required* — a replica that does not stamp it is itself a skew.
        """
        headers = {"traceparent": traceparent} if traceparent else None
        status, response_headers, raw = await self.request(
            "POST", "/query", body, headers
        )
        proto = response_headers.get("x-repro-proto")
        check_protocol_version(
            int(proto) if proto is not None and proto.isdecimal() else proto,
            self.source,
            required=True,
        )
        return status, raw


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover - CLI
    """Command-line entry point: serve a dataset over HTTP until drained."""
    # Keep clear of the TCP default (7071).
    return serve_main(HttpQueryServer, "http", 7080, __doc__, argv)


if __name__ == "__main__":  # pragma: no cover - exercised via CLI only
    raise SystemExit(main())
