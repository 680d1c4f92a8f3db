"""The unified query-client API over both front-door transports.

Everything that drives a server — tests, benchmarks, the studies and the
replica router — consumes **one interface** instead of a transport, so this
module defines it:

* :class:`QueryClient` — the ABC: ``query`` / ``query_batch`` / ``solve`` /
  ``ping`` / ``stats`` / ``drain`` / ``traces`` / ``close``, with shared
  timeout and retry semantics (transport failures raise
  :class:`ClientConnectionError`; ``retries=`` adds bounded
  reconnect-with-backoff around each query).
* :class:`TcpQueryClient` — the pipelining JSON-lines implementation.
* :class:`HttpQueryClient` — the HTTP/1.1 implementation on a fixed-size
  keep-alive connection pool (wrapping the low-level
  :class:`~repro.serving.frontend.http.HttpClientPool`).
* :func:`connect_client` — transport-by-name factory, so callers can hold a
  ``("tcp"|"http", host, port)`` triple and never import a transport module.

Both implementations raise the *same* typed errors the in-process frontend
uses — :class:`~repro.serving.frontend.admission.QueryShedError`,
:class:`~repro.serving.frontend.admission.DeadlineExceededError`,
:class:`ServerError` — and both validate the server's advertised protocol
version (:mod:`repro.serving.frontend.protocol`), so a mixed-version fleet
fails with :class:`~repro.serving.frontend.protocol.ProtocolMismatchError`
instead of mis-parsing.
"""

from __future__ import annotations

import abc
import asyncio
import itertools
import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serving.frontend.admission import (
    DeadlineExceededError,
    QueryShedError,
)
from repro.serving.frontend.protocol import (
    PROTOCOL_VERSION,
    ProtocolMismatchError,
    check_protocol_version,
)

__all__ = [
    "ServerError",
    "ClientConnectionError",
    "QueryClient",
    "TcpQueryClient",
    "HttpQueryClient",
    "connect_client",
    "raise_for_response",
]


class ServerError(RuntimeError):
    """The server answered ``ok: false`` with a non-rejection error."""

    def __init__(self, error: str, message: str) -> None:
        super().__init__(f"{error}: {message}")
        self.error = error
        self.message = message


class ClientConnectionError(ConnectionError):
    """The transport failed before a complete response arrived.

    Raised uniformly for connection refusal, a peer closing mid-response,
    and writes on a closed client — the three failure shapes a replica
    router must treat identically (the query may safely be retried
    elsewhere: queries are pure reads).  Subclasses :class:`ConnectionError`
    so pre-unification ``except ConnectionError`` call sites keep working.
    """


def raise_for_response(response: dict) -> dict:
    """Map a protocol response onto the frontend's typed errors.

    Returns the response unchanged when ``ok`` is true; otherwise raises the
    same exception the in-process frontend would have raised, so code can
    move between in-process, TCP and HTTP serving without relearning the
    failure taxonomy.
    """
    if response.get("ok"):
        return response
    error = response.get("error", "unknown")
    message = response.get("message", "")
    if error == "shed":
        raise QueryShedError(message=message or "query shed by server")
    if error == "deadline":
        raise DeadlineExceededError(message)
    raise ServerError(error, message)


class QueryClient(abc.ABC):
    """One client interface over any front-door transport.

    Parameters
    ----------
    retries:
        Transport-failure retries per :meth:`query` call (0 = fail fast).
        Each retry reconnects and backs off exponentially from
        ``retry_backoff_ms``.  Protocol rejections (shed, deadline, bad
        request) are *answers*, never retried.
    retry_backoff_ms:
        First-retry backoff; doubles per subsequent retry.
    """

    #: Transport name ("tcp" or "http"); implementations override.
    transport = "?"

    def __init__(self, retries: int = 0, retry_backoff_ms: float = 50.0) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if retry_backoff_ms < 0:
            raise ValueError(
                f"retry_backoff_ms must be >= 0, got {retry_backoff_ms}"
            )
        self._retries = retries
        self._retry_backoff_ms = retry_backoff_ms

    # -- the transport-specific core ----------------------------------
    @abc.abstractmethod
    async def _query_once(
        self, payload: dict, traceparent: Optional[str]
    ) -> dict:
        """Send one query payload; returns the raw response dict."""

    @abc.abstractmethod
    async def _reconnect(self) -> None:
        """Re-establish the transport after a failure (best effort)."""

    @abc.abstractmethod
    async def ping(self) -> bool:
        """Round-trip health check."""

    @abc.abstractmethod
    async def stats(self) -> dict:
        """Fetch the server's frontend stats document."""

    @abc.abstractmethod
    async def drain(self) -> dict:
        """Ask the server to begin a graceful drain; returns its ack."""

    @abc.abstractmethod
    async def traces(self) -> dict:
        """Fetch the server's finished span trees (tracing must be on)."""

    @abc.abstractmethod
    async def close(self) -> None:
        """Close the transport and fail any unanswered requests."""

    # -- the shared surface -------------------------------------------
    @staticmethod
    def build_query_payload(
        seed: int,
        k: int = 200,
        alpha: float = 0.85,
        length: int = 6,
        timeout_ms: Optional[float] = None,
    ) -> dict:
        """The wire-format query object shared by both transports."""
        payload: dict = {"seed": seed, "k": k, "alpha": alpha, "length": length}
        if timeout_ms is not None:
            payload["timeout_ms"] = timeout_ms
        return payload

    async def query(
        self,
        seed: int,
        k: int = 200,
        alpha: float = 0.85,
        length: int = 6,
        timeout_ms: Optional[float] = None,
        traceparent: Optional[str] = None,
    ) -> dict:
        """Issue a PPR query; returns the raw response dict (check ``ok``).

        Transport failures raise :class:`ClientConnectionError` after the
        configured retries; the server's protocol rejections come back as
        response dicts (use :meth:`solve` for typed exceptions).
        """
        payload = self.build_query_payload(seed, k, alpha, length, timeout_ms)
        return await self.request_query(payload, traceparent=traceparent)

    async def request_query(
        self, payload: dict, traceparent: Optional[str] = None
    ) -> dict:
        """Send a pre-built query payload with the shared retry semantics."""
        return await self._with_retries(self._query_once, payload, traceparent)

    async def _with_retries(self, once, *args):
        """``await once(*args)``, reconnecting and backing off between
        transport failures until the retry budget is spent."""
        attempt = 0
        while True:
            try:
                return await once(*args)
            except ClientConnectionError:
                if attempt >= self._retries:
                    raise
            backoff_s = self._retry_backoff_ms * (2.0**attempt) / 1e3
            attempt += 1
            if backoff_s > 0:
                await asyncio.sleep(backoff_s)
            try:
                await self._reconnect()
            except ClientConnectionError:
                # The server may still be down mid-outage; a failed
                # reconnect consumes this attempt (the next try fails
                # fast on the closed transport) instead of aborting the
                # whole retry budget.
                continue

    async def query_batch(
        self, requests: Sequence[dict], traceparent: Optional[str] = None
    ) -> List[dict]:
        """Issue many queries concurrently; responses in request order.

        Each element of ``requests`` is a query payload dict (see
        :meth:`build_query_payload`).  The TCP transport pipelines them on
        one connection; the HTTP transport fans them across its pool — the
        caller sees the same contract either way.
        """
        return list(
            await asyncio.gather(
                *(
                    self.request_query(dict(request), traceparent=traceparent)
                    for request in requests
                )
            )
        )

    async def solve(
        self,
        seed: int,
        k: int = 200,
        alpha: float = 0.85,
        length: int = 6,
        timeout_ms: Optional[float] = None,
    ) -> List[Tuple[int, float]]:
        """Issue a query and return its top-k pairs, raising on rejection."""
        response = raise_for_response(
            await self.query(seed, k, alpha, length, timeout_ms)
        )
        return [(int(node), float(score)) for node, score in response["top"]]

    @staticmethod
    def _check_response_proto(response: dict, source: str) -> dict:
        """Fail loudly when the peer advertises a different protocol."""
        check_protocol_version(response.get("proto"), source)
        return response

    async def __aenter__(self) -> "QueryClient":
        return self

    async def __aexit__(self, exc_type, exc, traceback) -> None:
        await self.close()


class TcpQueryClient(QueryClient):
    """The pipelining JSON-lines client; create via :meth:`connect`.

    Example
    -------
    ::

        client = await TcpQueryClient.connect(host, port)
        try:
            top = await client.solve(seed=42, k=100)
        finally:
            await client.close()
    """

    transport = "tcp"

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        host: Optional[str] = None,
        port: Optional[int] = None,
        retries: int = 0,
        retry_backoff_ms: float = 50.0,
    ) -> None:
        super().__init__(retries=retries, retry_backoff_ms=retry_backoff_ms)
        self._host = host
        self._port = port
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._pending: Dict[int, "asyncio.Future[dict]"] = {}
        self._reader_task = asyncio.ensure_future(self._read_responses())

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        retries: int = 0,
        retry_backoff_ms: float = 50.0,
    ) -> "TcpQueryClient":
        """Open a connection to a running server."""
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except (ConnectionError, OSError) as exc:
            raise ClientConnectionError(
                f"cannot connect to tcp://{host}:{port}: {exc}"
            ) from exc
        return cls(
            reader,
            writer,
            host=host,
            port=port,
            retries=retries,
            retry_backoff_ms=retry_backoff_ms,
        )

    # ------------------------------------------------------------------
    async def _read_responses(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                response = json.loads(line)
                future = self._pending.pop(response.get("id"), None)
                if future is None or future.done():
                    continue
                try:
                    self._check_response_proto(
                        response, f"tcp://{self._host}:{self._port}"
                    )
                except ProtocolMismatchError as exc:
                    future.set_exception(exc)
                else:
                    future.set_result(response)
        except (ConnectionError, OSError, json.JSONDecodeError):
            pass
        finally:
            self._fail_pending(
                ClientConnectionError("server closed the connection")
            )

    def _fail_pending(self, exc: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    async def _reconnect(self) -> None:
        if self._host is None or self._port is None:
            raise ClientConnectionError(
                "cannot reconnect: client was built from raw streams "
                "(use TcpQueryClient.connect for retry support)"
            )
        await self.close()
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self._host, self._port
            )
        except (ConnectionError, OSError) as exc:
            raise ClientConnectionError(
                f"cannot reconnect to tcp://{self._host}:{self._port}: {exc}"
            ) from exc
        self._reader_task = asyncio.ensure_future(self._read_responses())

    # ------------------------------------------------------------------
    async def request(self, payload: dict) -> dict:
        """Send one request object and await its matching response."""
        if self._writer.is_closing():
            raise ClientConnectionError("client is closed")
        request_id = next(self._ids)
        payload = dict(payload, id=request_id)
        future: "asyncio.Future[dict]" = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            self._writer.write(json.dumps(payload).encode("utf-8") + b"\n")
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._pending.pop(request_id, None)
            raise ClientConnectionError(str(exc)) from exc
        return await future

    async def _query_once(
        self, payload: dict, traceparent: Optional[str]
    ) -> dict:
        request = dict(payload, op="query")
        if traceparent is not None:
            request["trace"] = traceparent
        return await self.request(request)

    async def ping(self) -> bool:
        response = await self.request({"op": "ping"})
        return bool(response.get("ok"))

    async def stats(self) -> dict:
        response = await self.request({"op": "stats"})
        raise_for_response(response)
        return response["stats"]

    async def drain(self) -> dict:
        return raise_for_response(await self.request({"op": "drain"}))

    async def traces(self) -> dict:
        response = raise_for_response(await self.request({"op": "traces"}))
        return {"stats": response["stats"], "traces": response["traces"]}

    # ------------------------------------------------------------------
    async def close(self) -> None:
        """Close the connection and fail any unanswered requests."""
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._fail_pending(ClientConnectionError("client closed"))
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class HttpQueryClient(QueryClient):
    """The HTTP/1.1 implementation on a fixed-size keep-alive pool.

    The HTTP server answers one request at a time per connection, so batch
    concurrency comes from the pool (``pool_size`` connections), exactly as
    production HTTP load arrives.  Create via :meth:`connect`.
    """

    transport = "http"

    def __init__(
        self,
        host: str,
        port: int,
        pool_size: int = 8,
        retries: int = 0,
        retry_backoff_ms: float = 50.0,
    ) -> None:
        super().__init__(retries=retries, retry_backoff_ms=retry_backoff_ms)
        # Imported here: http.py imports nothing from this module, but the
        # local import keeps the layering one-directional if that changes.
        from repro.serving.frontend.http import HttpClientPool

        self._host = host
        self._port = port
        self._pool = HttpClientPool(host, port, size=pool_size)
        self._connected = False

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        pool_size: int = 8,
        retries: int = 0,
        retry_backoff_ms: float = 50.0,
    ) -> "HttpQueryClient":
        """Open the connection pool to a running server."""
        client = cls(
            host,
            port,
            pool_size=pool_size,
            retries=retries,
            retry_backoff_ms=retry_backoff_ms,
        )
        await client._ensure_connected()
        return client

    async def _ensure_connected(self) -> None:
        if not self._connected:
            try:
                await self._pool.connect()
            except (ConnectionError, OSError) as exc:
                raise ClientConnectionError(
                    f"cannot connect to http://{self._host}:{self._port}: {exc}"
                ) from exc
            self._connected = True

    async def _request(
        self,
        method: str,
        path: str,
        body: Optional[object] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        await self._ensure_connected()
        try:
            return await self._pool.request(method, path, body, headers=headers)
        except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
            raise ClientConnectionError(
                f"http://{self._host}:{self._port}{path}: {exc}"
            ) from exc

    async def _request_json(
        self,
        method: str,
        path: str,
        body: Optional[object] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, dict]:
        status, _, raw = await self._request(method, path, body, headers)
        payload = json.loads(raw)
        if isinstance(payload, dict):
            self._check_response_proto(
                payload, f"http://{self._host}:{self._port}"
            )
        return status, payload

    async def _query_once(
        self, payload: dict, traceparent: Optional[str]
    ) -> dict:
        headers = {"traceparent": traceparent} if traceparent else None
        _, response = await self._request_json(
            "POST", "/query", payload, headers=headers
        )
        return response

    async def relay_query(
        self, body: bytes, traceparent: Optional[str] = None
    ) -> Tuple[int, bytes]:
        """``POST /query`` with ``body`` sent as it is; returns the server's
        ``(status, body)`` unparsed, with the shared retry semantics.

        The replica router's form: the replica validates the client's bytes
        and encodes the answer, the router only moves both.  The protocol
        version comes from the ``X-Repro-Proto`` response header and is
        *required* — a replica that does not stamp it is itself a skew.
        """
        return await self._with_retries(self._relay_once, body, traceparent)

    async def _relay_once(
        self, body: bytes, traceparent: Optional[str]
    ) -> Tuple[int, bytes]:
        headers = {"traceparent": traceparent} if traceparent else None
        status, response_headers, raw = await self._request(
            "POST", "/query", body, headers
        )
        proto = response_headers.get("x-repro-proto")
        check_protocol_version(
            int(proto) if proto is not None and proto.isdigit() else proto,
            f"http://{self._host}:{self._port}",
            required=True,
        )
        return status, raw

    async def _reconnect(self) -> None:
        # The pool replaces broken connections per request; nothing to do
        # beyond ensuring it exists (covers retry-after-connect-failure).
        await self._ensure_connected()

    async def ping(self) -> bool:
        try:
            status, _ = await self._request_json("GET", "/healthz")
        except ClientConnectionError:
            return False
        return status == 200

    async def healthz(self) -> Tuple[int, dict]:
        """The raw ``/healthz`` answer: ``(status, payload)``.

        Unlike :meth:`ping` this propagates connection errors and hands
        the caller the payload, so supervisors can inspect the ``proto``
        field with their own strictness (the replica router *requires*
        it and quarantines mixed-version replicas).
        """
        return await self._request_json("GET", "/healthz")

    async def stats(self) -> dict:
        status, payload = await self._request_json("GET", "/stats")
        if status != 200:
            raise_for_response(payload)
        return payload

    async def drain(self) -> dict:
        _, payload = await self._request_json("POST", "/admin/drain")
        return raise_for_response(payload)

    async def traces(self) -> dict:
        status, payload = await self._request_json("GET", "/debug/traces")
        if status != 200:
            raise ServerError(
                str(payload.get("error", "unknown")),
                str(payload.get("message", "")),
            )
        return {"stats": payload["stats"], "traces": payload["traces"]}

    async def metrics_text(self) -> str:
        """The server's raw Prometheus exposition (HTTP transport only)."""
        status, _, body = await self._request("GET", "/metrics")
        if status != 200:
            raise ServerError("metrics", f"GET /metrics answered {status}")
        return body.decode("utf-8")

    async def close(self) -> None:
        if self._connected:
            await self._pool.close()
            self._connected = False


#: Transport name -> client class, for :func:`connect_client`.
_TRANSPORTS = {"tcp": TcpQueryClient, "http": HttpQueryClient}


async def connect_client(
    transport: str,
    host: str,
    port: int,
    retries: int = 0,
    retry_backoff_ms: float = 50.0,
    **kwargs: object,
) -> QueryClient:
    """Connect a :class:`QueryClient` by transport name (``tcp``/``http``).

    Extra keyword arguments go to the transport's ``connect`` (e.g.
    ``pool_size=`` for HTTP).
    """
    try:
        cls = _TRANSPORTS[transport]
    except KeyError:
        raise ValueError(
            f"unknown transport {transport!r}; expected one of "
            f"{sorted(_TRANSPORTS)}"
        ) from None
    return await cls.connect(
        host,
        port,
        retries=retries,
        retry_backoff_ms=retry_backoff_ms,
        **kwargs,
    )
