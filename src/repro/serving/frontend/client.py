"""The TCP door's client: pipelined JSON lines on one connection.

:class:`TcpQueryClient` is the client of
:class:`~repro.serving.frontend.server.AsyncQueryServer` and goes with it.
HTTP has its own client, :class:`~repro.serving.frontend.http.HttpClientPool`;
the two share no base class, only the failure taxonomy of
:mod:`repro.serving.frontend.protocol`:

* a transport failure (connection refused, the peer closing mid-response, a
  write on a closed client) raises
  :class:`~repro.serving.frontend.protocol.ClientConnectionError`;
* a response stamped with another protocol version raises
  :class:`~repro.serving.frontend.protocol.ProtocolMismatchError` (an
  absent ``proto`` is tolerated);
* a refusal is an *answer*: :meth:`TcpQueryClient.query` returns it, and
  :meth:`TcpQueryClient.solve` raises it as the in-process frontend would
  (:func:`~repro.serving.frontend.protocol.raise_for_response`).

Neither client retries (the pool only replaces a stale connection once):
retries and failover belong to the replica router.
"""

from __future__ import annotations

import asyncio
import itertools
import json
from typing import Dict, List, Optional, Tuple

from repro.serving.frontend.protocol import (
    ClientConnectionError,
    ProtocolMismatchError,
    check_protocol_version,
    raise_for_response,
)

__all__ = ["TcpQueryClient"]


class TcpQueryClient:
    """The pipelining JSON-lines client; create via :meth:`connect`.

    Example
    -------
    ::

        async with await TcpQueryClient.connect(host, port) as client:
            top = await client.solve(seed=42, k=100)
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        source: str,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._source = source
        self._ids = itertools.count(1)
        self._pending: Dict[int, "asyncio.Future[dict]"] = {}
        self._reader_task = asyncio.ensure_future(self._read_responses())

    @classmethod
    async def connect(cls, host: str, port: int) -> "TcpQueryClient":
        """Open a connection to a running server."""
        source = f"tcp://{host}:{port}"
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError as exc:
            raise ClientConnectionError(
                f"cannot connect to {source}: {exc}"
            ) from exc
        return cls(reader, writer, source)

    async def __aenter__(self) -> "TcpQueryClient":
        return self

    async def __aexit__(self, exc_type, exc, traceback) -> None:
        await self.close()

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
                    check_protocol_version(response.get("proto"), self._source)
                except ProtocolMismatchError as exc:
                    future.set_exception(exc)
                else:
                    future.set_result(response)
        except (OSError, json.JSONDecodeError):
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
        except OSError as exc:
            self._pending.pop(request_id, None)
            raise ClientConnectionError(str(exc)) from exc
        return await future

    async def query(
        self,
        seed: int,
        k: int = 200,
        alpha: float = 0.85,
        length: int = 6,
        timeout_ms: Optional[float] = None,
        traceparent: Optional[str] = None,
    ) -> dict:
        """Issue a PPR query; returns the response dict (check ``ok``)."""
        request: dict = {
            "op": "query", "seed": seed, "k": k, "alpha": alpha, "length": length
        }
        if timeout_ms is not None:
            request["timeout_ms"] = timeout_ms
        if traceparent is not None:
            request["trace"] = traceparent
        return await self.request(request)

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

    async def ping(self) -> bool:
        response = await self.request({"op": "ping"})
        return bool(response.get("ok"))

    async def stats(self) -> dict:
        return raise_for_response(await self.request({"op": "stats"}))["stats"]

    async def drain(self) -> dict:
        return raise_for_response(await self.request({"op": "drain"}))

    async def traces(self) -> dict:
        response = raise_for_response(await self.request({"op": "traces"}))
        return {"stats": response["stats"], "traces": response["traces"]}

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
        except OSError:
            pass
