"""The JSON-lines TCP front door: a line codec on the shared shell.

One request per line, one JSON answer per line.  A request carries an
``op`` — ``"ping"`` or a shared op (:data:`~repro.serving.frontend.ops.OPS`:
``stats``, ``drain``, ``reload`` with its overrides under ``config``,
``update`` with its ``ops``, ``traces``) — or describes a PPR query::

    {"id": 7, "seed": 42, "k": 100, "alpha": 0.85, "length": 6,
     "timeout_ms": 250, "trace": "00-<32 hex>-<16 hex>-01"}

``trace`` (optional) is a W3C ``traceparent``: with a tracer configured, a
sampled-flagged value forces a span tree under that trace id, echoed back as
``trace_id``.  ``id`` is echoed so clients can pipeline; a refusal is an
answer, not a dropped connection::

    {"id": 7, "ok": true,  "top": [[12, 0.31], ...], "latency_ms": 3.1}
    {"id": 8, "ok": false, "error": "shed", "message": "..."}        # overload
    {"id": 9, "ok": false, "error": "deadline", "message": "..."}    # too slow
    {"id": 0, "ok": false, "error": "bad_request", "message": "..."}

The listener, the connections and the drain are the shell's
(:class:`~repro.serving.frontend.shell.FrontDoor`).  A connection's lines
are answered concurrently (a task per line), so pipelined queries coalesce
in the shared :class:`~repro.serving.frontend.batcher.MicroBatcher`.  Run::

    PYTHONPATH=src python -m repro.serving.frontend.server \
        --dataset G1 --port 7071 --backend thread:4 --max-batch 8
"""

from __future__ import annotations

import asyncio
import json
from typing import List, Optional, Set, Union

from repro.serving.frontend.batcher import MicroBatcher
from repro.serving.frontend.ops import (
    OPS,
    answer_query,
    parse_query_request,
    refusal,
)
from repro.serving.frontend.protocol import PROTOCOL_VERSION
from repro.serving.frontend.shell import (
    FrontDoor,
    install_drain_signal_handler,
    serve_main,
    write_ready_file,
)

__all__ = [
    "AsyncQueryServer",
    "install_drain_signal_handler",
    "write_ready_file",
    "main",
]


class AsyncQueryServer(FrontDoor):
    """Serve a :class:`MicroBatcher` over TCP with a JSON-lines protocol.

    Parameters
    ----------
    batcher:
        The started (or about-to-be-started) micro-batcher answering queries.
    host, port:
        Bind address; port 0 picks a free port (read it from :meth:`start`'s
        return value).
    max_pipelined:
        Bound on in-flight requests *per connection*.  Past it, the codec
        stops reading lines until answers flush, so a client that pipelines
        without reading exerts TCP backpressure instead of growing the
        server's tasks and buffers (admission bounds engine work, this
        bounds connection memory).
    """

    def __init__(
        self,
        batcher: MicroBatcher,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pipelined: int = 128,
    ) -> None:
        if max_pipelined <= 0:
            raise ValueError(f"max_pipelined must be > 0, got {max_pipelined}")
        super().__init__(host, port)
        self._batcher = batcher
        self._max_pipelined = max_pipelined

    @property
    def batcher(self) -> MicroBatcher:
        """The micro-batcher answering this server's queries."""
        return self._batcher

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        slots = asyncio.Semaphore(self._max_pipelined)
        tasks: Set["asyncio.Task[None]"] = set()
        loop = asyncio.get_running_loop()

        async def send(response: Union[dict, bytes]) -> None:
            # Every wire response advertises the protocol version, so a
            # client from a different release fails loudly instead of
            # mis-parsing (an encoded query answer already carries it).
            if isinstance(response, dict):
                response.setdefault("proto", PROTOCOL_VERSION)
                response = json.dumps(response).encode("utf-8")
            async with write_lock:
                try:
                    writer.write(response + b"\n")
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass  # client went away; nothing to deliver the answer to

        async def handle(line: bytes, received: float) -> None:
            try:
                await send(await self._answer(line, received))
            finally:
                slots.release()

        try:
            while True:
                await slots.acquire()  # backpressure: max_pipelined in flight
                try:
                    line = await reader.readline()
                except ValueError:
                    # The line overran the stream limit and the stream cannot
                    # be resynchronised: answer, then end the connection.
                    oversized = "request line exceeds the stream limit"
                    await send(refusal(None, oversized))
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break  # the client closed, or drain() ended the input
                # The latency clock starts at line receipt: parsing is part
                # of what the client observes.  A task per line, so queries
                # across lines (and clients) overlap in the micro-batcher.
                task = asyncio.ensure_future(handle(line, loop.time()))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)

    async def _answer(self, line: bytes, received: float) -> Union[dict, bytes]:
        request_id = None
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            request_id = request.get("id")
            op = request.get("op", "query")
            if op == "query":
                query, timeout_ms, packed = parse_query_request(
                    request, self._batcher.engine.solver.graph.num_nodes
                )
            elif op == "ping":
                return {"id": request_id, "ok": True, "op": "ping"}
            elif op in OPS:
                # A reload carries its overrides under "config"; every other
                # op reads its fields from the request itself.
                args = request.get("config", {}) if op == "reload" else request
                payload = await OPS[op](self, args)
                return {"id": request_id, "ok": True, "op": op, **payload}
            else:
                raise ValueError(f"unknown op {op!r}")
        except (ValueError, TypeError, KeyError) as exc:
            return refusal(request_id, str(exc))
        trace = request.get("trace")
        return await answer_query(
            self._batcher, "tcp",
            trace if isinstance(trace, str) else None,
            request_id, query, timeout_ms, received, packed,
        )


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover - CLI
    """Command-line entry point: serve a dataset over TCP until drained."""
    return serve_main(AsyncQueryServer, "tcp", 7071, __doc__, argv)


if __name__ == "__main__":  # pragma: no cover - exercised via CLI only
    raise SystemExit(main())
