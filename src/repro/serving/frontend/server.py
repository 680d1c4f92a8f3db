"""A minimal asyncio TCP query service speaking newline-delimited JSON.

One request per line, one JSON object per response line.  Requests either
carry an ``op`` (``"ping"``, ``"stats"``, ``"traces"``) or describe a PPR
query::

    {"id": 7, "seed": 42, "k": 100, "alpha": 0.85, "length": 6,
     "timeout_ms": 250, "trace": "00-<32 hex>-<16 hex>-01"}

``trace`` (optional) carries a W3C-style ``traceparent``: with a tracer
configured (``--trace-sample``), a sampled-flagged value forces the query to
record a span tree under the supplied trace id (see
:mod:`repro.serving.tracing`), echoed back as ``trace_id`` on the response.

``id`` is echoed verbatim so clients can pipeline.  Query responses carry the
top-k scores; rejections are explicit protocol answers, not dropped
connections::

    {"id": 7, "ok": true,  "top": [[12, 0.31], ...], "latency_ms": 3.1}
    {"id": 8, "ok": false, "error": "shed", "message": "..."}        # overload
    {"id": 9, "ok": false, "error": "deadline", "message": "..."}    # too slow
    {"id": 0, "ok": false, "error": "bad_request", "message": "..."}

Each connection's requests are handled concurrently (a task per line), so
queries from one pipelining client — and from many clients — coalesce in the
shared :class:`~repro.serving.frontend.batcher.MicroBatcher`.

Run a server from the command line (spec strings via
:func:`~repro.serving.backends.make_backend`)::

    PYTHONPATH=src python -m repro.serving.frontend.server \
        --dataset G1 --port 7071 --backend thread:4 --max-batch 8
"""

from __future__ import annotations

import argparse
import asyncio
import json
from typing import TYPE_CHECKING, List, Optional, Set, Tuple, Union

from repro.ppr.base import PPRQuery
from repro.serving.frontend.batcher import MicroBatcher
from repro.serving.frontend.config import ServingConfig, build_serving_parser
from repro.serving.frontend.config import build_frontend as _build_frontend
from repro.serving.frontend.ops import answer_query, apply_graph_update, apply_reload
from repro.serving.frontend.protocol import (
    CAPABILITIES,
    PROTOCOL_VERSION,
)
from repro.utils.validation import check_node_id

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.serving.frontend.recorder import WorkloadRecorder

__all__ = [
    "AsyncQueryServer",
    "parse_query_request",
    "write_ready_file",
    "main",
]


def _require_int(value: object, name: str) -> int:
    """A strict JSON-integer check (booleans and floats are bad requests)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _require_number(value: object, name: str) -> float:
    """A strict JSON-number check (booleans are bad requests)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    return value


def parse_query_request(
    request: dict, num_nodes: int
) -> Tuple[PPRQuery, Optional[float]]:
    """Validate a query-request dict; returns ``(query, timeout_ms)``.

    Shared by the TCP and HTTP front doors so both transports enforce the
    *same* protocol: integer fields are validated strictly — ``42.9`` is a
    bad request, not a silent truncation to seed 42, and JSON booleans are
    rejected (``check_node_id`` would refuse them anyway; ``_require_int``
    keeps ``k``/``length`` to the same standard).  Bad fields raise
    ``ValueError`` and must never poison a batch.
    """
    if not isinstance(request, dict):
        raise ValueError("request must be a JSON object")
    if "seed" not in request:
        raise ValueError("query request must carry a 'seed'")
    seed = check_node_id(
        _require_int(request["seed"], "seed"), num_nodes, "seed"
    )
    query = PPRQuery(
        seed=seed,
        k=_require_int(request.get("k", 200), "k"),
        alpha=float(_require_number(request.get("alpha", 0.85), "alpha")),
        length=_require_int(request.get("length", 6), "length"),
    )
    timeout_ms = request.get("timeout_ms")
    if timeout_ms is not None:
        timeout_ms = float(_require_number(timeout_ms, "timeout_ms"))
        if timeout_ms <= 0:
            raise ValueError(f"timeout_ms must be > 0, got {timeout_ms}")
    return query, timeout_ms


class AsyncQueryServer:
    """Serve a :class:`MicroBatcher` over TCP with a JSON-lines protocol.

    Parameters
    ----------
    batcher:
        The started (or about-to-be-started) micro-batcher answering queries.
    host, port:
        Bind address; port 0 picks a free port (read it from :meth:`start`'s
        return value).
    max_pipelined:
        Bound on in-flight requests *per connection*.  Past it, the read
        loop stops consuming lines until responses flush — so a client that
        pipelines without reading its socket exerts TCP backpressure instead
        of growing the server's task set and response buffers without limit
        (admission control bounds engine work, this bounds connection
        memory).
    """

    def __init__(
        self,
        batcher: MicroBatcher,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pipelined: int = 128,
        recorder: Optional["WorkloadRecorder"] = None,
    ) -> None:
        if max_pipelined <= 0:
            raise ValueError(f"max_pipelined must be > 0, got {max_pipelined}")
        self._batcher = batcher
        self._host = host
        self._port = port
        self._max_pipelined = max_pipelined
        self._recorder = recorder
        self._server: Optional[asyncio.AbstractServer] = None
        self._drain_event: Optional[asyncio.Event] = None
        self._conn_tasks: Set["asyncio.Task[None]"] = set()

    @property
    def batcher(self) -> MicroBatcher:
        """The micro-batcher answering this server's queries."""
        return self._batcher

    @property
    def draining(self) -> bool:
        """Whether :meth:`drain` has begun (no new work is accepted)."""
        return self._drain_event is not None and self._drain_event.is_set()

    @property
    def recorder(self) -> Optional["WorkloadRecorder"]:
        """The workload recorder capturing query requests (``None`` = off)."""
        return self._recorder

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
        self._drain_event = asyncio.Event()
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

        The drain contract — the reason this is safe to wire to ``SIGTERM``
        — is that **no admitted query is ever dropped**:

        1. the listener closes (new connections are refused),
        2. every open connection stops consuming request lines,
        3. every request already received is answered and flushed,
        4. the connections close and :meth:`drain` returns.

        Idempotent and re-entrant: concurrent callers all wait for the same
        completion.  The batcher is *not* stopped here (the caller owns it,
        and may serve the same batcher over several transports); stop it
        after every transport has drained.
        """
        if self._drain_event is None:
            return  # never started: nothing in flight by construction
        self._drain_event.set()
        await self.stop()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)

    async def serve_forever(self) -> None:
        """Block serving until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def __aenter__(self) -> "AsyncQueryServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, traceback) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        slots = asyncio.Semaphore(self._max_pipelined)
        tasks: Set["asyncio.Task[None]"] = set()
        conn_task = asyncio.current_task()
        if conn_task is not None:
            self._conn_tasks.add(conn_task)
        assert self._drain_event is not None
        drain_wait = asyncio.ensure_future(self._drain_event.wait())

        def release_slot(task: "asyncio.Task[None]") -> None:
            tasks.discard(task)
            slots.release()

        try:
            while True:
                # Backpressure: with max_pipelined responses in flight (e.g.
                # a client writing but never reading its socket), stop
                # consuming lines until a slot frees.
                await slots.acquire()
                if drain_wait.done():
                    # Draining: stop consuming request lines.  Requests
                    # already dispatched finish (and flush) in ``finally``.
                    slots.release()
                    break
                read = asyncio.ensure_future(reader.readline())
                await asyncio.wait(
                    {read, drain_wait}, return_when=asyncio.FIRST_COMPLETED
                )
                if not read.done():
                    # Drain began while blocked on the socket: abandon the
                    # read (the connection is closing anyway) and wind down.
                    read.cancel()
                    try:
                        await read
                    except (asyncio.CancelledError, ValueError, OSError):
                        pass
                    slots.release()
                    break
                try:
                    line = read.result()
                except ValueError:
                    # The line overran the stream's buffer limit; the stream
                    # cannot be resynchronised, so answer explicitly and end
                    # the connection (after the drain in ``finally`` flushes
                    # any earlier pipelined responses).
                    slots.release()
                    await self._write_response(
                        writer,
                        write_lock,
                        {
                            "id": None,
                            "ok": False,
                            "error": "bad_request",
                            "message": "request line exceeds the stream limit",
                        },
                    )
                    break
                if not line:
                    slots.release()
                    break
                # The latency clock starts *here*, at line receipt: parse and
                # validation time is part of what the client observes, so it
                # must be part of what the server reports.
                received = asyncio.get_running_loop().time()
                # A task per request: queries across lines (and clients)
                # overlap, which is what feeds the micro-batcher.
                task = asyncio.ensure_future(
                    self._handle_line(line, received, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(release_slot)
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            if not drain_wait.done():
                drain_wait.cancel()
                try:
                    await drain_wait
                except asyncio.CancelledError:
                    pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            if conn_task is not None:
                self._conn_tasks.discard(conn_task)

    async def _handle_line(
        self,
        line: bytes,
        received: float,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        await self._write_response(
            writer, write_lock, await self._answer(line, received)
        )

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        response: Union[dict, bytes],
    ) -> None:
        # Every wire response advertises the protocol version, so a client
        # from a different release fails loudly instead of mis-parsing (an
        # encoded query answer already carries it).
        if isinstance(response, dict):
            response.setdefault("proto", PROTOCOL_VERSION)
            response = json.dumps(response).encode("utf-8")
        payload = response + b"\n"
        async with write_lock:
            try:
                writer.write(payload)
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; nothing to deliver the answer to

    async def _answer(
        self, line: bytes, received: Optional[float] = None
    ) -> Union[dict, bytes]:
        loop = asyncio.get_running_loop()
        if received is None:
            received = loop.time()
        request_id = None
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            request_id = request.get("id")
            op = request.get("op", "query")
            if op == "ping":
                return {"id": request_id, "ok": True, "op": "ping"}
            if op == "stats":
                return {
                    "id": request_id,
                    "ok": True,
                    "op": "stats",
                    "stats": self._batcher.stats().as_dict(),
                }
            if op == "drain":
                # Acknowledge first, drain as a background task: drain()
                # waits for every connection handler — including the one
                # carrying this very request — so awaiting it here would
                # deadlock.
                asyncio.ensure_future(self.drain())
                return {
                    "id": request_id,
                    "ok": True,
                    "op": "drain",
                    "draining": True,
                }
            if op == "reload":
                outcome = apply_reload(
                    self._batcher, request.get("config", {})
                )
                return {"id": request_id, "ok": True, "op": "reload", **outcome}
            if op == "update":
                # The writer barrier blocks until in-flight batches finish —
                # run it off the event loop, or it would deadlock against
                # the very batch the loop is completing.
                outcome = await loop.run_in_executor(
                    None,
                    apply_graph_update,
                    self._batcher,
                    request.get("ops", []),
                )
                return {"id": request_id, "ok": True, "op": "update", **outcome}
            if op == "traces":
                tracer = self._batcher.engine.tracer
                if tracer is None:
                    raise ValueError(
                        "tracing is disabled; start the server with "
                        "--trace-sample > 0"
                    )
                return {
                    "id": request_id,
                    "ok": True,
                    "op": "traces",
                    "stats": tracer.stats().as_dict(),
                    "traces": tracer.traces(),
                }
            if op != "query":
                raise ValueError(f"unknown op {op!r}")
            query, timeout_ms = parse_query_request(
                request, self._batcher.engine.solver.graph.num_nodes
            )
            traceparent = request.get("trace")
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
            "tcp",
            traceparent if isinstance(traceparent, str) else None,
            request_id,
            query,
            timeout_ms,
            received,
        )


def build_parser() -> argparse.ArgumentParser:
    """The server CLI's argument parser (the shared serving flag surface).

    Both transports' CLIs — and :class:`~repro.serving.replica.ReplicaSet`,
    which spawns them — share one flag set, installed by
    :func:`repro.serving.frontend.config.add_serving_arguments`.
    """
    return build_serving_parser(__doc__, default_port=7071)


def build_frontend(args):
    """Construct the (engine, policy, admission) triple the CLI serves.

    Thin adapter kept for callers holding a parsed ``argparse.Namespace``
    (tests, studies); the assembly itself lives in
    :func:`repro.serving.frontend.config.build_frontend`, shared with the
    HTTP CLI and the replica supervisor.  Accepts a :class:`ServingConfig`
    directly too.
    """
    if not isinstance(args, ServingConfig):
        args = ServingConfig.from_args(args)
    return _build_frontend(args)


def write_ready_file(path: str, host: str, port: int, **extra: object) -> None:
    """Atomically publish a server's readiness record.

    The record carries the bound address, pid, protocol version and
    capabilities; the replica supervisor polls for it instead of parsing
    the child's stdout.  Written to a temp name then ``os.replace``d so a
    reader can never observe a half-written JSON document.
    """
    import os

    record = {
        "host": host,
        "port": port,
        "pid": os.getpid(),
        "proto": PROTOCOL_VERSION,
        "capabilities": list(CAPABILITIES),
        **extra,
    }
    tmp_path = f"{path}.tmp.{os.getpid()}"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    os.replace(tmp_path, path)


def install_drain_signal_handler(server) -> None:
    """Wire ``SIGTERM`` to a graceful drain of ``server`` (best effort).

    On platforms without ``add_signal_handler`` (Windows event loops) this
    is a no-op — operators there use the protocol-level drain instead
    (``{"op": "drain"}`` over TCP, ``POST /admin/drain`` over HTTP).
    """
    import signal

    loop = asyncio.get_running_loop()

    def trigger() -> None:
        print("SIGTERM: draining (in-flight queries will complete)")
        asyncio.ensure_future(server.drain())

    try:
        loop.add_signal_handler(signal.SIGTERM, trigger)
    except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX
        pass


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover - blocks serving
    """Command-line entry point: serve a dataset until drained/interrupted."""
    from repro.serving.frontend.recorder import WorkloadRecorder
    from repro.serving.frontend.request_log import configure_logging

    args = build_parser().parse_args(argv)
    configure_logging(args.log_level, json_mode=args.log_json)
    engine, policy, admission = build_frontend(args)
    recorder = WorkloadRecorder() if args.record else None

    async def serve() -> None:
        async with MicroBatcher(engine, policy, admission) as batcher:
            server = AsyncQueryServer(
                batcher, args.host, args.port, recorder=recorder
            )
            host, port = await server.start()
            if getattr(args, "ready_file", None):
                write_ready_file(
                    args.ready_file,
                    host,
                    port,
                    transport="tcp",
                    dataset=args.dataset,
                    num_shards=args.num_shards,
                )
            install_drain_signal_handler(server)
            print(
                f"serving {engine.solver.graph.name} on {host}:{port} "
                f"(backend {engine.backend.name}, policy {policy.label}, "
                f"max_pending {admission.max_pending})"
            )
            try:
                # Ends via CancelledError when a drain (SIGTERM or the
                # protocol op) closes the listener.
                await server.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                # Idempotent: completes any in-flight queries on every exit
                # path before the batcher shuts down.
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
