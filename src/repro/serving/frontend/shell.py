"""The shell both front doors extend: being a server, apart from any framing.

:class:`FrontDoor` owns the listener lifecycle (``start`` / ``stop`` /
``address`` / ``serve_forever`` / ``async with``), the registry of open
connections and the graceful drain.  A door subclasses it and implements
:meth:`FrontDoor._serve_connection`, its codec:
:class:`~repro.serving.frontend.http.BaseHttpServer` frames HTTP/1.1,
:class:`~repro.serving.frontend.server.AsyncQueryServer` frames JSON lines.
Both answer from one op table (:data:`repro.serving.frontend.ops.OPS`).

:func:`serve_main` is the one command-line entry point; each door's module
runs it with its class, transport name and default port.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
from typing import Dict, List, Optional, Tuple

from repro.serving.frontend.protocol import CAPABILITIES, PROTOCOL_VERSION

__all__ = [
    "FrontDoor", "install_drain_signal_handler", "serve_main", "write_ready_file"
]


class FrontDoor:
    """Listener lifecycle, connection registry and drain for one door."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        #: Each open connection's handler task -> its (reader, writer).
        self._conn_tasks: Dict["asyncio.Task[None]", tuple] = {}

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """The codec: answer one connection's requests until its reader
        reports EOF (the client closed, or :meth:`drain` ended its input)."""
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
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

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

        **No admitted request is ever dropped** — why this is safe to wire
        to ``SIGTERM``: the listener closes, every connection's input ends
        where it stands (:meth:`_end_input`), each connection answers every
        request it has already received and closes (an idle one at once),
        and :meth:`drain` returns when the last has.  Idempotent.  Whatever
        answers the requests (a batcher, a replica fleet) is *not* stopped:
        the caller owns it and stops it after every door has drained.
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

    async def __aenter__(self) -> "FrontDoor":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, traceback) -> None:
        await self.stop()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn_task = asyncio.current_task()
        assert conn_task is not None
        self._conn_tasks[conn_task] = (reader, writer)
        if self._draining:  # accepted while the listener was closing
            self._end_input(reader, writer)
        try:
            await self._serve_connection(reader, writer)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            del self._conn_tasks[conn_task]


def write_ready_file(path: str, host: str, port: int, **extra: object) -> None:
    """Atomically publish a server's readiness record.

    The record carries the bound address, pid, protocol version and
    capabilities; the replica supervisor polls for it instead of parsing
    the child's stdout.  Written to a temp name then ``os.replace``d so a
    reader can never observe a half-written JSON document.
    """
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


def install_drain_signal_handler(server: FrontDoor) -> None:
    """Wire ``SIGTERM`` to a graceful drain of ``server`` (best effort).

    On platforms without ``add_signal_handler`` (Windows event loops) this
    is a no-op — operators there use the protocol-level drain instead
    (``{"op": "drain"}`` over TCP, ``POST /admin/drain`` over HTTP).
    """
    loop = asyncio.get_running_loop()

    def trigger() -> None:
        print("SIGTERM: draining (in-flight queries will complete)")
        asyncio.ensure_future(server.drain())

    try:
        loop.add_signal_handler(signal.SIGTERM, trigger)
    except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX
        pass


def serve_main(
    door: type,
    transport: str,
    default_port: int,
    description: Optional[str],
    argv: Optional[List[str]] = None,
) -> int:  # pragma: no cover - runs in a subprocess (tests/test_serving_cli.py)
    """Serve a dataset over ``door`` — built as ``door(batcher, host, port,
    **options)`` — with the shared serving flags, until drained."""
    from repro.serving.frontend.batcher import MicroBatcher
    from repro.serving.frontend.config import (
        ServingConfig,
        build_frontend,
        build_serving_parser,
    )
    from repro.serving.frontend.request_log import configure_logging

    parser = build_serving_parser(description, default_port)
    args = parser.parse_args(argv)
    try:
        config = ServingConfig.from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    configure_logging(config.log_level, json_mode=config.log_json)
    engine, policy, admission = build_frontend(config)

    async def serve() -> None:
        async with MicroBatcher(engine, policy, admission) as batcher:
            options: Dict[str, object] = {}
            if transport == "http":
                # Static labels for the repro_server_info metric.
                options["info"] = {
                    "backend": engine.backend.name,
                    "dataset": engine.solver.graph.name,
                    "policy": policy.label,
                }
            server = door(batcher, config.host, config.port, **options)
            host, port = await server.start()
            if config.ready_file:
                write_ready_file(
                    config.ready_file, host, port, transport=transport,
                    dataset=config.dataset,
                )
            install_drain_signal_handler(server)
            print(
                f"serving {engine.solver.graph.name} on "
                f"{transport}://{host}:{port} (backend {engine.backend.name}, "
                f"policy {policy.label}, max_pending {admission.max_pending})"
            )
            try:
                # Ends via CancelledError when a drain (SIGTERM or the
                # protocol's drain op) closes the listener.
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
    return 0
