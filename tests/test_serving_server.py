"""Tests for the TCP/JSON query service and its asyncio client.

Everything runs against a real socket on an ephemeral localhost port: the
differential round-trip (wire answers identical to the in-process engine),
protocol-level shed/deadline/bad-request answers, pipelining, and the stats
endpoint's JSON document.
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
from repro.serving import QueryEngine, SubgraphCache
from repro.serving.frontend import (
    AdmissionController,
    AsyncClient,
    AsyncQueryServer,
    BatchPolicy,
    MicroBatcher,
    QueryShedError,
    ServerError,
)


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
        return PPRResult(query=query, scores=SparseScoreVector({query.seed: 1.0}))


def serve(engine, policy=None, admission=None):
    """Async context manager: batcher + server + connected client."""

    class _Stack:
        async def __aenter__(self):
            self.batcher = MicroBatcher(engine, policy, admission)
            await self.batcher.start()
            self.server = AsyncQueryServer(self.batcher)
            host, port = await self.server.start()
            self.client = await AsyncClient.connect(host, port)
            return self.client, self.server

        async def __aexit__(self, exc_type, exc, traceback):
            await self.client.close()
            await self.server.stop()
            await self.batcher.stop()

    return _Stack()


class TestRoundTrip:
    def test_wire_answers_match_engine(self, small_ba_graph, config):
        queries = [PPRQuery(seed=s, k=30) for s in (3, 11, 27, 3, 11)]
        with QueryEngine(MeLoPPRSolver(small_ba_graph, config)) as reference:
            expected = [
                [(int(n), float(s)) for n, s in result.top_k()]
                for result in reference.solve_batch(queries)
            ]

        engine = QueryEngine(
            MeLoPPRSolver(small_ba_graph, config), cache=SubgraphCache()
        )

        async def run():
            async with serve(engine) as (client, _):
                return await asyncio.gather(
                    *(client.solve(seed=q.seed, k=q.k) for q in queries)
                )

        with engine:
            answers = asyncio.run(run())
        assert answers == expected

    def test_ping_and_stats(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve(engine) as (client, _):
                assert await client.ping()
                await client.solve(seed=3, k=10)
                stats = await client.stats()
                return stats

        with engine:
            stats = asyncio.run(run())
        # The stats document is the nested frontend/admission/engine report.
        assert stats["batches"] >= 1
        assert stats["admission"]["completed"] == 1
        assert stats["admission"]["shed_rate"] == 0.0
        assert stats["admission"]["latency"]["count"] == 1
        assert stats["engine"]["queries_served"] == 1
        assert stats["policy"]["max_batch_size"] >= 1
        json.dumps(stats)  # and it is JSON-serialisable end to end

    def test_query_response_shape(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve(engine) as (client, _):
                return await client.query(seed=3, k=10)

        with engine:
            response = asyncio.run(run())
        assert response["ok"] is True
        assert response["seed"] == 3
        assert response["k"] == 10
        assert response["latency_ms"] >= 0
        assert len(response["top"]) <= 10
        assert all(len(pair) == 2 for pair in response["top"])


class TestProtocolErrors:
    def test_missing_seed_is_bad_request(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve(engine) as (client, _):
                return await client.request({"op": "query", "k": 10})

        with engine:
            response = asyncio.run(run())
        assert response["ok"] is False
        assert response["error"] == "bad_request"
        assert "seed" in response["message"]

    def test_out_of_range_seed_is_bad_request(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve(engine) as (client, _):
                with pytest.raises(ServerError, match="bad_request"):
                    await client.solve(seed=10_000, k=10)

        with engine:
            asyncio.run(run())

    def test_unknown_op_is_bad_request(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve(engine) as (client, _):
                return await client.request({"op": "explode"})

        with engine:
            response = asyncio.run(run())
        assert response["error"] == "bad_request"

    def test_invalid_timeout_is_bad_request(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve(engine) as (client, _):
                return await client.request(
                    {"op": "query", "seed": 3, "timeout_ms": -5}
                )

        with engine:
            response = asyncio.run(run())
        assert response["error"] == "bad_request"

    def test_float_seed_is_bad_request_not_truncated(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve(engine) as (client, _):
                return await client.request({"op": "query", "seed": 42.9, "k": 10})

        with engine:
            response = asyncio.run(run())
        assert response["ok"] is False
        assert response["error"] == "bad_request"
        assert "seed" in response["message"]

    def test_boolean_seed_is_bad_request(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve(engine) as (client, _):
                return await client.request({"op": "query", "seed": True, "k": 10})

        with engine:
            response = asyncio.run(run())
        assert response["error"] == "bad_request"

    def test_oversized_line_answered_then_connection_closed(
        self, small_ba_graph, config
    ):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve(engine) as (_, server):
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b'{"junk": "' + b"x" * 70_000 + b'"}\n')
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), timeout=5)
                trailer = await asyncio.wait_for(reader.readline(), timeout=5)
                writer.close()
                await writer.wait_closed()
                return json.loads(line), trailer

        with engine:
            response, trailer = asyncio.run(run())
        # An explicit protocol answer, then a clean close — not a dropped
        # connection with no response.
        assert response["ok"] is False
        assert response["error"] == "bad_request"
        assert "limit" in response["message"]
        assert trailer == b""

    def test_malformed_json_line_gets_error_response(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve(engine) as (_, server):
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"this is not json\n")
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), timeout=5)
                writer.close()
                await writer.wait_closed()
                return json.loads(line)

        with engine:
            response = asyncio.run(run())
        assert response["ok"] is False
        assert response["error"] == "bad_request"


class TestPipeliningBackpressure:
    def test_non_reading_client_is_bounded_not_buffered(self, small_ba_graph, config):
        # A client that pipelines pings without ever reading must not grow
        # the server's in-flight task set past max_pipelined.
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            batcher = MicroBatcher(engine)
            await batcher.start()
            server = AsyncQueryServer(batcher, max_pipelined=4)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            # Flood pings without reading any responses.
            for _ in range(200):
                writer.write(b'{"op": "ping"}\n')
            await writer.drain()
            await asyncio.sleep(0.2)  # let the server chew on the flood
            # The server is still healthy: reading drains the flood and a
            # fresh request round-trips.
            answered = 0
            while answered < 200:
                line = await asyncio.wait_for(reader.readline(), timeout=5)
                assert json.loads(line)["ok"] is True
                answered += 1
            writer.write(b'{"op": "ping", "id": "after"}\n')
            await writer.drain()
            final = json.loads(await asyncio.wait_for(reader.readline(), timeout=5))
            writer.close()
            await writer.wait_closed()
            await server.stop()
            await batcher.stop()
            return final

        with engine:
            final = asyncio.run(run())
        assert final["id"] == "after" and final["ok"] is True

    def test_rejects_nonpositive_max_pipelined(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        with pytest.raises(ValueError, match="max_pipelined"):
            AsyncQueryServer(MicroBatcher(engine), max_pipelined=0)
        engine.close()


class TestServerLifecycle:
    def test_address_before_start_raises(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        server = AsyncQueryServer(MicroBatcher(engine))
        with pytest.raises(RuntimeError, match="not started"):
            server.address
        engine.close()

    def test_double_start_raises_and_stop_is_idempotent(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            batcher = MicroBatcher(engine)
            await batcher.start()
            server = AsyncQueryServer(batcher)
            await server.start()
            with pytest.raises(RuntimeError, match="already started"):
                await server.start()
            await server.stop()
            await server.stop()  # idempotent
            await batcher.stop()

        with engine:
            asyncio.run(run())

    def test_serve_forever_autostarts_and_serves(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            batcher = MicroBatcher(engine)
            await batcher.start()
            server = AsyncQueryServer(batcher)
            forever = asyncio.ensure_future(server.serve_forever())
            while server._server is None:  # wait for the auto-start
                await asyncio.sleep(0.01)
            host, port = server.address
            client = await AsyncClient.connect(host, port)
            assert await client.ping()
            await client.close()
            forever.cancel()
            try:
                await forever
            except asyncio.CancelledError:
                pass
            await server.stop()
            await batcher.stop()

        with engine:
            asyncio.run(run())


class TestOverloadOverTheWire:
    def test_deadline_is_a_protocol_answer(self, small_ba_graph):
        from repro.serving.frontend import DeadlineExceededError

        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.1))
        policy = BatchPolicy(max_batch_size=1, max_wait_ms=0.0)

        async def run():
            async with serve(engine, policy) as (client, _):
                blocker = asyncio.ensure_future(client.solve(seed=1, k=10))
                await asyncio.sleep(0.02)
                with pytest.raises(DeadlineExceededError):
                    await client.solve(seed=2, k=10, timeout_ms=5.0)
                await blocker

        with engine:
            asyncio.run(run())

    def test_shed_is_a_protocol_answer(self, small_ba_graph):
        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.05))
        admission = AdmissionController(max_pending=2)
        policy = BatchPolicy(max_batch_size=1, max_wait_ms=0.0)

        async def run():
            async with serve(engine, policy, admission) as (client, _):
                outcomes = await asyncio.gather(
                    *(client.solve(seed=s % 5, k=10) for s in range(12)),
                    return_exceptions=True,
                )
                return outcomes

        with engine:
            outcomes = asyncio.run(run())
        completed = [o for o in outcomes if isinstance(o, list)]
        shed = [o for o in outcomes if isinstance(o, QueryShedError)]
        assert len(completed) + len(shed) == 12
        assert shed, "overload must produce explicit shed responses"
        assert completed, "admitted queries must still be answered"


class TestServerCLIConstruction:
    def test_build_frontend_from_cli_args(self):
        from repro.serving.frontend.server import build_frontend, build_parser

        args = build_parser().parse_args(
            [
                "--dataset",
                "G1",
                "--backend",
                "thread:2",
                "--max-batch",
                "4",
                "--max-wait-ms",
                "1.5",
                "--no-dedup",
                "--max-pending",
                "32",
            ]
        )
        engine, policy, admission = build_frontend(args)
        try:
            assert engine.backend.name == "thread-pool"
            assert engine.cache is not None
            assert policy.max_batch_size == 4
            assert policy.max_wait_ms == 1.5
            assert policy.dedup is False
            assert admission.max_pending == 32
        finally:
            engine.close()

    def test_build_frontend_no_cache(self):
        from repro.serving.frontend.server import build_frontend, build_parser

        args = build_parser().parse_args(["--no-cache", "--backend", "serial"])
        engine, _, _ = build_frontend(args)
        try:
            assert engine.cache is None
            assert engine.backend.name == "serial"
            # --no-cache means ALL caching off: a surviving result cache
            # would silently invalidate an operator's uncached baseline.
            assert engine.result_cache is None
        finally:
            engine.close()

        # ...unless an explicit --result-cache-bytes overrides it.
        args = build_parser().parse_args(
            ["--no-cache", "--backend", "serial", "--result-cache-bytes", "65536"]
        )
        engine, _, _ = build_frontend(args)
        try:
            assert engine.cache is None
            assert engine.result_cache is not None
        finally:
            engine.close()

    def test_build_frontend_result_cache_flags(self):
        from repro.serving.frontend.server import build_frontend, build_parser

        args = build_parser().parse_args(
            [
                "--backend",
                "serial",
                "--result-cache-bytes",
                "65536",
                "--result-cache-ttl",
                "30",
            ]
        )
        engine, _, _ = build_frontend(args)
        try:
            assert engine.result_cache.max_bytes == 65536
            assert engine.result_cache.ttl_seconds == 30.0
        finally:
            engine.close()

        args = build_parser().parse_args(
            ["--backend", "serial", "--result-cache-bytes", "0"]
        )
        engine, _, _ = build_frontend(args)
        try:
            assert engine.result_cache is None
        finally:
            engine.close()

        # A non-positive TTL means "no TTL" (same 0-disables convention as
        # the bytes flag), not a ValueError at server startup.
        args = build_parser().parse_args(
            ["--backend", "serial", "--result-cache-ttl", "0"]
        )
        engine, _, _ = build_frontend(args)
        try:
            assert engine.result_cache is not None
            assert engine.result_cache.ttl_seconds is None
        finally:
            engine.close()


class TestClientLifecycle:
    def test_close_fails_pending_requests(self, small_ba_graph):
        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.2))

        async def run():
            async with serve(engine) as (client, _):
                pending = asyncio.ensure_future(client.solve(seed=1, k=10))
                await asyncio.sleep(0.02)
                await client.close()
                with pytest.raises(ConnectionError):
                    await pending

        with engine:
            asyncio.run(run())

    def test_request_after_close_raises(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve(engine) as (client, _):
                await client.ping()
            with pytest.raises(ConnectionError):
                await client.ping()

        with engine:
            asyncio.run(run())


class TestReportedLatency:
    def test_reported_latency_covers_the_full_server_path(self, small_ba_graph):
        """The wire-reported latency clock starts at line receipt.

        It must therefore dominate the admission-measured latency (which
        starts later, at submit): a reported latency below the batcher's
        own measurement would mean the server was excluding parse/dispatch
        time from what it tells clients.
        """
        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.05))

        async def run():
            async with serve(engine) as (client, server):
                response = await client.request({"seed": 1, "k": 5})
                stats = server.batcher.stats()
                return response, stats

        with engine:
            response, stats = asyncio.run(run())
        assert response["ok"] is True
        reported_ms = response["latency_ms"]
        measured_ms = stats.admission.latency.max_seconds * 1e3
        assert measured_ms > 0
        assert reported_ms >= measured_ms
        # And it is a real measurement of the sleepy solve, not a stopwatch
        # started after the work happened.
        assert reported_ms >= 50.0


class TestProcessBackendCLIRebuild:
    def test_no_cache_rebuild_preserves_process_backend_config(self):
        """Regression: ``--no-cache`` rebuilds the backend; the rebuild must
        keep the worker count, spawn context and kernel of the original."""
        from repro.serving.frontend.server import build_frontend, build_parser

        args = build_parser().parse_args(
            [
                "--no-cache",
                "--backend",
                "process:2",
                "--kernel",
                "csr",
            ]
        )
        engine, _, _ = build_frontend(args)
        try:
            assert engine.cache is None
            assert engine.result_cache is None
            # The engine-resolved kernel (what every stage task runs with).
            assert engine.kernel == "csr"
            # The rebuilt backend keeps the original's full configuration.
            assert engine.backend.name == "process-pool"
            assert engine.backend.num_workers == 2
            from repro.diffusion.kernels import resolve_kernel_name
            from repro.serving.backends import make_backend

            pristine = make_backend("process:2")
            try:
                assert engine.backend.kernel == pristine.kernel
                assert engine.backend.mp_context == pristine.mp_context
            finally:
                pristine.close()
            assert engine.backend.kernel == resolve_kernel_name(None)
        finally:
            engine.close()

    def test_cached_process_backend_keeps_kernel(self):
        from repro.serving.frontend.server import build_frontend, build_parser

        args = build_parser().parse_args(["--backend", "process:2", "--kernel", "csr"])
        engine, _, _ = build_frontend(args)
        try:
            assert engine.kernel == "csr"
            assert engine.backend.name == "process-pool"
            assert engine.backend.num_workers == 2
        finally:
            engine.close()


class TestTcpLiveOps:
    def test_drain_op_completes_inflight_and_refuses_new_connections(
        self, small_ba_graph
    ):
        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.1))
        policy = BatchPolicy(max_batch_size=1, max_wait_ms=0.0)

        async def run():
            batcher = MicroBatcher(engine, policy)
            await batcher.start()
            server = AsyncQueryServer(batcher)
            host, port = await server.start()
            client = await AsyncClient.connect(host, port)
            try:
                inflight = asyncio.ensure_future(client.solve(seed=1, k=5))
                await asyncio.sleep(0.02)
                ack = await client.request({"op": "drain"})
                assert ack["ok"] is True and ack["draining"] is True
                # The in-flight query still completes with its answer.
                assert await inflight == [(1, 1.0)]
                await server.drain()  # wait for the background drain
                assert server.draining
                with pytest.raises(OSError):
                    await AsyncClient.connect(host, port)
            finally:
                await client.close()
                await server.drain()
                await batcher.stop()

        with engine:
            asyncio.run(run())

    def test_sigterm_triggers_graceful_drain(self, small_ba_graph):
        import os
        import signal

        from repro.serving.frontend.server import install_drain_signal_handler

        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.1))
        policy = BatchPolicy(max_batch_size=1, max_wait_ms=0.0)

        async def run():
            batcher = MicroBatcher(engine, policy)
            await batcher.start()
            server = AsyncQueryServer(batcher)
            host, port = await server.start()
            install_drain_signal_handler(server)
            client = await AsyncClient.connect(host, port)
            try:
                inflight = asyncio.ensure_future(client.solve(seed=1, k=5))
                await asyncio.sleep(0.02)
                os.kill(os.getpid(), signal.SIGTERM)
                # The signal handler schedules the drain on the loop; the
                # in-flight query must still be answered, then the listener
                # refuses new connections.
                assert await inflight == [(1, 1.0)]
                await server.drain()
                assert server.draining
                with pytest.raises(OSError):
                    await AsyncClient.connect(host, port)
            finally:
                asyncio.get_running_loop().remove_signal_handler(signal.SIGTERM)
                await client.close()
                await server.drain()
                await batcher.stop()

        with engine:
            asyncio.run(run())

    def test_reload_op_applies_and_reports(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve(engine) as (client, server):
                response = await client.request(
                    {
                        "op": "reload",
                        "config": {"max_pending": 128, "max_wait_ms": 5.0},
                    }
                )
                assert response["ok"] is True
                assert sorted(response["applied"]) == [
                    "max_pending",
                    "max_wait_ms",
                ]
                assert response["config"]["max_pending"] == 128
                assert server.batcher.admission.max_pending == 128
                assert server.batcher.policy.max_wait_ms == 5.0
                # The connection is still serving after the reload.
                answer = await client.solve(seed=3, k=10)
                assert len(answer) > 0

        with engine:
            asyncio.run(run())

    def test_reload_op_bad_key_is_typed_and_changes_nothing(
        self, small_ba_graph, config
    ):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve(engine) as (client, server):
                before = server.batcher.admission.max_pending
                response = await client.request(
                    {
                        "op": "reload",
                        "config": {"max_pending": 5, "warp_speed": True},
                    }
                )
                assert response["ok"] is False
                assert response["error"] == "bad_request"
                assert "warp_speed" in response["message"]
                assert server.batcher.admission.max_pending == before

        with engine:
            asyncio.run(run())


class TestLiveUpdate:
    def test_update_over_the_wire(self, small_ba_graph, config):
        from repro.graph.csr import CSRGraph

        u, v = 0, int(small_ba_graph.neighbors(0)[0])
        canonical = (min(u, v), max(u, v))
        remaining = [
            edge for edge in small_ba_graph.iter_edges() if edge != canonical
        ]
        rebuilt = CSRGraph.from_edges(small_ba_graph.num_nodes, remaining)
        query = PPRQuery(seed=3, k=20)
        expected = [
            (int(n), float(s))
            for n, s in MeLoPPRSolver(rebuilt, config).solve(query).top_k()
        ]
        engine = QueryEngine(
            MeLoPPRSolver(small_ba_graph, config), cache=SubgraphCache()
        )

        async def run():
            async with serve(engine) as (client, _):
                await client.solve(seed=3, k=20)  # warm the old topology
                response = await client.request(
                    {"op": "update", "ops": [["delete", u, v]]}
                )
                answer = await client.solve(seed=3, k=20)
                return response, answer

        with engine:
            response, answer = asyncio.run(run())
        assert response["ok"] is True and response["op"] == "update"
        assert response["ops"] == 1
        assert response["new_fingerprint"] == rebuilt.fingerprint()
        assert response["touched_nodes"] >= 2
        assert response["invalidated"]["result_answers_kept"] == 0
        assert response["invalidated"]["result_answers_stripped"] == 0
        # Post-update answers come from the new topology, not stale caches.
        assert answer == expected

    def test_bad_update_is_bad_request_and_changes_nothing(
        self, small_ba_graph, config
    ):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        fingerprint = small_ba_graph.fingerprint()

        async def run():
            async with serve(engine) as (client, _):
                missing = await client.request({"op": "update"})
                loop = await client.request(
                    {"op": "update", "ops": [["insert", 2, 2]]}
                )
                return missing, loop

        with engine:
            missing, loop = asyncio.run(run())
        assert missing["error"] == "bad_request"
        assert loop["error"] == "bad_request"
        assert "self-loop" in loop["message"]
        assert engine.solver.graph.fingerprint() == fingerprint
