"""End-to-end tracing through the serving path: engine, batcher, servers.

The unit behavior of the tracer lives in ``tests/test_tracing.py``; these
tests prove the *threading* — that a sampled query through the real stack
(admission queue → micro-batch → engine → stages → extraction) yields one
connected span tree, that trace context propagates
in over both transports (TCP ``trace`` field, HTTP ``traceparent`` header),
that the debug endpoints export valid Chrome trace-event JSON, and that the
disabled path costs nothing measurable.
"""

from __future__ import annotations

import asyncio
import io
import json
import logging
import statistics
import time

import pytest

from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.serving import (
    QueryEngine,
    SubgraphCache,
    Tracer,
    format_traceparent,
    make_backend,
    validate_trace_events,
)
from repro.serving.tracing import make_span_id, make_trace_id
from repro.serving.frontend import (
    AdmissionController,
    TcpQueryClient,
    AsyncQueryServer,
    BatchPolicy,
    HttpClient,
    HttpQueryServer,
    MicroBatcher,
    configure_logging,
)
from repro.serving.frontend.request_log import log_request
from repro.serving.result_cache import ScoreTableCache


@pytest.fixture()
def config():
    return MeLoPPRConfig(stage_lengths=(3, 3), track_memory=False)


def span_names(tree):
    return [span["name"] for span in tree["spans"]]


def assert_connected(tree):
    """Every non-root span's parent resolves inside the same tree."""
    ids = {span["span_id"] for span in tree["spans"]}
    roots = [span for span in tree["spans"] if span["parent_id"] is None]
    external = [
        span
        for span in tree["spans"]
        if span["parent_id"] is not None and span["parent_id"] not in ids
    ]
    # One local root; only the root may point at an external (inbound
    # traceparent) parent — everything else links inside the tree.
    assert len(roots) + len(external) == 1, (roots, external)
    for span in tree["spans"]:
        assert span["end"] is not None, f"open span survived finish: {span}"


class TestEngineTracing:
    def test_serial_engine_records_stage_cache_and_extract_spans(
        self, small_ba_graph, config
    ):
        tracer = Tracer(sample_rate=1.0)
        engine = QueryEngine(
            MeLoPPRSolver(small_ba_graph, config),
            cache=SubgraphCache(),
            result_cache=ScoreTableCache(),
            tracer=tracer,
        )
        query = PPRQuery(seed=3, k=20)
        with engine:
            for _ in range(2):
                ctx = tracer.start_trace("request", seed=query.seed)
                engine.solve_batch([query], [ctx])
                ctx.finish(status="ok")

        first, second = tracer.traces()
        for tree in (first, second):
            assert_connected(tree)
            names = span_names(tree)
            assert names[0] == "request"
            assert "engine.query" in names
            assert "engine.result_cache" in names
        assert "engine.stage" in span_names(first)
        assert "extract" in span_names(first)

        # The second identical query replays the finished answer, and the
        # span tree says why it was fast: no stage ran, nothing was extracted.
        def cache_outcome(tree):
            span = next(
                s for s in tree["spans"] if s["name"] == "engine.result_cache"
            )
            return span["attributes"]["outcome"]

        assert cache_outcome(first) == "miss"
        assert cache_outcome(second) == "answer"
        assert "engine.stage" not in span_names(second)
        assert "extract" not in span_names(second)
        # The first trace's first extraction is the seed's own BFS.
        extract = next(s for s in first["spans"] if s["name"] == "extract")
        assert extract["attributes"]["balls"] == 1
        assert "cache_hits" in extract["attributes"]

    def test_unsampled_batch_entries_trace_nothing(self, small_ba_graph, config):
        tracer = Tracer(sample_rate=1.0)
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config), tracer=tracer)
        queries = [PPRQuery(seed=s, k=20) for s in (3, 11)]
        with engine:
            ctx = tracer.start_trace("request")
            # Mixed batch: one traced, one untraced (context None).
            results = engine.solve_batch(queries, [ctx, None])
            ctx.finish()
        assert len(results) == 2
        tree = tracer.traces()[0]
        engine_spans = [s for s in tree["spans"] if s["name"] == "engine.query"]
        assert len(engine_spans) == 1
        assert engine_spans[0]["attributes"]["seed"] == 3


class TestAcceptance:
    @pytest.mark.parametrize("backend", ["serial", "thread:2"])
    def test_connected_span_tree(self, small_ba_graph, config, backend):
        """TCP request → admission → batcher → engine → the cached stage
        extraction on each backend: one connected span tree whose extraction
        spans count their cache hits, exported as valid Chrome trace-event
        JSON."""
        tracer = Tracer(sample_rate=1.0)
        engine = QueryEngine(
            MeLoPPRSolver(small_ba_graph, config),
            backend=make_backend(backend),
            cache=SubgraphCache(),
            tracer=tracer,
        )

        async def run():
            batcher = MicroBatcher(
                engine,
                BatchPolicy(max_batch_size=4),
                AdmissionController(max_pending=16),
            )
            await batcher.start()
            server = AsyncQueryServer(batcher)
            host, port = await server.start()
            client = await TcpQueryClient.connect(host, port)
            try:
                answer = await client.request(
                    {"op": "query", "seed": 11, "k": 20}
                )
                traces = await client.request({"op": "traces"})
                return answer, traces
            finally:
                await client.close()
                await server.stop()
                await batcher.stop()

        with engine:
            answer, traces = asyncio.run(run())

        assert answer["ok"] is True
        assert answer["trace_id"] == traces["traces"][-1]["trace_id"]
        tree = traces["traces"][-1]
        assert_connected(tree)

        names = span_names(tree)
        assert names[0] == "request"
        for required in (
            "admission.queue",
            "batcher.batch",
            "engine.query",
            "engine.stage",
            "extract",
        ):
            assert required in names, f"missing {required} in {names}"

        stage_ids = {
            s["span_id"] for s in tree["spans"] if s["name"] == "engine.stage"
        }
        extracts = [s for s in tree["spans"] if s["name"] == "extract"]
        for span in extracts:
            assert span["parent_id"] in stage_ids
            assert 0 <= span["attributes"]["cache_hits"] <= span["attributes"]["balls"]
        # One process served the whole tree.
        assert {span["pid"] for span in tree["spans"]} == {tree["spans"][0]["pid"]}

        doc = tracer.perfetto()
        count = validate_trace_events(doc)
        assert count > len(tree["spans"])  # spans + process_name metadata
        labels = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert labels == {"serving"}

        stats = engine.stats()
        assert stats.tracing is not None
        assert stats.tracing.finished >= 1
        assert stats.tracing.spans >= len(tree["spans"])


class TestCrossTransportPropagation:
    def test_supplied_traceparent_id_returns_from_both_transports(
        self, small_ba_graph, config
    ):
        """An externally supplied traceparent (sampled flag set) forces a
        trace under the supplied id over TCP and HTTP alike — with local
        sampling off, so the only way the id can appear is propagation."""
        tracer = Tracer(sample_rate=0.0)
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config), tracer=tracer)
        tcp_trace = make_trace_id()
        http_trace = make_trace_id()

        async def run():
            batcher = MicroBatcher(engine)
            await batcher.start()
            tcp_server = AsyncQueryServer(batcher)
            http_server = HttpQueryServer(batcher)
            tcp_host, tcp_port = await tcp_server.start()
            http_host, http_port = await http_server.start()
            tcp_client = await TcpQueryClient.connect(tcp_host, tcp_port)
            http_client = await HttpClient(http_host, http_port).connect()
            try:
                tcp_answer = await tcp_client.request(
                    {
                        "op": "query",
                        "seed": 3,
                        "k": 10,
                        "trace": format_traceparent(
                            tcp_trace, make_span_id(), sampled=True
                        ),
                    }
                )
                status, _, raw = await http_client.request(
                    "POST",
                    "/query",
                    {"seed": 5, "k": 10},
                    headers={
                        "traceparent": format_traceparent(
                            http_trace, make_span_id(), sampled=True
                        )
                    },
                )
                untraced = await tcp_client.request(
                    {"op": "query", "seed": 7, "k": 10}
                )
                return tcp_answer, status, json.loads(raw), untraced
            finally:
                await tcp_client.close()
                await http_client.close()
                await tcp_server.stop()
                await http_server.stop()
                await batcher.stop()

        with engine:
            tcp_answer, http_status, http_answer, untraced = asyncio.run(run())

        assert tcp_answer["ok"] and http_status == 200 and http_answer["ok"]
        assert tcp_answer["trace_id"] == tcp_trace
        assert http_answer["trace_id"] == http_trace
        # Local sampling is off: the un-annotated query records nothing.
        assert "trace_id" not in untraced

        recorded = {tree["trace_id"]: tree for tree in tracer.traces()}
        assert set(recorded) == {tcp_trace, http_trace}
        assert recorded[tcp_trace]["spans"][0]["attributes"]["transport"] == "tcp"
        assert recorded[http_trace]["spans"][0]["attributes"]["transport"] == "http"
        for tree in recorded.values():
            assert_connected(tree)
            assert "engine.query" in span_names(tree)


class TestDebugEndpoints:
    def serve_http(self, engine):
        class _Stack:
            async def __aenter__(self):
                self.batcher = MicroBatcher(engine)
                await self.batcher.start()
                self.server = HttpQueryServer(self.batcher)
                host, port = await self.server.start()
                self.client = await HttpClient(host, port).connect()
                return self.client

            async def __aexit__(self, exc_type, exc, traceback):
                await self.client.close()
                await self.server.stop()
                await self.batcher.stop()

        return _Stack()

    def test_debug_traces_and_perfetto_round_trip(self, small_ba_graph, config):
        tracer = Tracer(sample_rate=1.0)
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config), tracer=tracer)

        async def run():
            async with self.serve_http(engine) as client:
                status, answer = await client.query({"seed": 3, "k": 10})
                assert status == 200 and answer["ok"]
                plain = await client.request_json("GET", "/debug/traces")
                perfetto = await client.request_json(
                    "GET", "/debug/traces/perfetto"
                )
                return answer, plain, perfetto

        with engine:
            answer, (plain_status, plain), (perf_status, perfetto) = (
                asyncio.run(run())
            )

        assert plain_status == 200 and plain["ok"]
        assert plain["stats"]["finished"] == 1
        assert [t["trace_id"] for t in plain["traces"]] == [answer["trace_id"]]
        assert perf_status == 200
        # The scraped body is exactly what Perfetto loads: validate it as
        # parsed from the wire, not from in-process state.
        assert validate_trace_events(perfetto) > 0

    def test_debug_endpoints_404_without_a_tracer(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with self.serve_http(engine) as client:
                return (
                    await client.request_json("GET", "/debug/traces"),
                    await client.request_json("GET", "/debug/traces/perfetto"),
                )

        with engine:
            (status, body), (perf_status, perf_body) = asyncio.run(run())
        assert status == 404 and perf_status == 404
        assert "trace-sample" in body["message"]
        assert perf_body["error"] == "not_found"

    def test_tcp_traces_op_without_tracer_is_a_bad_request(
        self, small_ba_graph, config
    ):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            batcher = MicroBatcher(engine)
            await batcher.start()
            server = AsyncQueryServer(batcher)
            host, port = await server.start()
            client = await TcpQueryClient.connect(host, port)
            try:
                return await client.request({"op": "traces"})
            finally:
                await client.close()
                await server.stop()
                await batcher.stop()

        with engine:
            answer = asyncio.run(run())
        assert answer["ok"] is False
        assert "tracing is disabled" in answer["message"]


class TestRequestLog:
    def test_one_jsonl_line_per_request_with_trace_id(
        self, small_ba_graph, config
    ):
        tracer = Tracer(sample_rate=1.0)
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config), tracer=tracer)
        logger = configure_logging("info", json_mode=True)
        stream = io.StringIO()
        logger.handlers[0].setStream(stream)

        async def run():
            batcher = MicroBatcher(engine)
            await batcher.start()
            server = AsyncQueryServer(batcher)
            host, port = await server.start()
            client = await TcpQueryClient.connect(host, port)
            try:
                return await asyncio.gather(
                    client.request({"op": "query", "seed": 3, "k": 10}),
                    client.request({"op": "query", "seed": 5, "k": 10}),
                )
            finally:
                await client.close()
                await server.stop()
                await batcher.stop()

        try:
            with engine:
                answers = asyncio.run(run())
        finally:
            configure_logging()  # restore the default (warning, plain)

        lines = [
            json.loads(line)
            for line in stream.getvalue().strip().splitlines()
        ]
        assert len(lines) == 2  # exactly one line per answered query
        by_seed = {line["seed"]: line for line in lines}
        for answer in answers:
            line = by_seed[answer["seed"]]
            assert line["transport"] == "tcp"
            assert line["status"] == "ok"
            assert line["latency_ms"] >= 0.0
            assert line["trace_id"] == answer["trace_id"]
            assert line["level"] == "info"

    def test_default_level_logs_nothing(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        logger = configure_logging()  # warning: per-request lines disabled
        stream = io.StringIO()
        logger.handlers[0].setStream(stream)

        async def run():
            batcher = MicroBatcher(engine)
            await batcher.start()
            server = AsyncQueryServer(batcher)
            host, port = await server.start()
            client = await TcpQueryClient.connect(host, port)
            try:
                return await client.request({"op": "query", "seed": 3, "k": 10})
            finally:
                await client.close()
                await server.stop()
                await batcher.stop()

        with engine:
            answer = asyncio.run(run())
        assert answer["ok"]
        assert stream.getvalue() == ""

    def test_plain_mode_writes_one_key_value_line_per_request(self):
        logger = configure_logging("info")  # --log-level info without --log-json
        stream = io.StringIO()
        logger.handlers[0].setStream(stream)
        try:
            log_request("http", "ok", latency_ms=1.23456, request_id=7, seed=3, k=10)
        finally:
            configure_logging()  # restore the default (warning, plain)
        (line,) = stream.getvalue().splitlines()
        assert line.endswith(" info transport=http status=ok id=7 seed=3 k=10 latency_ms=1.235")

    def test_configure_logging_rejects_unknown_level(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging("loud")


class TestDisabledOverhead:
    def test_no_tracer_and_rate_zero_paths_match(self, small_ba_graph, config):
        """The overhead guard, test-sized: with sampling off the serving
        path must not slow down measurably.  Both engines compute every
        query (no result cache), so each timed query crosses every disabled
        hook, and a query on the engine with a rate-0 tracer attached stays
        within 10% of the no-tracer build (the full-workload guard with a
        tighter budget runs in ``benchmarks/bench_tracing.py``).  Like that
        guard this is the median over rounds of the paired ratio — one query
        through both engines back to back, order flipped every round:
        min-of-repeats of whole passes, measured one engine after the other,
        moved by more than the budget whenever the box changed speed between
        the two."""
        queries = [PPRQuery(seed=s % 60, k=20) for s in range(24)]

        def seconds(engine, query):
            start = time.perf_counter()
            engine.solve_batch([query])
            return time.perf_counter() - start

        def engine_with(tracer):
            return QueryEngine(
                MeLoPPRSolver(small_ba_graph, config),
                cache=SubgraphCache(),
                tracer=tracer,
            )

        ratios = []
        with engine_with(None) as baseline:
            with engine_with(Tracer(sample_rate=0.0)) as disabled:
                for engine in (baseline, disabled):
                    engine.solve_batch(queries)  # warm caches + code paths
                for index in range(10 * len(queries)):
                    query = queries[index % len(queries)]
                    if index % 2:
                        off, on = seconds(baseline, query), seconds(disabled, query)
                    else:
                        on, off = seconds(disabled, query), seconds(baseline, query)
                    ratios.append(on / off)
        overhead = statistics.median(ratios) - 1.0
        assert overhead <= 0.10, f"rate-0 tracer cost {overhead:.1%} a query"
