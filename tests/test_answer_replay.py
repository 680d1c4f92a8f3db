"""Finished answers on the result-cache entry, end to end.

A repeat of a query whose finished answer is attached to its
:class:`~repro.serving.result_cache.ScoreTableCache` entry is replayed, not
recomputed — by the engine (``solve_batch``), by the non-blocking
``QueryEngine.try_cached`` the micro-batcher consults on the event loop, and
on the wire, where the ``"top"`` text is encoded once.  These tests pin what
must not change (every answer bit-identical to a fresh solver, response
bytes identical to ``json.dumps`` of the response dict, byte accounting) and
what an update must do (keep an answer only when every sub-graph it ran on is
out of the update's reach, strip it otherwise).
"""

from __future__ import annotations

import asyncio
import dataclasses
import io
import json
import sys
import threading

import numpy as np
import pytest

from repro.diffusion.sparse_vector import FrozenScoreVectorError
from repro.graph.csr import CSRGraph
from repro.graph.generators import barabasi_albert_graph
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.selection import CountSelector
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.serving import (
    QueryEngine,
    ScoreTableCache,
    Tracer,
    make_backend,
    stage_one_cache_key,
)
from repro.serving.frontend import (
    AdmissionController,
    AsyncQueryServer,
    BatchPolicy,
    HttpClient,
    HttpQueryServer,
    MicroBatcher,
    configure_logging,
    parse_prometheus_text,
)
from repro.serving.engine import _KEY_MEMO_SIZE, _replay
from repro.serving.frontend.ops import _top_json
from repro.serving.frontend.protocol import PROTOCOL_VERSION, pack_top
from repro.serving.result_cache import _answer_nbytes, _entry_nbytes, stage_one_key

CONFIG = MeLoPPRConfig(stage_lengths=(3, 3), track_memory=False)
#: Expands every stage-one frontier node, so an edit four or five hops from a
#: seed (outside its stage-one ball: the entry is re-keyed, not dropped) still
#: changes the seed's answer through stage two.
WIDE = MeLoPPRConfig(
    stage_lengths=(3, 3), selector=CountSelector(8), track_memory=False
)
TRACEPARENT = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(200, 2, rng=3, name="replay-ba200")


@pytest.fixture(scope="module")
def path():
    """A 60-node path: hop distances are index differences."""
    return CSRGraph.from_edges(60, [(i, i + 1) for i in range(59)], name="path60")


#: On ``path`` with chords hung on node 14: seed 10 is four hops away (entry
#: re-keyed, answer changes: stripped), seed 15 one hop (entry dropped), seed
#: 50 far (answer kept).
PATH_QUERIES = [PPRQuery(seed=10, k=12), PPRQuery(seed=15, k=9), PPRQuery(seed=50, k=12)]


def make_engine(graph, mode="serial", config=CONFIG, **cache_kwargs):
    """An engine with result caching on and no extraction cache, so every
    metadata counter is comparable with an uncached solver's."""
    return QueryEngine(
        MeLoPPRSolver(graph, config),
        backend=make_backend(mode),
        result_cache=ScoreTableCache(**cache_kwargs),
    )


def assert_same_answer(result, reference):
    """Bit-identical scores, ranking and every non-timing metadata key."""
    assert result.query == reference.query
    assert np.array_equal(result.scores.nodes(), reference.scores.nodes())
    assert np.array_equal(result.scores.values(), reference.scores.values())
    assert result.top_k() == reference.top_k()
    assert result.peak_memory_bytes == reference.peak_memory_bytes
    ours = {key: value for key, value in result.metadata.items() if key != "serving"}
    assert ours == reference.metadata


def rebuilt(graph, ops):
    """``graph`` with ``ops`` applied, rebuilt from scratch from its edge set."""
    edges = set(graph.iter_edges())
    for kind, u, v in ops:
        (edges.add if kind == "insert" else edges.discard)((min(u, v), max(u, v)))
    return CSRGraph.from_edges(graph.num_nodes, sorted(edges), name=graph.name)


# ----------------------------------------------------------------------
# (b) Differential: replayed answers against a fresh solver
# ----------------------------------------------------------------------
class TestDifferential:
    #: Distinct queries never share an answer: same seed, varied k / alpha /
    #: length, repeated and interleaved.
    QUERIES = [
        PPRQuery(seed=3, k=20),
        PPRQuery(seed=3, k=10),
        PPRQuery(seed=3, k=20, alpha=0.7),
        PPRQuery(seed=3, k=20, length=4),
        PPRQuery(seed=41, k=20),
        PPRQuery(seed=3, k=20, length=1),
    ]

    @pytest.mark.parametrize("mode", ["serial", "thread:2"])
    def test_repeats_are_bit_identical_to_a_fresh_solver(self, graph, mode):
        solver = MeLoPPRSolver(graph, CONFIG)
        stream = self.QUERIES + self.QUERIES[::-1] + self.QUERIES[::2]
        with make_engine(graph, mode) as engine:
            # One query per batch: a concurrent backend may race duplicates
            # inside a batch, across batches a repeat is always a replay.
            results = [engine.solve_batch([query])[0] for query in stream]
            again = engine.solve_batch(stream)
            cached = [engine.try_cached(query) for query in stream]
        outcomes = [r.metadata["serving"]["result_cache"] for r in results]
        assert outcomes[: len(self.QUERIES)] == ["miss"] * len(self.QUERIES)
        assert set(outcomes[len(self.QUERIES) :]) == {"answer"}
        for query, *answers in zip(stream, results, again, cached):
            reference = solver.solve(query)
            for answer in answers:
                assert_same_answer(answer, reference)
        # A replay is a new result around the one shared, frozen score vector.
        assert again[0] is not results[0]
        assert again[0].scores is results[0].scores
        assert again[0].metadata is not results[0].metadata
        assert again[0].timing.seconds == {}

    @pytest.mark.parametrize("mode", ["serial", "thread:2"])
    def test_replay_after_update_equals_from_scratch_on_the_rebuilt_graph(self, path, mode):
        ops = [("insert", 14, 30), ("delete", 40, 41)]
        before, after = MeLoPPRSolver(path, WIDE), MeLoPPRSolver(rebuilt(path, ops), WIDE)
        # The case keeping an answer on the stage-one test alone would get
        # wrong: re-keyed, yet different.
        assert before.solve(PATH_QUERIES[0]).top_k() != after.solve(PATH_QUERIES[0]).top_k()
        with make_engine(path, mode, WIDE) as engine:
            engine.solve_batch(PATH_QUERIES)
            outcome = engine.apply_update(ops)
            assert outcome["new_fingerprint"] == after.graph.fingerprint()
            assert outcome["invalidated"]["result_entries_dropped"] == 1
            assert outcome["invalidated"]["result_entries_rekeyed"] == 2
            assert outcome["invalidated"]["result_answers_kept"] == 1
            assert outcome["invalidated"]["result_answers_stripped"] == 1
            # Only the far seed's answer outlives the update: every sub-graph
            # it was computed from is out of the update's reach.
            cached = [engine.try_cached(query) for query in PATH_QUERIES]
            assert cached[:2] == [None, None]
            first = engine.solve_batch(PATH_QUERIES)
            replayed = engine.solve_batch(PATH_QUERIES)
        outcomes = [r.metadata["serving"]["result_cache"] for r in first]
        assert outcomes == ["hit", "miss", "answer"]
        assert_same_answer(cached[2], after.solve(PATH_QUERIES[2]))
        for query, computed, replay in zip(PATH_QUERIES, first, replayed):
            assert replay.metadata["serving"]["result_cache"] == "answer"
            reference = after.solve(query)
            assert_same_answer(computed, reference)
            assert_same_answer(replay, reference)

    def test_unbounded_table_shares_a_key_but_never_an_answer(self, graph):
        # With no c*k bound the key does not see k: the answer must.
        config = MeLoPPRConfig(score_table_factor=None, track_memory=False)
        small, large = PPRQuery(seed=3, k=5), PPRQuery(seed=3, k=9)
        solver = MeLoPPRSolver(graph, config)
        assert stage_one_key(small, config) == stage_one_key(large, config)
        with QueryEngine(solver, result_cache=ScoreTableCache()) as engine:
            for query in (small, large, small, large):
                (result,) = engine.solve_batch([query])
                assert result.query == query
                assert result.top_k() == solver.solve(query).top_k()
                assert len(result.top_k()) == query.k


# ----------------------------------------------------------------------
# Freeze what is shared
# ----------------------------------------------------------------------
class TestSharedAnswersAreFrozen:
    def test_attached_answer_cannot_be_corrupted_by_a_caller(self, graph):
        query = PPRQuery(seed=3, k=20)
        with make_engine(graph) as engine:
            (first,) = engine.solve_batch([query])
            wire = _top_json(first)
            for mutate in (
                lambda: first.scores.add(3, 1.0),
                lambda: first.scores.scale(2.0),
                lambda: first.scores.prune(1.0),
            ):
                with pytest.raises(FrozenScoreVectorError):
                    mutate()
            first.metadata["tasks"] = "clobbered"  # the caller's own dict
            (replay,) = engine.solve_batch([query])
        assert_same_answer(replay, MeLoPPRSolver(graph, CONFIG).solve(query))
        # One text per attached answer, however many deliveries encode it.
        assert wire == json.dumps([[node, score] for node, score in replay.top_k()])
        assert _top_json(replay) is wire

    def test_engine_without_result_cache_freezes_nothing(self, graph):
        with QueryEngine(MeLoPPRSolver(graph, CONFIG)) as engine:
            (result,) = engine.solve_batch([PPRQuery(seed=3, k=20)])
            assert engine.try_cached(PPRQuery(seed=3, k=20)) is None
        assert not result.scores.frozen
        assert _top_json(result) is not _top_json(result)  # mutable: no memo
        result.scores.scale(2.0)


# ----------------------------------------------------------------------
# (e) Cache accounting
# ----------------------------------------------------------------------
class TestCacheAccounting:
    def solved(self, graph, seeds=(1, 2, 3), **cache_kwargs):
        """A cache holding one answered entry per seed: (cache, keys, results)."""
        cache = ScoreTableCache(**cache_kwargs)
        solver = MeLoPPRSolver(graph, CONFIG)
        queries = [PPRQuery(seed=seed, k=20) for seed in seeds]
        with QueryEngine(solver, result_cache=cache) as engine:
            results = engine.solve_batch(queries)
        keys = [stage_one_key(query, CONFIG) for query in queries]
        assert keys[0] == stage_one_cache_key(solver.plan(queries[0]))
        return cache, keys, results

    def test_answer_is_charged_to_the_entry_and_get_stays_bare(self, graph):
        cache, keys, results = self.solved(graph)
        cache.validate()
        state = cache.get(keys[0])
        assert type(state).__name__ == "StageOneState"
        assert cache.lookup(keys[0], results[0].query, graph)[1].scores is results[0].scores
        expected = sum(
            _entry_nbytes(cache.get(key)) + _answer_nbytes(result)
            for key, result in zip(keys, results)
        )
        assert cache.stats.current_bytes == expected
        assert _answer_nbytes(results[0]) == 16 * len(results[0].scores) + 32 * 20
        # The modelled size never changes: encoding the wire text is free.
        _top_json(results[0])
        cache.validate()

    def test_peek_answer_counts_only_when_it_serves(self, graph):
        cache, keys, results = self.solved(graph)
        before = cache.stats
        other = PPRQuery(seed=1, k=20, alpha=0.5)
        assert cache.peek_answer(keys[0], other, graph) is None
        assert cache.peek_answer(("no", "such", "key"), other, graph) is None
        assert cache.stats == before
        assert cache.peek_answer(keys[0], results[0].query, graph).scores is results[0].scores
        assert cache.stats.hits == before.hits + 1
        assert cache.stats.misses == before.misses

    def test_attach_past_the_budget_evicts_lru(self, graph):
        cache, keys, results = self.solved(graph)
        total = cache.stats.current_bytes
        bare = ScoreTableCache(max_bytes=total - 1)
        states = [cache.get(key) for key in keys]
        for key, state in zip(keys, states):
            assert bare.put(key, state, graph)
        for key, result in zip(keys, results):
            assert bare.attach_answer(key, result, graph)
            bare.validate()
        # Three states fit, three answered entries do not: the first went.
        assert bare.stats.evictions == 1
        assert keys[0] not in bare and keys[1] in bare and keys[2] in bare

    def test_answer_too_big_alone_is_declined_and_the_state_kept(self, graph):
        cache, keys, results = self.solved(graph, seeds=(1,))
        state = cache.get(keys[0])
        tight = ScoreTableCache(max_bytes=_entry_nbytes(state) + 8)
        assert tight.put(keys[0], state, graph)
        assert not tight.attach_answer(keys[0], results[0], graph)
        assert tight.lookup(keys[0], results[0].query, graph) == (state, None)
        assert tight.stats.evictions == 0
        tight.validate()
        assert not tight.attach_answer(("gone",), results[0], graph)

    def test_ttl_clear_and_resize_take_the_answer_with_the_entry(self, graph):
        now = [0.0]
        cache, keys, results = self.solved(
            graph, ttl_seconds=10.0, clock=lambda: now[0]
        )
        queries = [result.query for result in results]
        charged = [
            _entry_nbytes(cache.get(key)) + _answer_nbytes(result)
            for key, result in zip(keys, results)
        ]
        assert cache.stats.current_bytes == sum(charged)
        # Shrink to exactly the most recent entry: the others go, whole.
        assert cache.resize(charged[2]) == 2
        cache.validate()
        assert keys[0] not in cache and keys[1] not in cache
        assert cache.peek_answer(keys[0], queries[0], graph) is None
        assert cache.peek_answer(keys[2], queries[2], graph) is not None
        now[0] = 11.0
        assert cache.peek_answer(keys[2], queries[2], graph) is None
        assert cache.stats.current_bytes == 0 and cache.stats.expired == 1

    def test_carry_keeps_answers_out_of_reach(self, graph):
        cache, keys, results = self.solved(graph)
        bare = ScoreTableCache()
        for key in keys:
            bare.put(key, cache.get(key), graph)

        def centres(result):
            return {record.center_node for record in result.metadata["tasks"]}

        distances = np.full(graph.num_nodes, 99)
        distances[1] = 0  # seed 1 is touched: its entry is dropped
        # One stage-two centre of seed 2's answer is reached at exactly its
        # stage length (stripped, the state stays); one of seed 3's lies one
        # hop past it (kept whole).
        distances[max(centres(results[1]) - centres(results[2]) - {2})] = 3
        distances[max(centres(results[2]) - centres(results[1]) - {3})] = 4
        assert cache.carry(graph, graph, distances) == (1, 2, 1, 1)
        assert bare.carry(graph, graph, distances) == (1, 2, 0, 0)
        cache.validate()
        assert cache.stats.current_bytes == (
            bare.stats.current_bytes + _answer_nbytes(results[2])
        )
        assert cache.peek_answer(keys[0], results[0].query, graph) is None
        assert cache.peek_answer(keys[1], results[1].query, graph) is None
        assert cache.peek_answer(keys[2], results[2].query, graph).scores is results[2].scores
        assert cache.get(keys[1]) is bare.get(keys[1])


# ----------------------------------------------------------------------
# The batcher's fast path: counters, conservation, resets
# ----------------------------------------------------------------------
class TestFastPath:
    def test_conservation_and_stats_surfaces_after_a_mixed_run(self, graph):
        hot = [PPRQuery(seed=seed, k=20) for seed in (3, 41, 77)]
        engine = make_engine(graph)

        async def run():
            async with MicroBatcher(engine, BatchPolicy(max_batch_size=4)) as batcher:
                delivered = 0
                for wave in range(4):  # first wave computes, later ones replay
                    cold = [PPRQuery(seed=100 + wave, k=20)]
                    results = await asyncio.gather(
                        *(batcher.submit(query) for query in hot + hot + cold)
                    )
                    delivered += len(results)
                server = HttpQueryServer(batcher)
                host, port = await server.start()
                async with HttpClient(host, port) as client:
                    _, stats_doc = await client.request_json("GET", "/stats")
                    _, _, metrics = await client.request("GET", "/metrics")
                await server.stop()
                return delivered, batcher.stats(), stats_doc, metrics.decode()

        with engine:
            delivered, stats, stats_doc, metrics = asyncio.run(run())
        assert stats.fast_path_hits == 3 * len(hot + hot)
        admission = stats.admission
        assert admission.completed == delivered
        assert admission.completed == stats.batched_queries + stats.fast_path_hits
        assert admission.admitted == admission.completed and admission.pending == 0
        assert admission.shed == 0 and admission.latency.count == delivered
        # The engine served every unique query once, batched or not.
        assert stats.engine.queries_served == stats.unique_executed + stats.fast_path_hits
        assert stats.engine.latency.count == stats.engine.queries_served
        # Fast-path time is wall time too: on a serial engine no query's
        # latency falls outside it, so /stats' throughput stays believable.
        assert stats.engine.wall_seconds >= stats.engine.query_seconds * (1 - 1e-9)
        # (The first wave's second batch replays inside the engine instead.)
        assert stats.engine.result_cache.hits >= stats.fast_path_hits
        assert stats.engine.result_cache.lookups == stats.engine.queries_served
        assert stats_doc["fast_path_hits"] == stats.fast_path_hits
        scrape = parse_prometheus_text(metrics)
        assert scrape.types["repro_batcher_fast_path_hits_total"] == "counter"
        assert scrape.value("repro_batcher_fast_path_hits_total") == stats.fast_path_hits

    def test_fast_path_is_never_shed_and_skips_traced_submissions(self, graph):
        query = PPRQuery(seed=3, k=20)
        tracer = Tracer(sample_rate=0.0)
        engine = QueryEngine(
            MeLoPPRSolver(graph, CONFIG),
            result_cache=ScoreTableCache(),
            tracer=tracer,
        )

        async def run():
            admission = AdmissionController(max_pending=1)
            async with MicroBatcher(engine, admission=admission) as batcher:
                await batcher.submit(query)
                admission.set_max_pending(1)
                assert admission.try_admit()  # the queue is now full
                fast = await batcher.submit(query)
                ctx = tracer.start_trace("request", traceparent=TRACEPARENT)
                admission.cancel()  # free the slot for the traced query
                traced = await batcher.submit(query, trace=ctx)
                ctx.finish()
                return fast, traced, batcher.stats()

        with engine:
            fast, traced, stats = asyncio.run(run())
        assert stats.fast_path_hits == 1 and stats.admission.shed == 0
        assert fast.metadata["serving"]["result_cache"] == "answer"
        assert traced.metadata["serving"]["result_cache"] == "answer"
        (tree,) = tracer.traces()
        span = next(s for s in tree["spans"] if s["name"] == "engine.result_cache")
        assert span["attributes"]["outcome"] == "answer"

    @pytest.mark.parametrize("config", [CONFIG, WIDE], ids=["ratio", "count"])
    def test_engine_key_is_stage_one_key(self, graph, config):
        """The engine builds the key's config half once per ``(length, k)``;
        the key is still :func:`stage_one_key`'s, past the memo's bound."""
        queries = [
            PPRQuery(seed=seed, k=k, alpha=alpha, length=length)
            for seed in (0, 3)
            for alpha in (0.85, 0.5)
            for length in (6, 4, 7, 0)
            for k in (1, 20, 200)
        ]
        queries += [PPRQuery(seed=5, k=k) for k in range(1, 2 * _KEY_MEMO_SIZE)]
        with QueryEngine(MeLoPPRSolver(graph, config)) as engine:
            for query in queries + queries[:24]:
                assert engine._stage_one_key(query) == stage_one_key(query, config)
            assert len(engine._key_memo) <= _KEY_MEMO_SIZE

    def test_replay_copies_every_field_but_timing_and_metadata(self, graph):
        with make_engine(graph) as engine:
            (answer,) = engine.solve_batch([PPRQuery(seed=3, k=20)])
        copy = _replay(answer)
        for spec in dataclasses.fields(answer):
            if spec.name not in ("timing", "metadata"):
                assert getattr(copy, spec.name) is getattr(answer, spec.name)
        assert copy.metadata == answer.metadata
        assert copy.metadata is not answer.metadata
        assert copy.timing.total == 0.0 and copy.timing is not answer.timing

    def test_a_replay_counts_once_on_every_path(self, graph):
        # The interval around one fast-path replay, read as the difference
        # of two snapshots: every counter source moves by exactly that one.
        query = PPRQuery(seed=3, k=20)
        engine = make_engine(graph)

        async def run():
            async with MicroBatcher(engine) as batcher:
                await batcher.submit(query)
                await batcher.submit(query)
                before = batcher.stats()
                await batcher.submit(query)
                return before, batcher.stats()

        with engine:
            before, after = asyncio.run(run())
        assert (before.fast_path_hits, after.fast_path_hits) == (1, 2)
        served = after.engine.queries_served - before.engine.queries_served
        assert served == after.engine.latency.count - before.engine.latency.count == 1
        assert after.engine.batches == before.engine.batches
        assert after.engine.result_cache.hits - before.engine.result_cache.hits == 1
        assert after.engine.cache.hits - before.engine.cache.hits == 1
        wall = after.engine.wall_seconds - before.engine.wall_seconds
        query_seconds = after.engine.query_seconds - before.engine.query_seconds
        assert wall == pytest.approx(query_seconds) and wall > 0.0
        admitted = after.admission.admitted - before.admission.admitted
        assert admitted == after.admission.completed - before.admission.completed == 1
        assert after.admission.latency.count - before.admission.latency.count == 1
        assert after.admission.pending == 0


# ----------------------------------------------------------------------
# (c) The wire: spliced bytes == json.dumps of the response dict
# ----------------------------------------------------------------------
class TestWireBytes:
    IDS = [("absent", None), ("int", 7), ("str", 'q"é\\1')]

    def expected_bytes(self, body, request_id, query, reference, traced):
        """``json.dumps`` of the response dict the doors used to build."""
        payload = json.loads(body)
        response = {
            "id": request_id,
            "ok": True,
            "seed": query.seed,
            "k": query.k,
            "top": [[int(node), float(score)] for node, score in reference.top_k()],
            "latency_ms": payload["latency_ms"],
        }
        if traced:
            assert payload["trace_id"] == "ab" * 16
            response["trace_id"] = payload["trace_id"]
        else:
            assert "trace_id" not in payload
        response["proto"] = PROTOCOL_VERSION
        return json.dumps(response).encode("utf-8")

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("transport", ["http", "tcp"])
    def test_first_encode_and_replay_match_json_dumps(self, graph, transport, traced):
        engine = QueryEngine(
            MeLoPPRSolver(graph, CONFIG),
            result_cache=ScoreTableCache(),
            tracer=Tracer(sample_rate=0.0),
        )
        solver = MeLoPPRSolver(graph, CONFIG)

        async def run():
            bodies = []
            async with MicroBatcher(engine) as batcher:
                if transport == "http":
                    server = HttpQueryServer(batcher)
                    host, port = await server.start()
                    client = await HttpClient(host, port).connect()
                    headers = {"traceparent": TRACEPARENT} if traced else None

                    async def send(request):
                        status, _, body = await client.request(
                            "POST", "/query", request, headers=headers
                        )
                        assert status == 200
                        return body

                    close = client.close
                else:
                    server = AsyncQueryServer(batcher)
                    host, port = await server.start()
                    reader, writer = await asyncio.open_connection(host, port)

                    async def send(request):
                        if traced:
                            request = {**request, "trace": TRACEPARENT}
                        writer.write(json.dumps(request).encode() + b"\n")
                        await writer.drain()
                        line = await reader.readline()
                        assert line.endswith(b"\n")
                        return line[:-1]

                    async def close():
                        writer.close()
                        await writer.wait_closed()

                try:
                    for index, (_, request_id) in enumerate(self.IDS):
                        query = PPRQuery(seed=3 + index, k=15)
                        request = {"seed": query.seed, "k": query.k}
                        if request_id is not None:
                            request["id"] = request_id
                        for _ in range(3):  # compute, replay, replay
                            bodies.append((request_id, query, await send(request)))
                finally:
                    await close()
                    await server.stop()
                return bodies, batcher.stats()

        with engine:
            bodies, stats = asyncio.run(run())
        assert stats.fast_path_hits == (0 if traced else 2 * len(self.IDS))
        assert stats.engine.result_cache.hits == 2 * len(self.IDS)
        for request_id, query, body in bodies:
            assert body == self.expected_bytes(
                body, request_id, query, solver.solve(query), traced
            )

    @pytest.mark.parametrize("transport", ["http", "tcp"])
    def test_packed_answer_is_json_dumps_with_top_packed(self, graph, transport):
        query = PPRQuery(seed=3, k=15)
        engine = make_engine(graph)
        reference = MeLoPPRSolver(graph, CONFIG).solve(query)
        request = {"seed": query.seed, "k": query.k, "packed": True}

        async def run():
            async with MicroBatcher(engine) as batcher:
                if transport == "http":
                    server = HttpQueryServer(batcher)
                    async with server, HttpClient(*server.address) as client:
                        return [
                            (await client.request("POST", "/query", request))[2]
                            for _ in range(3)  # compute, replay, replay
                        ]
                async with AsyncQueryServer(batcher) as server:
                    reader, writer = await asyncio.open_connection(*server.address)
                    bodies = []
                    for _ in range(3):
                        writer.write(json.dumps(request).encode() + b"\n")
                        bodies.append((await reader.readline())[:-1])
                    writer.close()
                    return bodies

        with engine:
            bodies = asyncio.run(run())
        for body in bodies:
            response = {
                "id": None,
                "ok": True,
                "seed": query.seed,
                "k": query.k,
                "top_packed": pack_top(reference.top_k()),
                "latency_ms": json.loads(body)["latency_ms"],
                "proto": PROTOCOL_VERSION,
            }
            assert body == json.dumps(response).encode("utf-8")

    def test_request_log_says_why_a_query_was_fast(self, graph):
        engine = make_engine(graph)
        logger = configure_logging("info", json_mode=True)
        stream = io.StringIO()
        logger.handlers[0].setStream(stream)

        async def run():
            async with MicroBatcher(engine) as batcher:
                server = HttpQueryServer(batcher)
                host, port = await server.start()
                async with HttpClient(host, port) as client:
                    for _ in range(2):
                        await client.query({"seed": 3, "k": 10})
                await server.stop()

        try:
            with engine:
                asyncio.run(run())
        finally:
            configure_logging()  # restore the default (warning, plain)
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [line["result_cache"] for line in lines] == ["miss", "answer"]


# ----------------------------------------------------------------------
# (d) Race: the fast path against a stream of updates
# ----------------------------------------------------------------------
class TestFastPathUpdateRace:
    UPDATES = 8

    def test_every_answer_is_from_before_or_after_the_inflight_update(self, path):
        # Update i moves the chord hung on node 14 from 30+i-1 to 30+i.  Seed
        # 10's entry survives each one re-keyed while its answer changes, so
        # an answer kept across the re-key would show as a stale one.
        scripts = [
            [("insert", 14, 30 + index)]
            + ([("delete", 14, 29 + index)] if index else [])
            for index in range(self.UPDATES)
        ]
        versions = [path]
        for ops in scripts:
            versions.append(rebuilt(versions[-1], ops))
        queries = PATH_QUERIES
        expected = [
            {q: MeLoPPRSolver(g, WIDE).solve(q).top_k() for q in queries}
            for g in versions
        ]
        assert all(
            before[queries[0]] != after[queries[0]]
            for before, after in zip(expected, expected[1:])
        )

        engine = make_engine(path, config=WIDE)
        started = returned = 0  # updates begun / updates whose call returned
        stop = threading.Event()
        writer_error = []

        def writer():
            nonlocal started, returned
            try:
                for ops in scripts:
                    if stop.wait(0.02):  # let the callers re-warm the answers
                        return
                    started += 1
                    engine.apply_update(ops)
                    returned += 1
            except BaseException as exc:  # surfaced by the assertion below
                writer_error.append(exc)
                raise

        observed = []

        async def caller(batcher, offset):
            turn = offset
            while returned < self.UPDATES or turn < offset + 30:
                query = queries[turn % len(queries)]
                turn += 1
                low = returned
                result = await batcher.submit(query)
                high = started
                observed.append((query, low, high, result.top_k()))
                if returned == self.UPDATES and turn > offset + 2000:
                    break

        async def run():
            async with MicroBatcher(engine, BatchPolicy(max_batch_size=4)) as batcher:
                for query in queries:
                    await batcher.submit(query)
                thread = threading.Thread(target=writer, daemon=True)
                thread.start()
                try:
                    await asyncio.wait_for(
                        asyncio.gather(*(caller(batcher, n) for n in range(3))), 60
                    )
                finally:
                    stop.set()
                    await asyncio.get_running_loop().run_in_executor(
                        None, thread.join, 30
                    )
                assert not thread.is_alive(), "writer hung behind the callers"
                return batcher.stats()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with engine:
                stats = asyncio.run(run())
        finally:
            sys.setswitchinterval(interval)

        assert not writer_error and returned == self.UPDATES
        assert stats.fast_path_hits > 0 and stats.batches > self.UPDATES
        for query, low, high, top in observed:
            allowed = [expected[version][query] for version in range(low, high + 1)]
            assert top in allowed, (query, low, high)
        # After the last update returned, only the final graph's answers.
        settled = [entry for entry in observed if entry[1] == self.UPDATES]
        assert len(settled) >= 3 * 3
        assert all(top == expected[-1][query] for query, _, _, top in settled)
        assert stats.admission.completed == stats.batched_queries + stats.fast_path_hits
