"""One conformance matrix: every serving mode answers as the serial solver.

A served answer may not depend on how the engine got it.  Every cell below
compares, bit for bit, what a mode serves with ``tests/oracle.py``'s serial
answer (``MeLoPPRSolver.solve``, one ball at a time), on the graph as given
or rebuilt from scratch after the cell's edge update.  The axes:

* **graph family** — ``oracle.FAMILIES`` (hubs, long diameters,
  communities, triangles, isolated nodes), queried from a hub, a median and
  a least-degree node, the median twice;
* **stage split** — the paper's two stages, three stages into an
  unbounded table, and the paper's split re-split to lengths 3, 1 and 0;
* **cache tiers** — none, a ``SubgraphCache`` whose budget the batch
  overflows, a ``ScoreTableCache``, and both;
* **executor** — ``serial`` and ``thread:2``;
* **phase** — the first answer, a resume from stage-one states only, an
  answer replay, answers kept across an update, and two engines sharing
  their caches across one engine's update.

Then a transport slice (the micro-batcher, the HTTP door and the TCP door,
with burst and staggered arrivals), random graphs and query mixes, and the
fault-injection cells: the oracle never runs the wave functions it judges,
and no serving path runs the per-ball ones.
"""

from __future__ import annotations

import asyncio
import functools
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.bfs import BALLS_PER_PASS
from repro.graph.datasets import load_dataset
from repro.graph.generators import barabasi_albert_graph, erdos_renyi_graph
from repro.graph.subgraph import Subgraph
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.selection import CountSelector, RatioSelector
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.serving import QueryEngine, ScoreTableCache, SubgraphCache, make_backend
from repro.serving.frontend import (
    AsyncQueryServer,
    BatchPolicy,
    HttpQueryServer,
    MicroBatcher,
    TcpQueryClient,
)
from repro.serving.frontend.http import HttpClientPool
from repro.serving.result_cache import stage_one_key
from repro.serving.tracing import Tracer
from oracle import (
    FAMILIES,
    ROLES,
    answer_bits,
    assert_same_answers,
    rebuilt,
    role_seed,
    serial_answers,
    wire_top,
)

#: Each split: the solver's config and the walk length of each query (one
#: per seed).  ``resplit`` re-splits the paper's stages per query: lengths
#: 3, 1 and 0 in one batch.
SPLITS = {
    "3+3": (MeLoPPRConfig(selector=RatioSelector(0.1), track_memory=False), (6, 6, 6, 6)),
    "1+2+3": (
        MeLoPPRConfig(
            stage_lengths=(1, 2, 3),
            selector=RatioSelector(0.1),
            score_table_factor=None,
            track_memory=False,
        ),
        (6, 6, 6, 6),
    ),
    "resplit": (MeLoPPRConfig(track_memory=False), (3, 1, 0, 1)),
}
EXECUTORS = ("serial", "thread:2")
TIERS = ("none", "subgraph", "result", "both")
#: The ``subgraph`` tier's budget: a few small balls, so on every family a
#: batch evicts or declines entries while the stage that installed them
#: still runs.
TIGHT_BYTES = 1024


@functools.lru_cache(maxsize=None)
def graph_of(family: str, updated: bool = False):
    graph = FAMILIES[family]()
    return rebuilt(graph, update_ops(family)) if updated else graph


@functools.lru_cache(maxsize=None)
def seeds_of(family: str):
    graph = graph_of(family)
    hub, median, least = (role_seed(graph, role) for role in ROLES)
    return (hub, median, least, median)


@functools.lru_cache(maxsize=None)
def update_ops(family: str):
    """Delete an edge at the first seed that has one, and join the next seed
    to the highest node it is not adjacent to."""
    graph, seeds = graph_of(family), seeds_of(family)
    cut = next(seed for seed in seeds if graph.degree(seed) > 0)
    join = next(seed for seed in seeds if seed != cut)
    linked = set(graph.neighbors(join).tolist()) | {join}
    other = max(node for node in range(graph.num_nodes) if node not in linked)
    return (("delete", cut, int(graph.neighbors(cut)[0])), ("insert", join, other))


def queries_of(family: str, split: str):
    lengths = SPLITS[split][1]
    return [PPRQuery(seed=seed, k=5, length=length) for seed, length in zip(seeds_of(family), lengths)]


@functools.lru_cache(maxsize=None)
def expected(family: str, split: str, updated: bool = False):
    """The oracle's answers to the cell's queries."""
    return serial_answers(graph_of(family, updated), SPLITS[split][0], queries_of(family, split))


def new_caches(tier: str):
    subgraph = result = None
    if tier in ("subgraph", "both"):
        subgraph = SubgraphCache(TIGHT_BYTES if tier == "subgraph" else 32 << 20)
    if tier in ("result", "both"):
        result = ScoreTableCache()
    return subgraph, result


def make_engine(family, split, executor, caches):
    subgraph, result = caches
    return QueryEngine(
        MeLoPPRSolver(graph_of(family), SPLITS[split][0]),
        backend=make_backend(executor),
        cache=subgraph,
        result_cache=result,
    )


def same(results, reference, caches):
    """The oracle's bits; the extraction-cache counts only when none ran."""
    assert_same_answers(results, reference, extraction_cache=caches[0] is not None)


def validate(caches, tier):
    """Each cache's own invariants, and what its budget promises."""
    for cache in caches:
        if cache is not None:
            cache.validate()
    subgraph = caches[0]
    if tier == "subgraph":
        assert subgraph.stats.current_bytes <= TIGHT_BYTES
    if tier == "both":  # the roomy budget: nothing leaves for want of room
        assert (subgraph.stats.evictions, subgraph.stats.rejected) == (0, 0)


def outcomes(results):
    return [result.metadata["serving"]["result_cache"] for result in results]


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("split", sorted(SPLITS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestMatrix:
    @pytest.mark.parametrize("tier", TIERS)
    def test_first_answer_and_kept_across_an_update(self, family, split, executor, tier):
        caches = new_caches(tier)
        queries = queries_of(family, split)
        served = []
        with make_engine(family, split, executor, caches) as engine:
            for updated in (False, True):
                if updated:
                    outcome = engine.apply_update(update_ops(family))
                # What a cache kept from the first batch serves the second.
                batches = [engine.solve_batch(queries) for _ in range(1 + (tier != "none"))]
                for results in batches:
                    same(results, expected(family, split, updated), caches)
                served += batches
            stats = engine.stats()
        assert outcome["new_fingerprint"] == graph_of(family, True).fingerprint()
        assert stats.queries_served == len(queries) * len(served)
        assert {
            (result.metadata["serving"]["backend"], result.metadata["serving"]["cache_enabled"])
            for results in served
            for result in results
        } == {(stats.backend, caches[0] is not None)}
        # The engine's cache field sums both tiers' counters.
        assert (stats.cache is None) is (tier == "none")
        if caches[1] is not None:
            assert stats.cache.hits >= caches[1].stats.hits
            if executor == "serial":
                # Serially, the repeated seed replays the answer its first
                # occurrence attached, and the second batch replays them all.
                assert outcomes(served[0]) == ["miss", "miss", "miss", "answer"]
                assert set(outcomes(served[1])) == {"answer"}
            # Every answer's outcome is one of the result cache's lookups.
            seen = Counter(label for results in served for label in outcomes(results))
            result_stats = caches[1].stats
            assert result_stats.lookups == stats.queries_served
            assert (result_stats.hits, result_stats.misses) == (
                stats.queries_served - seen["miss"],
                seen["miss"],
            )
        validate(caches, tier)

    @pytest.mark.parametrize("tier", ("result", "both"))
    def test_state_resume(self, family, split, executor, tier):
        caches = new_caches(tier)
        queries = queries_of(family, split)
        config = SPLITS[split][0]
        with make_engine(family, split, executor, caches) as engine:
            same(engine.solve_batch(queries), expected(family, split), caches)
        # A cache holding the stage-one states and no answer: every query
        # resumes its plan past stage one.
        states = ScoreTableCache()
        for query in queries:
            key = stage_one_key(query, config)
            assert states.put(key, caches[1].get(key), graph_of(family))
        with make_engine(family, split, executor, (caches[0], states)) as engine:
            resumed = engine.solve_batch(queries)
        same(resumed, expected(family, split), caches)
        assert "hit" in outcomes(resumed)
        assert set(outcomes(resumed)) <= {"hit", "answer"}
        validate((caches[0], states), tier)

    @pytest.mark.parametrize("tier", ("result", "both"))
    def test_answer_replay(self, family, split, executor, tier):
        caches = new_caches(tier)
        queries = queries_of(family, split)
        with make_engine(family, split, executor, caches) as engine:
            # One query per batch: across batches a repeat always replays.
            first = [engine.solve_batch([query])[0] for query in queries]
            again = engine.solve_batch(queries)
            cached = [engine.try_cached(query) for query in queries]
        for served in (first, again, cached):
            same(served, expected(family, split), caches)
        assert set(outcomes(again)) == {"answer"}
        validate(caches, tier)

    @pytest.mark.parametrize("tier", ("subgraph", "result", "both"))
    def test_two_engines_share_caches_across_an_update(self, family, split, executor, tier):
        caches = new_caches(tier)
        queries = queries_of(family, split)
        old, new = expected(family, split), expected(family, split, True)
        ahead = make_engine(family, split, executor, caches)
        behind = make_engine(family, split, executor, caches)
        with ahead, behind:
            same(ahead.solve_batch(queries), old, caches)
            ahead.apply_update(update_ops(family))
            # The engine still on the old graph serves the old graph's
            # answers: nothing its peer carried to the new graph reaches it.
            same(behind.solve_batch(queries), old, caches)
            behind.apply_update(update_ops(family))
            same(behind.solve_batch(queries), new, caches)
            # ... and the peer's update leaves what the first one carried
            # right.
            same(ahead.solve_batch(queries), new, caches)
        validate(caches, tier)


#: A stage wider than one wave: 80 balls chosen per stage on the clustered
#: family, into the paper's bounded table or an unbounded one.
WIDE = {
    factor: MeLoPPRConfig(
        stage_lengths=(1, 2, 3),
        selector=CountSelector(80),
        score_table_factor=factor,
        track_memory=False,
    )
    for factor in (10, None)
}


@functools.lru_cache(maxsize=None)
def wide_expected(factor, updated: bool):
    graph = graph_of("clustered", updated)
    return serial_answers(graph, WIDE[factor], queries_of("clustered", "1+2+3"))


class TestTheMatrixHasPower:
    """The cells would see a stale answer and an overflowing budget, and a
    stage wider than a wave answers as the oracle."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_the_update_moves_an_answer(self, family):
        before, after = expected(family, "3+3"), expected(family, "3+3", True)
        assert any(answer_bits(old) != answer_bits(new) for old, new in zip(before, after))

    @pytest.mark.parametrize("tier", ("none", "subgraph", "both"))
    @pytest.mark.parametrize("factor", sorted(WIDE, key=str))
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_a_stage_wider_than_a_wave(self, executor, factor, tier):
        """Before and after an update; the tight budget holds fewer bytes
        than one stage's balls."""
        widest = max(
            Counter(record.stage_index for record in result.metadata["tasks"]).most_common(1)[0][1]
            for result in wide_expected(factor, False)
        )
        assert widest > BALLS_PER_PASS
        caches = new_caches(tier)
        engine = QueryEngine(
            MeLoPPRSolver(graph_of("clustered"), WIDE[factor]),
            backend=make_backend(executor),
            cache=caches[0],
            result_cache=caches[1],
        )
        with engine:
            for updated in (False, True):
                if updated:
                    engine.apply_update(update_ops("clustered"))
                queries = queries_of("clustered", "1+2+3")
                same(engine.solve_batch(queries), wide_expected(factor, updated), caches)
        if tier == "subgraph":
            assert caches[0].stats.evictions + caches[0].stats.rejected > 0
        validate(caches, tier)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_the_budgets_hit_and_only_the_tight_one_overflows(self, family):
        """Over the splits, two batches each: the tight budget both hits and
        overflows, and a roomy one hits and never overflows."""
        totals = Counter()
        for split in sorted(SPLITS):
            for budget in (TIGHT_BYTES, 32 << 20):
                cache = SubgraphCache(budget)
                with make_engine(family, split, "serial", (cache, None)) as engine:
                    for _ in range(2):
                        engine.solve_batch(queries_of(family, split))
                totals[budget, "hits"] += cache.stats.hits
                totals[budget, "overflows"] += cache.stats.evictions + cache.stats.rejected
        assert totals[TIGHT_BYTES, "hits"] > 0 and totals[TIGHT_BYTES, "overflows"] > 0
        assert totals[32 << 20, "hits"] > 0 and totals[32 << 20, "overflows"] == 0


# ----------------------------------------------------------------------
# The transport slice
# ----------------------------------------------------------------------
TRANSPORT_FAMILY, TRANSPORT_SPLIT = "scale-free", "3+3"


async def _arrive(send, queries, staggered: bool):
    """Every query's answer: all at once, or one every 2 ms."""
    if not staggered:
        return await asyncio.gather(*(send(query) for query in queries))
    tasks = []
    for query in queries:
        tasks.append(asyncio.ensure_future(send(query)))
        await asyncio.sleep(0.002)
    return await asyncio.gather(*tasks)


async def _through_batcher(batcher, queries, staggered):
    answers = await _arrive(batcher.submit, queries, staggered)
    return [wire_top(answer) for answer in answers], answers


async def _through_http(batcher, queries, staggered):
    server = HttpQueryServer(batcher, "127.0.0.1", 0)
    host, port = await server.start()
    try:
        async with HttpClientPool(host, port, size=2) as pool:

            async def send(query):
                status, body = await pool.query({"seed": query.seed, "k": query.k})
                assert status == 200, body
                return body["top"]

            return await _arrive(send, queries, staggered), None
    finally:
        await server.stop()


async def _through_tcp(batcher, queries, staggered):
    server = AsyncQueryServer(batcher)
    host, port = await server.start()
    client = await TcpQueryClient.connect(host, port)
    try:

        async def send(query):
            return [[node, score] for node, score in await client.solve(query.seed, query.k)]

        return await _arrive(send, queries, staggered), None
    finally:
        await client.close()
        await server.stop()


DOORS = {"batcher": _through_batcher, "http": _through_http, "tcp": _through_tcp}


class TestTransports:
    @pytest.mark.parametrize("staggered", [False, True], ids=["burst", "staggered"])
    @pytest.mark.parametrize("door", sorted(DOORS))
    def test_every_door_answers_as_the_oracle(self, door, staggered):
        queries = queries_of(TRANSPORT_FAMILY, TRANSPORT_SPLIT) * 2
        reference = expected(TRANSPORT_FAMILY, TRANSPORT_SPLIT) * 2
        engine = make_engine(
            TRANSPORT_FAMILY, TRANSPORT_SPLIT, "thread:2", new_caches("both")
        )

        async def run():
            async with MicroBatcher(engine, BatchPolicy(max_batch_size=4)) as batcher:
                return await DOORS[door](batcher, queries, staggered)

        with engine:
            tops, results = asyncio.run(run())
        assert tops == [wire_top(answer) for answer in reference]
        if results is not None:
            assert_same_answers(results, reference, extraction_cache=True)


# ----------------------------------------------------------------------
# Random graphs and query mixes
# ----------------------------------------------------------------------
@st.composite
def graphs_and_streams(draw):
    """A random small BA or ER graph and a query mix over it, every query
    with its own k, alpha and length, replayed once in the same batch."""
    rng = draw(st.integers(min_value=0, max_value=2**16))
    num_nodes = draw(st.integers(min_value=30, max_value=100))
    if draw(st.booleans()):
        graph = barabasi_albert_graph(num_nodes, draw(st.integers(1, 3)), rng=rng)
    else:
        graph = erdos_renyi_graph(num_nodes, draw(st.floats(0.02, 0.12)), rng=rng)
    queries = draw(
        st.lists(
            st.builds(
                PPRQuery,
                seed=st.integers(0, num_nodes - 1),
                k=st.integers(1, 40),
                alpha=st.sampled_from([0.5, 0.85, 0.99]),
                length=st.sampled_from([0, 1, 2, 4, 6]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return graph, queries + queries


class TestRandomGraphs:
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        case=graphs_and_streams(),
        executor=st.sampled_from(EXECUTORS),
        budget=st.sampled_from([TIGHT_BYTES, 32 << 20]),
        track_memory=st.booleans(),
    )
    def test_fresh_engines(self, case, executor, budget, track_memory):
        graph, queries = case
        config = MeLoPPRConfig(track_memory=track_memory)
        with QueryEngine(
            MeLoPPRSolver(graph, config),
            backend=make_backend(executor),
            cache=SubgraphCache(budget),
            result_cache=ScoreTableCache(),
        ) as engine:
            results = engine.solve_batch(queries)
            again = engine.solve_batch(queries)
        reference = serial_answers(graph, config, queries)
        # The first batch installed every answer the second one replays.
        assert set(outcomes(again)) == {"answer"}
        # A tracemalloc peak differs run to run: then only the bits compare.
        counts = not track_memory
        assert_same_answers(results, reference, counts, extraction_cache=True)
        assert_same_answers(again, reference, counts, extraction_cache=True)

    @pytest.fixture(scope="class")
    def served(self):
        """One long-lived ``thread:2`` engine with both caches: the pool and
        the caches persist across examples, as in a long-lived server, so
        later examples replay tables earlier ones installed from other
        threads."""
        graph = barabasi_albert_graph(180, 2, rng=7, name="ba180")
        engine = QueryEngine(
            MeLoPPRSolver(graph, MeLoPPRConfig(track_memory=False)),
            backend=make_backend("thread:2"),
            cache=SubgraphCache(),
            result_cache=ScoreTableCache(),
        )
        yield engine
        engine.close()

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_one_long_lived_engine(self, served, data):
        graph = served.solver.graph
        queries = data.draw(
            st.lists(
                st.builds(
                    PPRQuery,
                    seed=st.integers(0, graph.num_nodes - 1),
                    k=st.integers(1, 40),
                    alpha=st.sampled_from([0.5, 0.85, 0.99]),
                    length=st.sampled_from([0, 1, 2, 4, 6]),
                ),
                min_size=1,
                max_size=5,
            )
        )
        reference = serial_answers(graph, served.solver.config, queries)
        assert_same_answers(served.solve_batch(queries), reference, extraction_cache=True)


# ----------------------------------------------------------------------
# Fault injection: who runs what
# ----------------------------------------------------------------------
def _patch_everywhere(monkeypatch, names, message):
    """Make every ``repro`` module's binding of each name raise."""

    def boom(*args, **kwargs):
        raise AssertionError(message)

    patched = []
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "repro":
            continue
        for name in names:
            if callable(getattr(module, name, None)):
                monkeypatch.setattr(module, name, boom)
                patched.append(f"{module_name}.{name}")
    return patched


def test_the_oracle_never_runs_what_it_judges(monkeypatch):
    """The serial answer never enters the wave executor, the wave extraction
    or the wave diffusion the served answers are judged by."""
    graph = load_dataset("G1")
    config = MeLoPPRConfig(track_memory=False)
    queries = [PPRQuery(seed=seed, k=20) for seed in (0, 7, 42, 300)]
    before = serial_answers(graph, config, queries)
    patched = _patch_everywhere(
        monkeypatch, ("execute_stage", "extract_wave", "stage_diffusion"), "judged function called"
    )
    # Each binding a serving path reaches, including the planner's own.
    assert {
        "repro.meloppr.planner.execute_stage",
        "repro.meloppr.planner.extract_wave",
        "repro.meloppr.planner.stage_diffusion",
        "repro.graph.bfs.extract_wave",
        "repro.diffusion.diffusion.stage_diffusion",
        "repro.serving.cache.extract_wave",
    } <= set(patched)
    assert_same_answers(serial_answers(graph, config, queries), before)
    for cache in (None, SubgraphCache()):
        with QueryEngine(MeLoPPRSolver(graph, config), cache=cache) as engine:
            with pytest.raises(AssertionError, match="judged function called"):
                engine.solve_batch(queries)


def test_no_serving_path_runs_the_per_ball_functions(monkeypatch):
    """Every serving path extracts and diffuses a stage in waves: with the
    per-ball extraction and diffusion raising, each engine cell — cached or
    not, either split, traced or not, either executor — still returns the
    oracle's answers."""
    family, queries = "scale-free", [PPRQuery(seed=seed, k=10) for seed in (0, 7, 42)]
    graph = graph_of(family)
    splits = ("3+3", "1+2+3")
    reference = {split: serial_answers(graph, SPLITS[split][0], queries) for split in splits}
    _patch_everywhere(
        monkeypatch, ("extract_ego_subgraph", "graph_diffusion"), "per-ball function called"
    )
    tracer = Tracer(sample_rate=1.0)
    for tier in ("none", "both"):
        for split in splits:
            for traced in (False, True):
                for executor in EXECUTORS:
                    contexts = [tracer.start_trace() for _ in queries] if traced else None
                    caches = new_caches(tier)
                    with make_engine(family, split, executor, caches) as engine:
                        results = engine.solve_batch(queries, contexts)
                    same(results, reference[split], caches)
                    for ctx in contexts or ():
                        assert "extract" in {span.name for span in ctx.spans}


def test_no_serving_path_builds_a_csr_ball(monkeypatch):
    """A wave stays push-form entries from extraction to fold, cached or not:
    no induced CSR sub-graph and no per-ball BFS record is built, a cache
    restacks the balls it kept, and every answer and count is still the
    oracle's."""
    family, split = "clustered", "3+3"
    queries, reference = queries_of(family, split), expected(family, split)

    def boom(*args, **kwargs):
        raise AssertionError("CSR ball built on a serving path")

    monkeypatch.setattr(Subgraph, "induced", boom)
    monkeypatch.setattr("repro.graph.bfs.BFSResult", boom)
    for executor in EXECUTORS:
        for cache in (None, SubgraphCache()):
            caches = (cache, None)
            with make_engine(family, split, executor, caches) as engine:
                for _ in range(2):  # cold, then served from the cache's hits
                    same(engine.solve_batch(queries), reference, caches)
            if cache is not None:
                assert cache.stats.hits and cache.stats.misses
                cache.validate()


#: Every candidate chosen at every stage into the paper's bounded table: each
#: of these queries has a stage holding more balls than the widest wave
#: below, and its table evicts.
BOUNDARY_CONFIG = MeLoPPRConfig(
    stage_lengths=(1, 2, 3), selector=RatioSelector(1.0), track_memory=False
)
WIDTHS = (1, 2, 5)


@pytest.mark.parametrize("width", WIDTHS)
def test_wave_boundaries_do_not_show(width, monkeypatch):
    """At any wave width the engine returns the oracle's bits — with a node
    carried by balls in different waves, a table evicting across waves, and
    waves that mix cache hits with misses — uncached and cached."""
    graph = graph_of("scale-free")
    queries = [PPRQuery(seed=seed, k=10) for seed in sorted(set(seeds_of("scale-free")))]
    reference = serial_answers(graph, BOUNDARY_CONFIG, queries)
    for result in reference:
        stage_widths = Counter(record.stage_index for record in result.metadata["tasks"])
        assert max(stage_widths.values()) > max(WIDTHS)
    assert all(result.metadata["score_table_evictions"] for result in reference)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and hasattr(module, "BALLS_PER_PASS"):
            monkeypatch.setattr(module, "BALLS_PER_PASS", width)
    cache = SubgraphCache()
    for caches in ((None, None), (cache, None)):
        engine = QueryEngine(MeLoPPRSolver(graph, BOUNDARY_CONFIG), cache=caches[0])
        with engine:
            for _ in range(2):  # the second batch is served from the caches
                same(engine.solve_batch(queries), reference, caches)
    assert cache.stats.hits and cache.stats.misses
    validate((cache, None), "both")
