"""Shared measurement helpers: statistics, RSS, calibration, references."""

from __future__ import annotations

import dataclasses
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery, PPRResult

from . import spec

Answer = List[List[float]]  # [[node, score], ...] exactly as the wire carries it


@dataclass
class Outcome:
    """What one run of one workload produced."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    inputs_sha256: str
    notes: Dict[str, object] = field(default_factory=dict)


@dataclass
class Scale:
    """Run sizes: the frozen full scale, or the smoke test's tiny one."""

    smoke: bool = False

    @property
    def stream_length(self) -> int:
        return 240 if self.smoke else spec.STREAM_LENGTH

    @property
    def setup_repeats(self) -> int:
        return 1 if self.smoke else spec.SETUP_REPEATS

    @property
    def ladder_queries(self) -> int:
        """Queries timed at each entry depth of a traced serving run."""
        return 60 if self.smoke else 500

    @property
    def warm_hot(self) -> int:
        """open_routed: hot seeds sent once through the fleet before timing
        (the head of the Zipf ranking; a cold replica answers ~100 a second)."""
        return 16 if self.smoke else 64

    @property
    def probe_repeats(self) -> int:
        return 5 if self.smoke else 100


def solver_config() -> MeLoPPRConfig:
    """The paper's defaults with tracemalloc off (it would dominate latency)."""
    return dataclasses.replace(MeLoPPRConfig.paper_default(), track_memory=False)


def query_for(seed: int) -> PPRQuery:
    return PPRQuery(seed=int(seed), k=spec.PAPER_K)


def answer_of(result: PPRResult) -> Answer:
    """A result's top-k in the wire form, for bit-for-bit comparison."""
    return [[int(node), float(score)] for node, score in result.top_k()]


def reference_answers(
    graph, seeds: Iterable[int], config: Optional[MeLoPPRConfig] = None
) -> Tuple[Dict[int, Answer], Dict[int, PPRResult], Dict[int, float]]:
    """Fresh uncached ``MeLoPPRSolver.solve`` per distinct seed.

    Returns the wire-form answers, the raw results (for their published
    counters) and each solve's wall seconds.
    """
    solver = MeLoPPRSolver(graph, config or solver_config())
    answers: Dict[int, Answer] = {}
    results: Dict[int, PPRResult] = {}
    walls: Dict[int, float] = {}
    for seed in dict.fromkeys(int(s) for s in seeds):
        start = time.perf_counter()
        result = solver.solve(query_for(seed))
        walls[seed] = time.perf_counter() - start
        results[seed] = result
        answers[seed] = answer_of(result)
    return answers, results, walls


# ----------------------------------------------------------------------
def ms(seconds: float) -> float:
    return seconds * 1e3


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set in MB (``ru_maxrss`` is KiB on Linux).

    ``children=True`` reads ``RUSAGE_CHILDREN``: the largest child that has
    been waited for, so call it after the fleet stopped.
    """
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Calibrator:
    """A fixed unit of work, run in short bursts between the measured blocks.

    This box is a few cores of a shared host.  The same code runs here at its
    own speed or about a third slower, switching every few milliseconds, and
    the share of slow time drifts between ~20 % and ~100 % over minutes
    (README.md, "Why timings are calibrated").  Whole runs therefore land up
    to 1.5x apart whatever they measure, and no statistic over a run's own
    samples can take that out.  The unit is slowed by the same factor as the
    program (it does the three kinds of work the program does: a Python-level
    scan of a dict, a JSON round trip, a sparse product), so the unit time
    just before and after a measured block says how slow the core was then.

    An end-to-end timing is reported divided by that slowdown: the time the
    block would have taken on a core that does one unit in
    :data:`spec.CALIBRATION_UNIT_MS`.  Units never run inside a measured wall.
    """

    def __init__(self) -> None:
        from scipy import sparse

        rng = np.random.default_rng(0)
        self._table = {node: float((node * 7919) % 2003) for node in range(2001)}
        self._answer = {"ok": True, "top": [[node, float(score)]
                                            for node, score in enumerate(rng.random(200))]}
        size, nnz = 20_000, 200_000
        self._matrix = sparse.csr_matrix(
            (rng.random(nnz), (rng.integers(0, size, nnz), rng.integers(0, size, nnz))),
            shape=(size, size),
        )
        self._vector = rng.random(size)
        #: ``(when it ended, seconds it took)`` of every unit run so far.
        self.units: List[Tuple[float, float]] = []
        self._previous = 0.0
        for _ in range(10):  # pages the unit in; not recorded
            self._unit()
        self.units.clear()

    def _unit(self) -> float:
        table, answer = self._table, self._answer
        start = time.perf_counter()
        for _ in range(3):
            min(table.items(), key=_score_then_node)
        for _ in range(3):
            json.loads(json.dumps(answer))
        self._matrix @ self._vector
        end = time.perf_counter()
        self.units.append((end, end - start))
        return end - start

    def burst(self, units: int = 4) -> float:
        """Run ``units`` units; their mean seconds."""
        return sum(self._unit() for _ in range(units)) / units

    def start(self, units: int = 4) -> None:
        """The burst before the first measured block."""
        self._previous = self.burst(units)

    def slowdown(self, units: int = 4, busy: float = 1.0) -> float:
        """The burst after a measured block; how many times slower than on
        the nominal core that block ran, judged by the two bursts around it.

        ``busy`` is the share of the block's wall this process spent on a
        core.  A slow core stretches only that share; the rest (a timer the
        program waits on) takes what it takes, so it is left as measured.
        """
        before, self._previous = self._previous, self.burst(units)
        core = ms((before + self._previous) / 2.0) / spec.CALIBRATION_UNIT_MS
        return 1.0 / ((1.0 - busy) + busy / core)

    def unit_ms(self) -> float:
        """Mean unit time over every unit so far."""
        return ms(mean([seconds for _, seconds in self.units]))

    def summary(self) -> Dict[str, float]:
        """For the result file: how much was calibrated away, on average."""
        return {"units": len(self.units), "unit_ms": self.unit_ms(),
                "nominal_unit_ms": spec.CALIBRATION_UNIT_MS,
                "mean_slowdown": self.unit_ms() / spec.CALIBRATION_UNIT_MS}


#: Units in the bursts around one set-up: a set-up is one long block (0.3-1 s),
#: so its two bursts are all that says how slow the core was.
SETUP_UNITS = 12


def _score_then_node(item: Tuple[int, float]) -> Tuple[float, int]:
    return item[1], -item[0]


def timed(fn: Callable[[], object]) -> Tuple[float, object]:
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


# ----------------------------------------------------------------------
def engine_depth_metrics(results: Sequence[PPRResult], walls: Sequence[float]) -> Dict[str, float]:
    """Per-layer numbers from the counters a result already publishes.

    ``result.timing`` carries the solver's ``bfs`` / ``diffusion`` /
    ``aggregation`` / ``selection`` buckets (``bfs`` includes the cache hook
    when one is wired in) and ``result.metadata`` the task records; all
    ``*_ms`` values are means per query.
    """
    count = max(1, len(results))
    bucket = {name: 0.0 for name in ("bfs", "diffusion", "aggregation", "selection")}
    tasks = edges = propagations = updates = evictions = 0
    for result in results:
        for name in bucket:
            bucket[name] += result.timing.seconds.get(name, 0.0)
        records = result.metadata["tasks"]
        tasks += len(records)
        edges += sum(record.bfs_edges_scanned for record in records)
        propagations += sum(record.propagations for record in records)
        updates += sum(record.subgraph_nodes for record in records)
        updates += int(result.metadata["num_next_stage_tasks"])
        evictions += int(result.metadata["score_table_evictions"])
    solve = sum(bucket.values())
    wall = float(sum(walls))
    return {
        "graph.bfs.extract_ms": ms(bucket["bfs"] / count),
        "graph.bfs.calls_per_query": tasks / count,
        "graph.bfs.edges_scanned_per_query": edges / count,
        "diffusion.diffuse_ms": ms(bucket["diffusion"] / count),
        "diffusion.propagations_per_query": propagations / count,
        "meloppr.aggregation.fold_ms": ms(bucket["aggregation"] / count),
        "meloppr.aggregation.updates_per_query": updates / count,
        "meloppr.aggregation.evictions_per_query": evictions / count,
        "meloppr.aggregation.evictions_per_update": evictions / updates if updates else 0.0,
        "meloppr.selection.select_ms": ms(bucket["selection"] / count),
        "meloppr.planner.tasks_per_query": tasks / count,
        "meloppr.solver.solve_ms": ms(solve / count),
        "serving.engine.solve_batch_ms": ms(wall / count),
        "serving.engine.self_ms": ms((wall - solve) / count),
    }


def topk_ms(results: Sequence[PPRResult]) -> float:
    """Mean time of ranking one result's score table into its top-k."""
    sample = list(results)[:200]
    if not sample:
        return 0.0
    elapsed, _ = timed(lambda: [result.top_k() for result in sample])
    return ms(elapsed / len(sample))


def cache_counts(engine) -> Dict[str, Tuple[int, int]]:
    """``(hits, misses)`` of each cache tier of an engine, for :func:`hit_shares`."""
    tiers = {"serving.cache": engine.cache, "serving.result_cache": engine.result_cache}
    return {name: (tier.stats.hits, tier.stats.misses) for name, tier in tiers.items()}


def hit_shares(before, after) -> Dict[str, float]:
    """Hit share of each tier between two :func:`cache_counts` readings."""
    shares: Dict[str, float] = {}
    for name, (hits, misses) in after.items():
        hits, misses = hits - before[name][0], misses - before[name][1]
        shares[f"{name}.hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    return shares
