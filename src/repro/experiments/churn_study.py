"""Experiment E17 — streaming edge churn under surgical cache invalidation.

This study is the acceptance harness of the dynamic-graph path: a Zipfian
hot-seed query stream is answered in micro-batches while the host graph
churns between batches — each update step applies a batch of random edge
deletions and insertions through
:meth:`~repro.serving.engine.QueryEngine.apply_update`, which compacts a
:class:`~repro.graph.delta.DeltaGraph` overlay into a fresh canonical CSR
and *surgically* invalidates the cache tiers (ego-sub-graph cache, stage-one
score-table cache, shard halos) instead of clearing them.

Two invariants are asserted at **every** step of **every** run, across the
serial/thread/process backends and the sharded router:

* the engine's compacted graph is bit-identical to a from-scratch
  ``CSRGraph.from_edges`` rebuild of the evolving edge set (fingerprint
  equality — same CSR arrays);
* every answer matches a fresh, uncached serial solver on that rebuilt
  graph, score for score.

The sweep is update-rate × cache-budget per serving mode, and each run
reports the combined cache hit rate next to the invalidation counters —
showing how much cached state *survives* churn (the clear-everything
baseline would report a cold cache after every update; see
``benchmarks/bench_churn.py`` for that comparison under a gate).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.experiments.reporting import format_table
from repro.experiments.workloads import make_zipf_workload
from repro.graph.csr import CSRGraph
from repro.graph.delta import EdgeOp
from repro.graph.partition import partition_graph
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.selection import RatioSelector
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.serving.backends import make_backend
from repro.serving.cache import SubgraphCache
from repro.serving.engine import QueryEngine
from repro.serving.result_cache import ScoreTableCache
from repro.serving.sharding import ShardRouter
from repro.utils.rng import RngLike, ensure_rng

__all__ = [
    "ChurnRun",
    "ChurnStep",
    "make_churn_script",
    "ChurnStudy",
    "run_churn_study",
    "format_churn",
]

#: Serving modes every churn sweep exercises by default.
DEFAULT_MODES = ("serial", "thread:2", "sharded", "process:2")


def _edge_set(graph: CSRGraph) -> Set[Tuple[int, int]]:
    """The graph's undirected edge set as canonical ``(u < v)`` pairs."""
    sources = np.repeat(
        np.arange(graph.num_nodes, dtype=np.int64), graph.degrees()
    )
    targets = graph.indices.astype(np.int64)
    mask = sources < targets
    return set(zip(sources[mask].tolist(), targets[mask].tolist()))


@dataclass(frozen=True)
class ChurnStep:
    """One step of a pre-computed churn script (shared across runs).

    ``ops`` is the edge-op batch applied *before* answering ``batch``;
    ``fingerprint`` and ``reference_scores`` come from an independent
    from-scratch rebuild of the evolving edge set, answered by a fresh,
    uncached serial solver — the ground truth every serving mode must hit
    bit for bit.
    """

    batch: Tuple[PPRQuery, ...]
    ops: Tuple[EdgeOp, ...]
    fingerprint: str
    reference_scores: Tuple[Dict[int, float], ...]


def make_churn_script(
    graph: CSRGraph,
    queries: Sequence[PPRQuery],
    batch_size: int,
    update_rate: int,
    config: MeLoPPRConfig,
    rng: np.random.Generator,
) -> List[ChurnStep]:
    """Pre-compute the update stream and its ground truth for one rate.

    The script depends only on ``(graph, queries, batch_size, update_rate,
    rng)`` — every (mode, budget) run of the sweep replays the same ops and
    is checked against the same reference, so the expensive uncached
    reference solves are paid once per rate, not once per run.
    """
    batches = [
        tuple(queries[index : index + batch_size])
        for index in range(0, len(queries), batch_size)
    ]
    edge_set = _edge_set(graph)
    sorted_edges = sorted(edge_set)
    current = graph
    steps: List[ChurnStep] = []
    for index, batch in enumerate(batches):
        ops: List[EdgeOp] = []
        if index > 0 and update_rate > 0:
            for _ in range(update_rate):
                if rng.random() < 0.5 and sorted_edges:
                    position = int(rng.integers(len(sorted_edges)))
                    u, v = sorted_edges.pop(position)
                    edge_set.discard((u, v))
                    ops.append(("delete", u, v))
                else:
                    while True:
                        u = int(rng.integers(graph.num_nodes))
                        v = int(rng.integers(graph.num_nodes))
                        if u == v:
                            continue
                        edge = (u, v) if u < v else (v, u)
                        if edge not in edge_set:
                            break
                    edge_set.add(edge)
                    bisect.insort(sorted_edges, edge)
                    ops.append(("insert", edge[0], edge[1]))
            # The ground truth deliberately avoids DeltaGraph: an
            # independent from-scratch rebuild is what "bit-identical to
            # rebuilding" is measured against.
            current = CSRGraph.from_edges(
                graph.num_nodes, sorted_edges, name=graph.name
            )
        reference = MeLoPPRSolver(current, config)
        reference_scores = tuple(
            dict(reference.solve(query).scores.items()) for query in batch
        )
        steps.append(
            ChurnStep(
                batch=batch,
                ops=tuple(ops),
                fingerprint=current.fingerprint(),
                reference_scores=reference_scores,
            )
        )
    return steps


def _make_engine(
    mode: str, graph: CSRGraph, config: MeLoPPRConfig, cache_budget: int
) -> QueryEngine:
    """One serving mode's engine over ``graph`` with ``cache_budget`` tiers."""
    solver = MeLoPPRSolver(graph, config)
    if mode == "sharded":
        partition = partition_graph(
            graph, num_shards=4, halo_depth=max(config.stage_lengths)
        )
        router = ShardRouter(
            partition,
            cache_bytes=cache_budget,
            result_cache_bytes=cache_budget,
        )
        return QueryEngine(solver, router=router)
    backend = make_backend(mode)
    if getattr(backend, "executes_stage_tasks", False):
        # Worker processes own their extraction caches; the parent-side
        # result cache is the tier the update path must keep correct here.
        return QueryEngine(
            solver, backend=backend, result_cache=ScoreTableCache(cache_budget)
        )
    return QueryEngine(
        solver,
        backend=backend,
        cache=SubgraphCache(cache_budget),
        result_cache=ScoreTableCache(cache_budget),
    )


@dataclass(frozen=True)
class ChurnRun:
    """One (mode, update rate, cache budget) configuration's measurements."""

    label: str
    mode: str
    update_rate: int
    cache_budget_bytes: int
    num_queries: int
    num_updates: int
    wall_seconds: float
    throughput_qps: float
    hit_rate: Optional[float]
    shards_rebuilt: int
    subgraph_entries_dropped: int
    result_entries_dropped: int
    result_entries_rekeyed: int
    result_answers_kept: int
    result_answers_stripped: int
    identical: bool

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON emission."""
        return {
            "label": self.label,
            "mode": self.mode,
            "update_rate": self.update_rate,
            "cache_budget_bytes": self.cache_budget_bytes,
            "num_queries": self.num_queries,
            "num_updates": self.num_updates,
            "wall_seconds": self.wall_seconds,
            "throughput_qps": self.throughput_qps,
            "hit_rate": self.hit_rate,
            "shards_rebuilt": self.shards_rebuilt,
            "subgraph_entries_dropped": self.subgraph_entries_dropped,
            "result_entries_dropped": self.result_entries_dropped,
            "result_entries_rekeyed": self.result_entries_rekeyed,
            "result_answers_kept": self.result_answers_kept,
            "result_answers_stripped": self.result_answers_stripped,
            "identical": self.identical,
        }


@dataclass(frozen=True)
class ChurnStudy:
    """The update-rate × cache-budget sweep across serving modes."""

    dataset: str
    num_queries: int
    num_seeds: int
    batch_size: int
    k: int
    stage_lengths: Tuple[int, ...]
    update_rates: Tuple[int, ...]
    cache_budgets: Tuple[int, ...]
    modes: Tuple[str, ...]
    runs: Tuple[ChurnRun, ...]

    def by_label(self) -> Dict[str, ChurnRun]:
        """Runs keyed by configuration label."""
        return {run.label: run for run in self.runs}

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON emission."""
        return {
            "dataset": self.dataset,
            "num_queries": self.num_queries,
            "num_seeds": self.num_seeds,
            "batch_size": self.batch_size,
            "k": self.k,
            "stage_lengths": list(self.stage_lengths),
            "update_rates": list(self.update_rates),
            "cache_budgets": list(self.cache_budgets),
            "modes": list(self.modes),
            "runs": [run.as_dict() for run in self.runs],
        }


def _churn_label(mode: str, rate: int, budget: int) -> str:
    """Run label, e.g. ``sharded:r8:b256k`` (shared bench contract)."""
    return f"{mode}:r{rate}:b{budget // 1024}k"


def run_churn_study(
    dataset: str = "G1",
    num_queries: int = 64,
    num_seeds: int = 12,
    batch_size: int = 8,
    update_rates: Sequence[int] = (0, 6),
    cache_budgets: Sequence[int] = (256 * 1024, 4 * 1024 * 1024),
    modes: Sequence[str] = DEFAULT_MODES,
    k: int = 50,
    stage_lengths: Tuple[int, ...] = (3, 3),
    selection_ratio: float = 0.01,
    rng: RngLike = 7,
) -> ChurnStudy:
    """Sweep edge-churn rates and cache budgets across serving modes.

    Parameters
    ----------
    dataset:
        Dataset key of the (initial) host graph.
    num_queries, num_seeds, batch_size:
        Zipf-1.1 arrivals, their hot-seed pool, and the micro-batch size
        (one update step fires between consecutive batches).
    update_rates:
        Edge ops applied per update step (0 = static-graph baseline, which
        pins the no-churn hit rate the other rates are read against).
    cache_budgets:
        Byte budget applied to every cache tier of every mode.
    modes:
        Serving modes (backend specs, plus ``"sharded"`` for the
        :class:`~repro.serving.sharding.ShardRouter` path).
    k, stage_lengths, selection_ratio:
        Query/solver shape; memory tracking is off so wall-clock reflects
        serving work.

    Raises
    ------
    AssertionError
        If any step of any run diverges from the from-scratch rebuild —
        either the compacted graph's fingerprint or any query's scores.
    """
    base_rng = ensure_rng(rng)
    graph, queries = make_zipf_workload(
        dataset,
        num_queries,
        skew=1.1,
        num_seeds=num_seeds,
        k=k,
        length=sum(stage_lengths),
        rng=base_rng,
    )
    config = MeLoPPRConfig(
        stage_lengths=stage_lengths,
        selector=RatioSelector(selection_ratio),
        track_memory=False,
    )
    runs: List[ChurnRun] = []
    for rate in update_rates:
        script = make_churn_script(
            graph,
            queries,
            batch_size,
            rate,
            config,
            np.random.default_rng(10_000 + rate),
        )
        num_updates = sum(1 for step in script if step.ops)
        for budget in cache_budgets:
            for mode in modes:
                label = _churn_label(mode, rate, budget)
                invalidated = {
                    "shards_rebuilt": 0,
                    "subgraph_entries_dropped": 0,
                    "result_entries_dropped": 0,
                    "result_entries_rekeyed": 0,
                    "result_answers_kept": 0,
                    "result_answers_stripped": 0,
                }
                with _make_engine(mode, graph, config, budget) as engine:
                    for step in script:
                        if step.ops:
                            outcome = engine.apply_update(list(step.ops))
                            for key in invalidated:
                                invalidated[key] += outcome["invalidated"][key]
                            if (
                                engine.solver.graph.fingerprint()
                                != step.fingerprint
                            ):
                                raise AssertionError(
                                    f"{label}: compacted graph diverged from "
                                    "the from-scratch rebuild"
                                )
                        results = engine.solve_batch(list(step.batch))
                        scores = [
                            dict(result.scores.items()) for result in results
                        ]
                        if scores != list(step.reference_scores):
                            raise AssertionError(
                                f"{label}: answers diverged from the "
                                "from-scratch rebuild after an update"
                            )
                    stats = engine.stats()
                runs.append(
                    ChurnRun(
                        label=label,
                        mode=mode,
                        update_rate=int(rate),
                        cache_budget_bytes=int(budget),
                        num_queries=stats.queries_served,
                        num_updates=num_updates,
                        wall_seconds=stats.wall_seconds,
                        throughput_qps=stats.throughput_qps,
                        hit_rate=(
                            None if stats.cache is None else stats.cache.hit_rate
                        ),
                        identical=True,
                        **invalidated,
                    )
                )
    return ChurnStudy(
        dataset=dataset,
        num_queries=num_queries,
        num_seeds=num_seeds,
        batch_size=batch_size,
        k=k,
        stage_lengths=tuple(stage_lengths),
        update_rates=tuple(int(rate) for rate in update_rates),
        cache_budgets=tuple(int(budget) for budget in cache_budgets),
        modes=tuple(modes),
        runs=tuple(runs),
    )


def format_churn(study: ChurnStudy) -> str:
    """Render the study as a text table."""
    headers = [
        "Configuration",
        "Mode",
        "Rate",
        "Budget",
        "Queries",
        "Updates",
        "QPS",
        "Hit rate",
        "Shards rebuilt",
        "SG dropped",
        "RC dropped",
        "RC rekeyed",
        "Answers kept",
        "Answers stripped",
        "Identical",
    ]
    rows = []
    for run in study.runs:
        rows.append(
            [
                run.label,
                run.mode,
                run.update_rate,
                f"{run.cache_budget_bytes // 1024}k",
                run.num_queries,
                run.num_updates,
                f"{run.throughput_qps:.1f}",
                "-" if run.hit_rate is None else f"{run.hit_rate:.0%}",
                run.shards_rebuilt,
                run.subgraph_entries_dropped,
                run.result_entries_dropped,
                run.result_entries_rekeyed,
                run.result_answers_kept,
                run.result_answers_stripped,
                "yes" if run.identical else "NO",
            ]
        )
    title = (
        f"E17 — streaming edge churn on {study.dataset} "
        f"({study.num_queries} Zipf arrivals in batches of "
        f"{study.batch_size}, split {list(study.stage_lengths)}; every run "
        "verified bit-identical to from-scratch rebuilds)"
    )
    return format_table(headers, rows, title=title)


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point printing the table (and optionally JSON)."""
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="G1")
    parser.add_argument("--num-queries", type=int, default=64)
    parser.add_argument("--num-seeds", type=int, default=12)
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument(
        "--update-rates", type=int, nargs="+", default=[0, 6]
    )
    parser.add_argument(
        "--cache-budgets",
        type=int,
        nargs="+",
        default=[256 * 1024, 4 * 1024 * 1024],
    )
    parser.add_argument(
        "--modes", nargs="+", default=list(DEFAULT_MODES)
    )
    parser.add_argument("--json", default=None, help="also write the JSON report here")
    args = parser.parse_args(argv)

    study = run_churn_study(
        dataset=args.dataset,
        num_queries=args.num_queries,
        num_seeds=args.num_seeds,
        batch_size=args.batch_size,
        update_rates=tuple(args.update_rates),
        cache_budgets=tuple(args.cache_budgets),
        modes=tuple(args.modes),
    )
    print(format_churn(study))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(study.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI only
    raise SystemExit(main())
