"""Experiment E12 — multi-core serving scaling (serial vs threads vs processes).

This study is not a paper artefact: it characterises the process-pool
backend added on top of the reproduction.  The repeated-seed workload of
:func:`~repro.experiments.workloads.make_repeated_seed_workload` is answered
by ``serial``, ``thread:N`` and ``process:N``
engines for every worker count in the sweep, and the study reports each
configuration's throughput, its speedup over serial, and — for every worker
count — the process pool's speedup over the *equally sized* thread pool,
which is the number that shows whether the GIL was actually the bottleneck.

Caching is enabled everywhere (the engine's sub-graph cache for serial and
threads, the per-worker caches for processes) so every configuration is the
backend's best serving setup, not a strawman.  Answers are verified
bit-identical across all configurations before the study returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.reporting import format_ratio, format_table
from repro.experiments.workloads import PAPER_STAGE_SPLIT, make_repeated_seed_workload
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.selection import RatioSelector
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.serving.cache import SubgraphCache
from repro.serving.engine import QueryEngine
from repro.serving.backends import make_backend
from repro.utils.rng import RngLike

__all__ = ["ProcessRun", "ProcessStudy", "run_process_study", "format_process"]


@dataclass(frozen=True)
class ProcessRun:
    """One backend configuration's measurements over the workload."""

    label: str
    backend: str
    workers: int
    num_queries: int
    wall_seconds: float
    throughput_qps: float
    mean_latency_seconds: float
    cache_hit_rate: Optional[float]
    speedup_vs_serial: float
    speedup_vs_threads: Optional[float]

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON emission."""
        return {
            "label": self.label,
            "backend": self.backend,
            "workers": self.workers,
            "num_queries": self.num_queries,
            "wall_seconds": self.wall_seconds,
            "throughput_qps": self.throughput_qps,
            "mean_latency_seconds": self.mean_latency_seconds,
            "cache_hit_rate": self.cache_hit_rate,
            "speedup_vs_serial": self.speedup_vs_serial,
            "speedup_vs_threads": self.speedup_vs_threads,
        }


@dataclass(frozen=True)
class ProcessStudy:
    """The serial / thread:N / process:N sweep over one workload."""

    dataset: str
    num_seeds: int
    repeat_factor: int
    k: int
    worker_counts: Tuple[int, ...]
    runs: Tuple[ProcessRun, ...]

    def by_label(self) -> Dict[str, ProcessRun]:
        """Runs keyed by configuration label."""
        return {run.label: run for run in self.runs}

    @property
    def baseline(self) -> ProcessRun:
        """The serial reference run."""
        return self.runs[0]

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON emission."""
        return {
            "dataset": self.dataset,
            "num_seeds": self.num_seeds,
            "repeat_factor": self.repeat_factor,
            "k": self.k,
            "worker_counts": list(self.worker_counts),
            "runs": [run.as_dict() for run in self.runs],
        }


def run_process_study(
    dataset: str = "G1",
    num_seeds: int = 8,
    repeat_factor: int = 4,
    worker_counts: Sequence[int] = (2, 4),
    k: int = 100,
    selection_ratio: float = 0.02,
    rng: RngLike = 17,
) -> ProcessStudy:
    """Measure multi-core serving scaling on a repeated-seed workload.

    Parameters
    ----------
    dataset:
        Dataset key of the host graph.
    num_seeds, repeat_factor, k:
        Workload shape (same generator as E10 — the acceptance workload of
        the process backend).
    worker_counts:
        Pool sizes to sweep; each gets a ``thread:N`` and a ``process:N`` run.
    selection_ratio:
        Solver selection knob (memory tracking is disabled so wall-clock
        reflects serving work, not tracemalloc overhead).
    """
    config = MeLoPPRConfig(
        stage_lengths=PAPER_STAGE_SPLIT,
        selector=RatioSelector(selection_ratio),
        score_table_factor=10,
        track_memory=False,
    )
    graph, queries = make_repeated_seed_workload(dataset, num_seeds, repeat_factor, k, rng)

    configurations: List[Tuple[str, str, int, bool]] = [("serial", "serial", 1, True)]
    for workers in worker_counts:
        configurations.append((f"thread:{workers}", f"thread:{workers}", workers, True))
        configurations.append((f"process:{workers}", f"process:{workers}", workers, True))

    runs: List[ProcessRun] = []
    reference_top_k: Optional[List[List[int]]] = None
    serial_qps = 0.0
    thread_qps_by_workers: Dict[int, float] = {}
    for label, backend_spec, workers, cached in configurations:
        backend = make_backend(backend_spec)
        # Worker processes cache extractions themselves; the engine-level
        # cache serves the single-process backends.
        engine_cache = (
            SubgraphCache()
            if cached and not getattr(backend, "executes_stage_tasks", False)
            else None
        )
        with QueryEngine(
            MeLoPPRSolver(graph, config), backend=backend, cache=engine_cache
        ) as engine:
            results = engine.solve_batch(queries)
            stats = engine.stats()
        top_k = [result.top_k_nodes() for result in results]
        if reference_top_k is None:
            reference_top_k = top_k
        elif top_k != reference_top_k:
            raise AssertionError(
                f"configuration {label} changed the answers — backends must be "
                "a pure performance choice"
            )
        qps = stats.throughput_qps
        if label == "serial":
            serial_qps = qps
        if label.startswith("thread:"):
            thread_qps_by_workers[workers] = qps
        speedup_vs_threads: Optional[float] = None
        if label.startswith("process:") and thread_qps_by_workers.get(workers, 0.0) > 0:
            speedup_vs_threads = qps / thread_qps_by_workers[workers]
        runs.append(
            ProcessRun(
                label=label,
                backend=stats.backend,
                workers=workers,
                num_queries=stats.queries_served,
                wall_seconds=stats.wall_seconds,
                throughput_qps=qps,
                mean_latency_seconds=stats.mean_latency_seconds,
                cache_hit_rate=None if stats.cache is None else stats.cache.hit_rate,
                speedup_vs_serial=(qps / serial_qps if serial_qps > 0 else 0.0),
                speedup_vs_threads=speedup_vs_threads,
            )
        )
    return ProcessStudy(
        dataset=dataset,
        num_seeds=num_seeds,
        repeat_factor=repeat_factor,
        k=k,
        worker_counts=tuple(worker_counts),
        runs=tuple(runs),
    )


def format_process(study: ProcessStudy) -> str:
    """Render the study as a text table."""
    headers = [
        "Configuration",
        "Backend",
        "Workers",
        "Queries",
        "Wall (s)",
        "QPS",
        "Mean lat (ms)",
        "Hit rate",
        "vs serial",
        "vs thread:N",
    ]
    rows = []
    for run in study.runs:
        rows.append(
            [
                run.label,
                run.backend,
                run.workers,
                run.num_queries,
                f"{run.wall_seconds:.3f}",
                f"{run.throughput_qps:.1f}",
                f"{run.mean_latency_seconds * 1e3:.2f}",
                "-" if run.cache_hit_rate is None else f"{run.cache_hit_rate:.0%}",
                format_ratio(run.speedup_vs_serial),
                (
                    "-"
                    if run.speedup_vs_threads is None
                    else format_ratio(run.speedup_vs_threads)
                ),
            ]
        )
    title = (
        f"E12 — multi-core serving scaling on {study.dataset} "
        f"({study.num_seeds} hot seeds x{study.repeat_factor}, "
        f"worker counts {list(study.worker_counts)})"
    )
    return format_table(headers, rows, title=title)


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point printing the table (and optionally JSON)."""
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="G1")
    parser.add_argument("--num-seeds", type=int, default=8)
    parser.add_argument("--repeat-factor", type=int, default=4)
    parser.add_argument(
        "--worker-counts", type=int, nargs="+", default=[2, 4]
    )
    parser.add_argument("--json", default=None, help="also write the JSON report here")
    args = parser.parse_args(argv)

    study = run_process_study(
        dataset=args.dataset,
        num_seeds=args.num_seeds,
        repeat_factor=args.repeat_factor,
        worker_counts=tuple(args.worker_counts),
    )
    print(format_process(study))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(study.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI only
    raise SystemExit(main())
