"""Micro-benchmarks of the core kernels (not a paper artefact).

These benchmarks track the throughput of the building blocks the experiments
lean on — BFS extraction, the diffusion kernels and a full MeLoPPR query — so
performance regressions in the substrate are visible independently of the
paper-level sweeps.

Every registered diffusion kernel gets its own benchmark on the same
one-hot workload, and ``test_kernel_speedup_floor`` asserts the headline
claim of the kernel registry: the ``auto`` kernel diffuses at least 3x
faster than the ``reference`` ``np.add.at`` implementation on a realistic
local-PPR sub-graph.

Run under pytest (``pytest benchmarks/bench_kernels.py``) or standalone::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--json out.json]
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Callable, Dict, List, Optional

import numpy as np
import pytest

from repro.diffusion.diffusion import graph_diffusion, seed_vector
from repro.graph.bfs import extract_ego_subgraph
from repro.graph.datasets import load_dataset
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.selection import RatioSelector
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.local_ppr import LocalPPRSolver

#: Kernel labels benchmarked and emitted by the CLI.
KERNEL_LABELS = ("reference", "csr", "frontier", "auto")


@pytest.fixture(scope="module")
def citeseer():
    return load_dataset("G1")


@pytest.fixture(scope="module")
def pubmed():
    return load_dataset("G3")


@pytest.mark.benchmark(group="kernels")
def test_bench_bfs_extraction(benchmark, pubmed):
    """Depth-3 ego sub-graph extraction on the pubmed stand-in."""
    subgraph, _ = benchmark(extract_ego_subgraph, pubmed, 123, 3)
    assert subgraph.num_nodes > 1


@pytest.mark.benchmark(group="kernels")
@pytest.mark.parametrize("kernel", KERNEL_LABELS)
def test_bench_graph_diffusion(benchmark, pubmed, kernel):
    """Length-6 one-hot diffusion on the depth-6 ego sub-graph, per kernel."""
    subgraph, _ = extract_ego_subgraph(pubmed, 123, 6)
    initial = seed_vector(subgraph.num_nodes, subgraph.to_local(123))
    result = benchmark(
        graph_diffusion, subgraph.graph, initial, 6, 0.85, kernel=kernel
    )
    assert result.score_mass() == pytest.approx(1.0, abs=1e-6)


@pytest.mark.benchmark(group="kernels")
def test_bench_local_ppr_query(benchmark, citeseer):
    """The LocalPPR-CPU baseline answering one k=200 query."""
    solver = LocalPPRSolver(citeseer, track_memory=False)
    result = benchmark(solver.solve_seed, seed=42, k=200, length=6)
    assert result.top_k_nodes(1) == [42]


@pytest.mark.benchmark(group="kernels")
def test_bench_meloppr_query(benchmark, citeseer):
    """A full MeLoPPR query at the paper's default configuration."""
    config = MeLoPPRConfig.paper_default(0.02)
    solver = MeLoPPRSolver(
        citeseer,
        MeLoPPRConfig(
            stage_lengths=config.stage_lengths,
            selector=config.selector,
            score_table_factor=config.score_table_factor,
            track_memory=False,
        ),
    )
    result = benchmark(solver.solve_seed, seed=42, k=200, length=6)
    assert result.top_k_nodes(1) == [42]


def _legacy_diffusion(graph, initial: np.ndarray, length: int, alpha: float):
    """The pre-registry serial diffusion, reconstructed as a fixed baseline.

    This is what ``graph_diffusion`` compiled to before the kernel registry:
    a fresh operator per call (the planner built one per stage task), a
    ``np.repeat(np.arange(N), degrees)`` row-index rebuild inside **every**
    apply, and a boolean-mask degree sum per step for the work counter.  The
    speedup-floor test measures the new kernels against this, so the claim
    stays pinned to what the code actually did, not to the also-improved
    reference kernel.
    """
    degrees = graph.degrees()
    float_degrees = degrees.astype(np.float64)
    with np.errstate(divide="ignore"):
        inverse = np.where(float_degrees > 0, 1.0 / float_degrees, 0.0)
    residual = initial.copy()
    accumulated = np.zeros_like(initial)
    propagations = 0
    for step in range(length):
        accumulated += (1.0 - alpha) * (alpha**step) * residual
        propagations += int(degrees[residual != 0.0].sum())
        contribution = residual * inverse
        gathered = contribution[graph.indices]
        result = np.zeros(graph.num_nodes, dtype=np.float64)
        np.add.at(result, np.repeat(np.arange(graph.num_nodes), degrees), gathered)
        residual = result
    accumulated += (alpha**length) * residual
    return accumulated, residual, propagations


def _best_qps(fn: Callable[[], object], iterations: int, repeats: int) -> float:
    """Operations/second from the best of ``repeats`` timed loops."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iterations):
            fn()
        best = min(best, time.perf_counter() - start)
    return iterations / best


def test_kernel_speedup_floor(pubmed):
    """The acceptance claim: ``auto`` diffuses >= 3x the pre-registry loop."""
    subgraph, _ = extract_ego_subgraph(pubmed, 123, 6)
    initial = seed_vector(subgraph.num_nodes, subgraph.to_local(123))

    def run(kernel):
        return graph_diffusion(subgraph.graph, initial, 6, 0.85, kernel=kernel)

    result = run("auto")  # warm-up (operator + structure construction)
    assert result.score_mass() == pytest.approx(1.0, abs=1e-6)
    accumulated, residual, propagations = _legacy_diffusion(
        subgraph.graph, initial, 6, 0.85
    )
    # The new kernels must reproduce the legacy loop bit for bit.
    assert np.array_equal(result.accumulated, accumulated)
    assert np.array_equal(result.residual, residual)
    assert result.propagations == propagations

    legacy_qps = _best_qps(
        lambda: _legacy_diffusion(subgraph.graph, initial, 6, 0.85),
        iterations=10,
        repeats=3,
    )
    auto_qps = _best_qps(lambda: run("auto"), iterations=10, repeats=3)
    ratio = auto_qps / legacy_qps
    assert ratio >= 3.0, (
        f"auto kernel is only {ratio:.2f}x the pre-registry serial loop "
        f"({auto_qps:.0f} vs {legacy_qps:.0f} diffusions/s); the "
        "frontier-batched kernel should be at least 3x the np.add.at loop"
    )


def run_benchmark(repeats: int = 3) -> Dict[str, object]:
    """Measure every microbenchmark; returns the ``runs``-list document."""
    citeseer = load_dataset("G1")
    pubmed = load_dataset("G3")
    subgraph, _ = extract_ego_subgraph(pubmed, 123, 6)
    initial = seed_vector(subgraph.num_nodes, subgraph.to_local(123))
    meloppr = MeLoPPRSolver(
        citeseer,
        MeLoPPRConfig(
            stage_lengths=(3, 3),
            selector=RatioSelector(0.02),
            score_table_factor=10,
            track_memory=False,
        ),
    )

    runs: List[Dict[str, object]] = []

    def add(label: str, fn: Callable[[], object], iterations: int, **extra) -> float:
        fn()  # warm-up (operator/structure construction, caches)
        qps = _best_qps(fn, iterations=iterations, repeats=repeats)
        runs.append({"label": label, "throughput_qps": qps, **extra})
        return qps

    add("bfs_extract", lambda: extract_ego_subgraph(pubmed, 123, 3), iterations=10)
    legacy_qps = add(
        "diffusion:legacy",
        lambda: _legacy_diffusion(subgraph.graph, initial, 6, 0.85),
        iterations=10,
    )
    for kernel in KERNEL_LABELS:
        add(
            f"diffusion:{kernel}",
            lambda kernel=kernel: graph_diffusion(
                subgraph.graph, initial, 6, 0.85, kernel=kernel
            ),
            iterations=20,
        )
    for run in runs:
        if run["label"].startswith("diffusion:") and legacy_qps > 0:
            run["speedup_vs_legacy"] = run["throughput_qps"] / legacy_qps
    add(
        "meloppr:auto",
        lambda: meloppr.solve_seed(seed=42, k=200, length=6),
        iterations=5,
    )

    return {
        "workload": {
            "diffusion": "G3 ego(center=123, depth=6), one-hot length-6",
            "bfs_extract": "G3 depth-3 ego of node 123",
            "meloppr": "G1 seed 42, k=200, paper-default config",
            "repeats": repeats,
        },
        "runs": runs,
    }


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point printing (and optionally writing) the JSON."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3, help="best-of timing repeats")
    parser.add_argument("--json", default=None, help="also write the JSON report here")
    args = parser.parse_args(argv)

    document = json.dumps(run_benchmark(repeats=args.repeats), indent=2, sort_keys=True)
    print(document)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI only
    raise SystemExit(main())
