"""Rebuild ``cold_pool.json``: exact eviction counts of a uniform G3 panel.

Not part of a run.  ``cold_wide`` draws its queries from narrow bands of the
score-table eviction count (see :func:`generate.cold_draw`); this tool
computes that count for a uniformly sampled panel of G3 nodes and freezes it.
Run it again only when the G3 stand-in or the algorithm's fold order changes
— every run checks the frozen counts against the solver's own
``score_table_evictions`` and fails on a mismatch.

The bounded table's eviction scan makes a real solve of an overflowing seed
take seconds, so the count is taken from a replay instead: the query's plan is
driven with an *unbounded* table (selection does not read the table, so the
task list is the same) and the recorded folds go through a lazy-heap model of
``GlobalScoreTable`` that evicts exactly the same victims.

    PYTHONPATH=src python -m benchmarks.layered.build_cold_pool scan [part parts]
    PYTHONPATH=src python -m benchmarks.layered.build_cold_pool freeze

``scan`` counts every node of G3 with an edge (~13 CPU-minutes; slices can
run side by side) into ``out/``; ``freeze`` keeps the nodes inside the bands.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import os
import sys
from typing import Dict, List, Tuple

import numpy as np

from repro.graph.datasets import load_dataset
from repro.meloppr.solver import MeLoPPRSolver

from . import spec
from .cold_wide import drive_plan
from .common import solver_config
from .spans import SpanRecorder

#: Eviction levels, one query per level per pass; a band is the level +-2 %.
#: Their sum (14 900 evictions at ~0.31 ms each) makes a pass ~4.6 s at the
#: commit that froze them, and every band holds at least a dozen nodes.
LEVELS = (150, 250, 400, 600, 800, 1000, 1250, 1500, 1750, 2000, 2400, 2800)


def count_evictions(folds, capacity: int) -> int:
    """Evictions ``GlobalScoreTable(capacity)`` makes over the recorded folds.

    Same victims as the table's ``min`` scan — smallest score, ties to the
    larger node id — found with a heap whose stale entries are skipped.
    """
    scores: Dict[int, float] = {}
    heap: List[Tuple[float, int, int]] = []
    evictions = 0

    def add(node: int, score: float) -> None:
        nonlocal evictions
        if node in scores:
            scores[node] += score
            heapq.heappush(heap, (scores[node], -node, node))
            return
        scores[node] = score
        heapq.heappush(heap, (score, -node, node))
        if len(scores) > capacity:
            while True:
                value, _, victim = heapq.heappop(heap)
                if scores.get(victim) == value:
                    del scores[victim]
                    evictions += 1
                    return

    for kind, first, second in folds:
        if kind == "many":
            for node, score in zip(first.tolist(), second.tolist()):
                add(node, score)
        else:
            add(int(first), float(second))
    return evictions


def panel_counts(part: int = 0, parts: int = 1) -> List[Tuple[int, int]]:
    graph = load_dataset("G3")
    unbounded = dataclasses.replace(solver_config(), score_table_factor=None)
    solver = MeLoPPRSolver(graph, unbounded)
    capacity = solver_config().score_table_capacity(spec.PAPER_K)
    (panel,) = np.nonzero(graph.degrees() >= 1)
    counts: List[Tuple[int, int]] = []
    for node in panel[part::parts]:
        _, folds, _ = drive_plan(solver, int(node), 0, SpanRecorder())
        counts.append((int(node), count_evictions(folds, capacity)))
    return counts


def _levels_to_bands(levels, tolerance: float = 0.02) -> List[Tuple[int, int]]:
    return [(int(level * (1 - tolerance)), int(level * (1 + tolerance)) + 1) for level in levels]


OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def scan(part: int, parts: int) -> str:
    """Count one slice of the graph into ``out/cold_counts.part<i>.json``."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"cold_counts.part{part}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(panel_counts(part, parts), handle)
    return path


def freeze() -> str:
    """Every scanned slice, cut down to the bands, into ``cold_pool.json``."""
    counts: List[Tuple[int, int]] = []
    for name in sorted(os.listdir(OUT)):
        if name.startswith("cold_counts.part"):
            with open(os.path.join(OUT, name), "r", encoding="utf-8") as handle:
                counts += [(int(node), int(evictions)) for node, evictions in json.load(handle)]
    graph = load_dataset("G3")
    bands = _levels_to_bands(LEVELS)
    document = {
        "dataset": "G3",
        "fingerprint": graph.fingerprint(),
        "k": spec.PAPER_K,
        "capacity": solver_config().score_table_capacity(spec.PAPER_K),
        "scanned_nodes": len(counts),
        "overflowing_share": sum(1 for _, e in counts if e > 0) / max(1, len(counts)),
        "mean_evictions": sum(e for _, e in counts) / max(1, len(counts)),
        "bands": bands,
        "nodes": sorted(
            (node, evictions) for node, evictions in counts
            if any(low <= evictions <= high for low, high in bands)
        ),
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cold_pool.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, separators=(",", ":"))
    return path


def main(argv: List[str]) -> int:
    if argv[:1] == ["scan"]:
        part, parts = (int(argv[1]), int(argv[2])) if len(argv) == 3 else (0, 1)
        print(f"wrote {scan(part, parts)}")
        return 0
    if argv == ["freeze"]:
        print(f"wrote {freeze()}")
        return 0
    print(__doc__)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
