"""The cached serving path, pinned: a fixed G1 Zipf + edge-churn trace.

One cached :class:`~repro.serving.engine.QueryEngine` (both cache tiers on,
``serial``) serves a Zipf(1.1) stream over 128 hot seeds with a batch of
edge ops after every 40 queries.  For every query the SHA-256 of its top-k
(ids and score bits) and its ``result_cache`` outcome are compared with
``tests/golden/cached_path_g1.json``; for every update its invalidation
counts; at the end both tiers' hits and misses.  The file was written once
and is never regenerated to make a change pass: a difference is a change in
what the cached path serves, or in what it keeps.

To write the file afresh (only for a deliberate change of the trace itself):
``PYTHONPATH=src python tests/test_golden_cached_path.py --write``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.graph.datasets import load_dataset
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery, PPRResult
from repro.serving.cache import SubgraphCache
from repro.serving.engine import QueryEngine
from repro.serving.result_cache import ScoreTableCache

GOLDEN = Path(__file__).parent / "golden" / "cached_path_g1.json"

HOT_SEEDS = 128
QUERIES = 480
UPDATE_EVERY = 40
K = 200


def digest(result: PPRResult) -> str:
    """SHA-256 of a result's top-k: int64 ids, then float64 score bits."""
    pairs = result.top_k()
    ids = np.array([node for node, _ in pairs], dtype=np.int64)
    scores = np.array([score for _, score in pairs], dtype=np.float64)
    return hashlib.sha256(ids.tobytes() + scores.tobytes()).hexdigest()


def trace(graph) -> Tuple[List[int], List[List[Tuple[str, int, int]]]]:
    """The query stream and one op batch per ``UPDATE_EVERY`` queries.

    Update ``i`` inserts two fresh edges, each from a hot seed to a random
    non-neighbour, deletes the two update ``i - 1`` inserted and, every other
    update, one base edge of a hot seed.
    """
    rng = np.random.default_rng(20260419)
    eligible = np.flatnonzero(graph.degrees() >= 1)
    hot = [int(node) for node in rng.choice(eligible, size=HOT_SEEDS, replace=False)]
    weights = np.arange(1, HOT_SEEDS + 1, dtype=np.float64) ** -1.1
    picks = rng.choice(HOT_SEEDS, size=QUERIES, p=weights / weights.sum())
    stream = [hot[int(pick)] for pick in picks]

    edges = {(int(u), int(v)) for u, v in graph.iter_edges()}
    script: List[List[Tuple[str, int, int]]] = []
    previous: List[Tuple[int, int]] = []
    for step in range(QUERIES // UPDATE_EVERY - 1):
        ops = [("delete", u, v) for u, v in previous]
        for u, v in previous:
            edges.discard((u, v))
        previous = []
        while len(previous) < 2:
            u, v = sorted((hot[int(rng.integers(HOT_SEEDS))], int(rng.choice(eligible))))
            if u != v and (u, v) not in edges:
                edges.add((u, v))
                previous.append((u, v))
                ops.append(("insert", u, v))
        if step % 2 == 0:
            seed = hot[int(rng.integers(8))]
            own = sorted(edge for edge in edges if seed in edge and edge not in previous)
            if own:
                u, v = own[int(rng.integers(len(own)))]
                edges.discard((u, v))
                ops.append(("delete", u, v))
        script.append(ops)
    return stream, script


def record() -> Dict[str, object]:
    """Drive the trace through a cached engine; what the golden file pins."""
    graph = load_dataset("G1")
    stream, script = trace(graph)
    config = dataclasses.replace(MeLoPPRConfig.paper_default(), track_memory=False)
    queries, updates = [], []
    with QueryEngine(
        MeLoPPRSolver(graph, config), cache=SubgraphCache(), result_cache=ScoreTableCache()
    ) as engine:
        for begin in range(0, QUERIES, UPDATE_EVERY):
            batch = [PPRQuery(seed=seed, k=K) for seed in stream[begin : begin + UPDATE_EVERY]]
            for query, result in zip(batch, engine.solve_batch(batch)):
                outcome = result.metadata["serving"]["result_cache"]
                queries.append([query.seed, digest(result), outcome])
            if begin // UPDATE_EVERY < len(script):
                updates.append(engine.apply_update(script[begin // UPDATE_EVERY])["invalidated"])
        subgraph, result_tier = engine.cache.stats, engine.result_cache.stats
    return {
        "queries": queries,
        "updates": updates,
        "subgraph_cache": {"hits": subgraph.hits, "misses": subgraph.misses},
        "result_cache": {"hits": result_tier.hits, "misses": result_tier.misses},
    }


def test_the_cached_path_serves_and_keeps_what_it_did():
    expected = json.loads(GOLDEN.read_text())
    served = record()
    for index, (got, pinned) in enumerate(zip(served["queries"], expected["queries"])):
        assert got == pinned, f"query {index}: {got} != {pinned}"
    for index, (got, pinned) in enumerate(zip(served["updates"], expected["updates"])):
        assert got == pinned, f"update {index}: {got} != {pinned}"
    assert served == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
