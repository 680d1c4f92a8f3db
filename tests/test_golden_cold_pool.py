"""The cold path at the paper point, pinned: one G3 seed per eviction band.

For each of the twelve eviction bands of ``benchmarks/layered/cold_pool.json``
the lowest-numbered panel node in the band is queried at the paper's point
(k = 200, L = 6, stages (3, 3), c = 10, no caches), once through
``MeLoPPRSolver.solve`` and once through an uncached ``serial``
:class:`~repro.serving.engine.QueryEngine`.  Both must reproduce
``tests/golden/cold_pool_g3.json`` (one line per seed): the SHA-256 of the
top-k (ids and score bits), the score-table eviction count, the summed BFS
edges scanned and propagations of ``metadata["tasks"]``, the task list as
``(stage, centre)`` pairs, and each task's sub-graph node and edge counts.
An equivalence test compares two paths that share code; this file catches a
change that moves both of them the same way (a fold order, a tie rule).

The file records the numpy and scipy versions it was written with.  Under
other versions the ids, the counts and the task list still compare exactly;
the scores compare within ``SCORE_RTOL`` (floating-point sums may round
differently), and the digest is not compared.

To write the file afresh (only for a deliberate change of the pinned point):
``PYTHONPATH=src python tests/test_golden_cold_pool.py --write``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

import numpy as np
import scipy

from repro.graph.datasets import load_dataset
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery, PPRResult
from repro.serving.engine import QueryEngine

GOLDEN = Path(__file__).parent / "golden" / "cold_pool_g3.json"
COLD_POOL = Path(__file__).parents[1] / "benchmarks" / "layered" / "cold_pool.json"

K = 200
#: Relative score tolerance when the numpy / scipy versions differ from the file's.
SCORE_RTOL = 1e-9


def band_seeds() -> List[int]:
    """The lowest-numbered panel node of each eviction band, in band order."""
    pool = json.loads(COLD_POOL.read_text())
    return [
        min(int(node) for node, evictions in pool["nodes"] if low <= evictions <= high)
        for low, high in pool["bands"]
    ]


def pin(result: PPRResult) -> Dict[str, object]:
    """What the golden file keeps of one answer."""
    pairs = result.top_k()
    ids = np.array([node for node, _ in pairs], dtype=np.int64)
    scores = np.array([score for _, score in pairs], dtype=np.float64)
    tasks = result.metadata["tasks"]
    return {
        "seed": int(result.query.seed),
        "top_k_sha256": hashlib.sha256(ids.tobytes() + scores.tobytes()).hexdigest(),
        "score_table_evictions": int(result.metadata["score_table_evictions"]),
        "bfs_edges_scanned": sum(int(task.bfs_edges_scanned) for task in tasks),
        "propagations": sum(int(task.propagations) for task in tasks),
        "tasks": [[int(task.stage_index), int(task.center_node)] for task in tasks],
        "subgraph_nodes": [int(task.subgraph_nodes) for task in tasks],
        "subgraph_edges": [int(task.subgraph_edges) for task in tasks],
        "top_k_ids": ids.tolist(),
        "top_k_scores": scores.tolist(),
    }


def record() -> Dict[str, object]:
    """Every band seed through the solver and through the uncached engine."""
    graph = load_dataset("G3")
    config = dataclasses.replace(MeLoPPRConfig.paper_default(), track_memory=False)
    queries = [PPRQuery(seed=seed, k=K) for seed in band_seeds()]
    solver = MeLoPPRSolver(graph, config)
    with QueryEngine(MeLoPPRSolver(graph, config)) as engine:
        served = engine.solve_batch(queries)
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fingerprint": graph.fingerprint(),
        "solver": [pin(solver.solve(query)) for query in queries],
        "engine": [pin(result) for result in served],
    }


def test_the_cold_path_answers_what_it_did():
    expected = json.loads(GOLDEN.read_text())
    got = record()
    same_versions = (got["numpy"], got["scipy"]) == (expected["numpy"], expected["scipy"])
    assert got["fingerprint"] == expected["fingerprint"]
    for path in ("solver", "engine"):
        assert len(got[path]) == len(expected["answers"])
        for answer, want in zip(got[path], expected["answers"]):
            where = f"{path}, seed {want['seed']}"
            if not same_versions:
                np.testing.assert_allclose(
                    answer.pop("top_k_scores"), want["top_k_scores"],
                    rtol=SCORE_RTOL, err_msg=where,
                )
                del answer["top_k_sha256"]
                want = {key: want[key] for key in answer}
            assert answer == want, where


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    data = record()
    answers = data.pop("solver")
    assert data.pop("engine") == answers, "the engine and the solver disagree"
    header = json.dumps(data, indent=1)[:-2]
    lines = ",\n".join(f"  {json.dumps(answer)}" for answer in answers)
    GOLDEN.write_text(f'{header},\n "answers": [\n{lines}\n ]\n}}\n')
