"""The plan's own ``result.timing`` buckets on ``cold_wide``'s seed-1 queries.

Drives ``cold_wide``'s seed-1 query panel (G3 at the paper's defaults, no
caches, ``QueryEngine`` on the serial backend) for a warm-up pass plus five
timed passes and prints one JSON object: the per-layer numbers of
``benchmarks.layered.common.engine_depth_metrics`` (milliseconds per query
for each bucket the plan times itself, and the engine's wall around them).
``--src`` points at another checkout's ``src`` directory, so two revisions
can be compared from one command line, alternating::

    python3 benchmarks/plan_timing.py
    python3 benchmarks/plan_timing.py --src ../parent/src
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PASSES = 5


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    sys.path[:0] = [os.path.abspath(parser.parse_args().src), ROOT]

    from benchmarks.layered import generate
    from benchmarks.layered.common import engine_depth_metrics, query_for, solver_config
    from repro.graph.datasets import load_dataset
    from repro.meloppr.solver import MeLoPPRSolver
    from repro.serving.engine import QueryEngine

    seeds = [node for node, _ in generate.cold_draw(generate.load_cold_pool(), 1)]
    results, walls = [], []
    with QueryEngine(MeLoPPRSolver(load_dataset("G3"), solver_config())) as engine:
        for timed_pass in range(PASSES + 1):
            for seed in seeds:
                started = time.perf_counter()
                (result,) = engine.solve_batch([query_for(seed)])
                if timed_pass:
                    walls.append(time.perf_counter() - started)
                    results.append(result)
    print(json.dumps(engine_depth_metrics(results, walls), sort_keys=True))


if __name__ == "__main__":
    main()
