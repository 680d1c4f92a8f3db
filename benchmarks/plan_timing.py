"""The plan's own ``result.timing`` buckets on ``cold_wide``'s seed-1 queries.

Drives ``cold_wide``'s seed-1 query panel (G3 at the paper's defaults, no
caches, ``QueryEngine`` on the serial backend) for a warm-up pass plus
twenty timed passes and prints one JSON object: the per-layer numbers of
``benchmarks.layered.common.engine_depth_metrics`` (milliseconds per query
for each bucket the plan times itself, and the engine's wall around them),
computed per pass.  Each pass's times are divided by the slowdown of the
core it ran on, read by ``benchmarks.layered.common.Calibrator``'s bursts
just before and after it (as ``run.py`` calibrates its timings), so a
shared host's slow spells do not move a whole run.  Each ``*_ms`` row is
the median over the passes with its quartiles, ``{"q1", "median", "q3"}``;
the counts are exact and the same in every pass; ``bench.calibration_ms``
is the median unit time of the bursts.
``--src`` points at another checkout's ``src`` directory, so two revisions
can be compared from one command line, alternating::

    python3 benchmarks/plan_timing.py
    python3 benchmarks/plan_timing.py --src ../parent/src
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PASSES = 20


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    sys.path[:0] = [os.path.abspath(parser.parse_args().src), ROOT]

    from benchmarks.layered import generate
    from benchmarks.layered.common import (
        Calibrator,
        engine_depth_metrics,
        ms,
        query_for,
        solver_config,
    )
    from repro.graph.datasets import load_dataset
    from repro.meloppr.solver import MeLoPPRSolver
    from repro.serving.engine import QueryEngine

    seeds = [node for node, _ in generate.cold_draw(generate.load_cold_pool(), 1)]
    passes = []
    calibrator = Calibrator()
    with QueryEngine(MeLoPPRSolver(load_dataset("G3"), solver_config())) as engine:
        calibrator.start()
        for timed_pass in range(PASSES + 1):
            results, walls = [], []
            for seed in seeds:
                started = time.perf_counter()
                (result,) = engine.solve_batch([query_for(seed)])
                walls.append(time.perf_counter() - started)
                results.append(result)
            slowdown = calibrator.slowdown()
            if timed_pass:
                metrics = engine_depth_metrics(results, walls)
                passes.append({
                    name: value / slowdown if name.endswith("_ms") else value
                    for name, value in metrics.items()
                })
    summary = {"bench.calibration_ms": ms(statistics.median(
        seconds for _, seconds in calibrator.units
    ))}
    for name in passes[0]:
        values = [metrics[name] for metrics in passes]
        if name.endswith("_ms"):
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"q1": q1, "median": median, "q3": q3}
        else:
            summary[name] = statistics.median(values)
    print(json.dumps(summary, sort_keys=True))


if __name__ == "__main__":
    main()
