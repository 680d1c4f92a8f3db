"""``python -m benchmarks.layered``: run sets of all four workloads, or compare two.

    PYTHONPATH=src python -m benchmarks.layered [--repeats N] [--out A.json]
    PYTHONPATH=src python -m benchmarks.layered compare A.json B.json

A *set* is every workload run untraced (end-to-end metrics) and then traced
(per-layer metrics), each in its own process through ``run.py`` — exactly what
the driver does, so peak RSS and set-up time are per workload.  Repeat ``i``
of ``--repeats`` uses ``--seed + i``: the spread it records is across inputs
as well as across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

from . import compare, spec

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_once(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> Dict[str, object]:
    """One ``run.py`` process; returns its last-line JSON plus the exit code."""
    command = [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{workload} (trace={trace}) printed no result (exit {done.returncode}):\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-4000:]}"
        )
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    result.update({"workload": workload, "seed": seed, "trace": trace, "exit": done.returncode})
    return result


def run_sets(args: argparse.Namespace) -> int:
    runs: List[Dict[str, object]] = []
    for repeat in range(args.repeats):
        for workload in spec.WORKLOADS:
            for trace in (0, 1):
                runs.append(run_once(workload, args.seed + repeat, args.seconds, trace, args.smoke))
    document = {
        "benchmark": spec.benchmark_json(),
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "runs": runs,
        "summary": compare.summarise(runs),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    print(compare.format_summary(document["summary"]))
    failed = [run for run in runs if run["exit"] != 0 or not run["correct"]]
    for run in failed:
        print(f"FAILED: {run['workload']} trace={run['trace']} seed={run['seed']} "
              f"failed={run['failed']}/{run['attempted']}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m benchmarks.layered", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--repeats", type=int, default=1, help="sets to run")
    parser.add_argument("--out", default=None, help="write the sets and their summary here")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (the smoke test)")
    return run_sets(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
