"""Which driver enters each ``src/repro`` function: the reach map.

``python -m tests.reach [--drivers tier1,layered,experiments,bench,cli,examples] [--json map.json]``

Each driver runs as a subprocess with a ``sitecustomize`` on ``PYTHONPATH``
that records, under ``sys.settrace`` and ``threading.settrace``, every
``src/repro`` code object entered.  Replica subprocesses inherit
``PYTHONPATH`` (``ReplicaSet._spawn`` prepends ``src`` to it), so they are
traced too.  The map has one row per function of ``src/repro`` (from ``ast``;
abstract hooks have no body to enter and are left out): its line count and
the drivers that entered it.  When every driver ran, a function that no
driver but tier-1 enters must match :data:`KEEP`, whose key is its class; any
other is in class ``none`` and the exit status is 1.  A driver's tests need
not pass: a failing test still enters code.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SMOKE = ["--seed", "7", "--seconds", "0.3", "--smoke"]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
DRIVERS = {
    "tier1": [["-m", "pytest", "-q", "-p", "no:cacheprovider"]],
    "layered": [["benchmarks/layered/run.py", "--workload", w, "--trace", t] + SMOKE
                for w in WORKLOADS for t in ("0", "1")],
    "experiments": [["-m", "repro.experiments.harness"]],
    "bench": [["benchmarks/bench_tracing.py", "--num-seeds", "4", "--repeat-factor", "3"],
              ["-m", "repro.experiments.soak_study", "--num-seeds", "3", "--num-arrivals", "32",
               "--multipliers", "0.5", "1", "10", "--json", os.devnull],
              ["benchmarks/plan_timing.py"],
              ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable"]
              + [str(p.relative_to(ROOT)) for p in sorted((ROOT / "benchmarks").glob("bench_*.py"))]],
    "cli": [["-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_serving_cli.py"]],
    "examples": [[str(p.relative_to(ROOT))] for p in sorted((ROOT / "examples").glob("*.py"))],
}
#: Why a function that no driver but tier-1 enters stays: class -> file under
#: ``src/repro`` -> the names it keeps there (``fnmatch`` patterns).
KEEP = {
    # What the tests compare the served path against, and the state they read.
    "oracle": {
        "diffusion/kernels.py": "*", "diffusion/transition.py": "*",
        "meloppr/stage.py": "*", "meloppr/linear.py": "*", "ppr/monte_carlo.py": "*",
        "ppr/networkx_baseline.py": "*", "ppr/power_iteration.py": "*",
        "meloppr/selection.py": "AllSelector.select NextStageSelector.__repr__",
        "graph/generators.py": "*",
        "graph/builder.py": "GraphBuilder.add_star GraphBuilder.add_path GraphBuilder.add_edge _endpoint",
        "utils/rng.py": "PCG64Draws.poisson",
        "graph/csr.py": "CSRGraph.iter_edges CSRGraph.to_scipy CSRGraph.to_networkx "
                        "CSRGraph.__eq__ CSRGraph.__hash__",
        "graph/subgraph.py": "Subgraph._local_map Subgraph.to_global",
        "diffusion/sparse_vector.py": "SparseScoreVector.*",
        "meloppr/aggregation.py": "ScoreTableSnapshot.* GlobalScoreTable.get "
                                  "GlobalScoreTable.__len__ GlobalScoreTable.__contains__",
        "serving/cache.py": "*.validate *._index_state *._measure _LRUCache.graph "
                            "_LRUCache.__len__ SubgraphCache.__contains__",
        "serving/result_cache.py": "*._index_state *._measure ScoreTableCache.__contains__",
    },
    # An operator's door or an input from outside, each held by a named test.
    "operator": {
        "meloppr/planner.py": "_resplit", "graph/delta.py": "DeltaGraph._log_discard",
        "serving/frontend/ops.py": "*", "serving/frontend/protocol.py": "*.__init__",
        "serving/frontend/http.py": "BaseHttpServer._respond_error",
        "serving/frontend/request_log.py": "_PlainFormatter.format",
        "serving/frontend/router.py": "_scrape ReplicaRouter._aggregate_metrics "
                                      "ReplicaRouter._append_replica_metrics "
                                      "ReplicaRouter._admin_drain ReplicaRouter._resolve_replica "
                                      "ReplicaRouter.replica_states",
        "serving/frontend/admission.py": "AdmissionController.set_max_pending "
                                         "AdmissionController.fail AdmissionController.cancel",
        "serving/frontend/batcher.py": "MicroBatcher.set_policy MicroBatcher.admission",
        "serving/frontend/client.py": "TcpQueryClient.*",
        "serving/replica.py": "ReplicaSet.restart ReplicaSet.terminate ReplicaSet.poll",
        "serving/cache.py": "_LRUCache.resize _LRUCache.max_bytes _LRUCache._clear_locked",
        "serving/result_cache.py": "ScoreTableCache.ttl_seconds",
        "serving/backends.py": "ThreadPoolBackend.max_workers",
        "serving/tracing.py": "parse_traceparent format_traceparent TraceContext.current_span_id "
                              "Tracer.sample_rate Tracer.set_sample_rate",
    },
    # A path of the paper's method that only a test runs.
    "paper": {},
}
#: Installed on each driver's ``PYTHONPATH``: record every entered code object,
#: and dump them every second and at exit (a replica killed mid-run loses at
#: most its last second).
SITECUSTOMIZE = '''
import atexit, json, os, sys, threading, time
seen, out = set(), os.environ["REACH_OUT"]
def tracer(frame, event, arg):
    code = frame.f_code
    if code not in seen and "/src/repro/" in code.co_filename:
        seen.add(code)
def dump():
    rows = [[c.co_filename, c.co_firstlineno] for c in list(seen)]  # list(): one atomic copy
    path = os.path.join(out, f"{os.getpid()}.json")
    with open(path + ".tmp", "w") as handle:
        json.dump(rows, handle)
    os.replace(path + ".tmp", path)
def every_second():
    while True:
        time.sleep(1.0)
        dump()
threading.Thread(target=every_second, daemon=True).start()
atexit.register(dump)
sys.settrace(tracer)
threading.settrace(tracer)
'''


def abstract(node) -> bool:
    """A hook with no body to enter: an ``abstractmethod``, or only a
    docstring and ``raise NotImplementedError``."""
    body = [s for s in node.body if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
    return any("abstractmethod" in ast.unparse(d) for d in node.decorator_list) or (
        len(body) == 1 and isinstance(body[0], ast.Raise) and "NotImplementedError" in ast.unparse(body[0]))


def functions():
    """``{(path, first line): (path::qualname, lines)}`` for every ``src/repro`` def."""
    rows = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = prefix + child.name
                    if not isinstance(child, ast.ClassDef) and not abstract(child):
                        first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                        key = f"{path.relative_to(SRC)}::{name}"
                        rows[(str(path), first)] = (key, child.end_lineno - first + 1)
                    walk(child, name + ".")
        walk(ast.parse(path.read_text()), "")
    return rows


def entered(driver: str) -> set:
    """``(path, first line)`` of every code object ``driver`` entered."""
    with tempfile.TemporaryDirectory() as site, tempfile.TemporaryDirectory() as out:
        Path(site, "sitecustomize.py").write_text(SITECUSTOMIZE)
        path = [str(SRC), site, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, REACH_OUT=out, PYTHONPATH=os.pathsep.join(filter(None, path)))
        for argv in DRIVERS[driver]:
            print(f"reach: {driver}: {' '.join(argv)[:100]}", file=sys.stderr, flush=True)
            subprocess.run([sys.executable] + argv, cwd=ROOT, env=env, check=False,
                           stdout=subprocess.DEVNULL)
        return {(os.path.realpath(name), line) for dump in Path(out).glob("*.json")
                for name, line in json.loads(dump.read_text())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--drivers", default=",".join(DRIVERS))
    parser.add_argument("--json", default=None, help="write the map here")
    args = parser.parse_args(argv)
    drivers = args.drivers.split(",")
    reach = {driver: entered(driver) for driver in drivers}
    rows = []
    for place, (key, lines) in functions().items():
        row = {"function": key, "lines": lines,
               "drivers": [d for d in drivers if place in reach[d]]}
        if set(DRIVERS) <= set(drivers) and set(row["drivers"]) <= {"tier1"}:
            row["class"] = next((kind for kind, files in KEEP.items()
                                 if any(fnmatch.fnmatchcase(key, f"repro/{path}::{name}")
                                        for path, names in files.items() for name in names.split())),
                                "none")
        rows.append(row)
    if args.json:
        Path(args.json).write_text(json.dumps({"drivers": drivers, "functions": rows}, indent=1))
    for driver in drivers:
        print(f"{driver}: enters {sum(driver in row['drivers'] for row in rows)} of {len(rows)}")
    for row in rows:  # what must go (class none) and what no driver here entered
        if row.get("class") == "none" or not row["drivers"]:
            print(f"{row.get('class', 'unentered')}\t{row['function']}\t{row['lines']} lines")
    return int(any(row.get("class") == "none" for row in rows))


if __name__ == "__main__":
    sys.exit(main())
