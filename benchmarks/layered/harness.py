"""Run one workload once: calibrate, measure, stamp, print, write files."""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

from . import spec
from .common import Calibrator, Outcome, Scale
from .spans import SpanRecorder

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _commit() -> str:
    """The checkout's commit, when it is a git checkout at all."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(OUT_DIR),
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def environment_stamp() -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
    }


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> Dict[str, object]:
    """One run; returns the full result document (and writes it to ``out/``)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    # The replica supervisor keeps its ready files in a temporary directory;
    # keep that inside the checkout too.
    tempfile.tempdir = OUT_DIR
    os.environ["TMPDIR"] = OUT_DIR
    module = importlib.import_module(f"{__package__}.{workload}")
    calibrator = Calibrator()
    calibrator.burst(25)
    calibration = calibrator.unit_ms()
    recorder = SpanRecorder()
    outcome: Outcome = module.run(seed, float(seconds), trace, Scale(smoke), recorder)

    declared = spec.LAYER_NAMES if trace else spec.E2E_NAMES
    metrics = dict(outcome.metrics)
    if trace:
        metrics["bench.calibration_ms"] = calibration
        metrics["failed_share"] = outcome.failed / max(1, outcome.attempted)
        # A layer this workload never enters spends nothing there.
        for name in declared:
            metrics.setdefault(name, 0.0)
    undeclared = sorted(set(metrics) - set(declared))
    missing = sorted(set(declared) - set(metrics))
    if undeclared or missing:
        raise RuntimeError(
            f"{workload} emitted undeclared metrics {undeclared} / missed {missing}"
        )

    correct = outcome.failed == 0
    reconcile = metrics.get("bench.reconcile_gap_share", 0.0)
    if trace and not smoke and reconcile > spec.RECONCILE_LIMIT:
        outcome.notes["reconcile_failed"] = reconcile
        correct = False

    tag = f"{workload}.seed{seed}.trace{int(trace)}"
    trace_file: Optional[str] = None
    if trace and len(recorder):
        trace_file = os.path.join(OUT_DIR, f"{tag}.trace.json")
        recorder.write_chrome_trace(trace_file, {"workload": workload, "seed": seed})
    document = {
        "workload": workload,
        "why": spec.WORKLOADS[workload],
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "smoke": bool(smoke),
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "inputs_sha256": outcome.inputs_sha256,
        "calibration_ms": calibration,
        "environment": environment_stamp(),
        "notes": outcome.notes,
        "trace_file": trace_file,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": spec.UNITS[name]}
            for name in declared
        },
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    return document


def print_document(document: Dict[str, object]) -> None:
    """Every metric by name with its unit, then the contract's last line."""
    print(f"# {document['workload']}: {document['why']}")
    print(
        f"# seed={document['seed']} seconds={document['seconds']} "
        f"trace={int(document['trace'])} inputs_sha256={document['inputs_sha256'][:16]} "
        f"calibration_ms={document['calibration_ms']:.2f} "
        f"environment={json.dumps(document['environment'], sort_keys=True)}"
    )
    if document["notes"]:
        print(f"# notes={json.dumps(document['notes'], sort_keys=True, default=str)}")
    if document["trace_file"]:
        print(f"# trace written to {os.path.relpath(document['trace_file'])}")
    for name, entry in document["metrics"].items():
        print(f"{name:56s} {entry['value']:>16.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": document["correct"],
                "attempted": document["attempted"],
                "failed": document["failed"],
                "metrics": document["metrics"],
            }
        )
    )


def contract_main(argv: Optional[List[str]] = None) -> int:
    """``run.py``: one workload, one mode, one JSON object on the last line."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the smoke test (G1 only, no set-up repeats)")
    args = parser.parse_args(argv)
    document = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    sys.stdout.flush()
    print_document(document)
    return 0 if document["correct"] else 1
