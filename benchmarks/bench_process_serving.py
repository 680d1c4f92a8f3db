"""Benchmark — process-pool serving throughput (multi-core scaling).

Measures queries/second for a repeated-seed workload answered by
``serial``, ``thread:N`` and ``process:N`` engines (E12 study) and emits the
measurements as JSON in the same shape as ``bench_sharded_serving.py`` — a
top-level config plus a ``runs`` list — including each configuration's
speedup over serial and, for the process runs, over the equally sized thread
pool.

Run under pytest (``pytest benchmarks/bench_process_serving.py``) or
standalone::

    PYTHONPATH=src python benchmarks/bench_process_serving.py [--json out.json]
"""

from __future__ import annotations

import argparse
import json
import os
from typing import List, Optional

import pytest

from repro.experiments.process_study import (
    ProcessStudy,
    format_process,
    run_process_study,
)


def run_benchmark(
    num_seeds: int = 8,
    repeat_factor: int = 6,
    worker_counts=(2, 4),
) -> ProcessStudy:
    """The measured sweep: hot seeds on the citeseer stand-in, k = 100."""
    return run_process_study(
        dataset="G1",
        num_seeds=num_seeds,
        repeat_factor=repeat_factor,
        worker_counts=tuple(worker_counts),
    )


def study_json(study: ProcessStudy) -> str:
    """The study as a JSON document (throughputs, speedup curves)."""
    return json.dumps(study.as_dict(), indent=2, sort_keys=True)


@pytest.mark.benchmark(group="serving")
def test_process_serving_throughput(benchmark, num_seeds):
    """Process serving must stay correct; on multi-core it must beat threads."""
    # A colder, wider workload than the smoke defaults: distinct seeds keep
    # the extraction share (the GIL-bound part threads cannot scale) large,
    # which is what the multi-core ratio below actually measures.
    study = benchmark.pedantic(
        run_benchmark,
        kwargs={"num_seeds": max(num_seeds, 8), "repeat_factor": 3},
        rounds=1,
        iterations=1,
    )
    print()
    print(format_process(study))
    document = study_json(study)
    print(document)

    payload = json.loads(document)
    assert payload["runs"], "sweep produced no runs"
    labels = {run["label"] for run in payload["runs"]}
    assert "serial" in labels
    assert any(label.startswith("process:") for label in labels)
    for run in payload["runs"]:
        assert run["throughput_qps"] > 0.0
        if run["label"].startswith("process:"):
            assert run["speedup_vs_threads"] is not None
    # Correctness is enforced inside run_process_study (bit-identical to the
    # serial engine); reaching this point means it held.

    # The headline multi-core claim only holds where there are multiple
    # cores: on the 4-core CI runners process:4 must clearly beat thread:4
    # (the GIL-bound baseline).  Single-core boxes measure IPC overhead, not
    # parallelism, so the ratio is not asserted there.
    cores = os.cpu_count() or 1
    by_label = {run["label"]: run for run in payload["runs"]}
    if cores >= 4 and "process:4" in by_label and "thread:4" in by_label:
        ratio = (
            by_label["process:4"]["throughput_qps"]
            / by_label["thread:4"]["throughput_qps"]
        )
        assert ratio > 1.5, (
            f"process:4 is only {ratio:.2f}x thread:4 on a {cores}-core "
            "machine; the process pool should scale past the GIL"
        )
    if cores >= 4 and "process:4" in by_label and "serial" in by_label:
        vs_serial = (
            by_label["process:4"]["throughput_qps"]
            / by_label["serial"]["throughput_qps"]
        )
        assert vs_serial > 1.0, (
            f"process:4 is only {vs_serial:.2f}x serial on a {cores}-core "
            "machine; with the vectorised diffusion kernels the per-task "
            "work no longer hides the IPC cost, so four workers must win"
        )


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point printing the table and JSON."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--num-seeds", type=int, default=8, help="distinct hot seeds")
    parser.add_argument("--repeat-factor", type=int, default=6, help="queries per seed")
    parser.add_argument(
        "--worker-counts",
        type=int,
        nargs="+",
        default=[2, 4],
        help="pool sizes to sweep",
    )
    parser.add_argument("--json", default=None, help="also write the JSON report here")
    args = parser.parse_args(argv)

    study = run_benchmark(
        num_seeds=args.num_seeds,
        repeat_factor=args.repeat_factor,
        worker_counts=tuple(args.worker_counts),
    )
    print(format_process(study))
    document = study_json(study)
    print(document)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI only
    raise SystemExit(main())
