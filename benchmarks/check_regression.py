"""Gate serving-benchmark throughput against committed baselines.

The gated serving benchmark (``bench_sharded_serving``) emits a ``runs``
list whose entries carry a ``label`` and a ``throughput_qps``.  This checker
compares one or more candidate reports against a committed baseline (``benchmarks/baselines/*.json``) and
fails when any configuration's throughput regressed by more than the
tolerance.

CI-runner noise is handled with **min-of-repeats**: the CI gate runs each
benchmark twice and passes both reports; per label the *best* candidate
throughput is compared (the minimum of the repeated runtimes is the standard
robust estimator — a single noisy run cannot fail the gate, only a
reproducible slowdown can).

Usage::

    # gate (exit 1 on regression)
    python benchmarks/check_regression.py \
        --baseline benchmarks/baselines/sharded.json run1.json run2.json

    # refresh a baseline from measured reports
    python benchmarks/check_regression.py \
        --baseline benchmarks/baselines/sharded.json --update run1.json run2.json

Baselines are machine-dependent (queries/second on the runner that produced
them); refresh them with ``--update`` whenever the CI runner class changes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

__all__ = [
    "DEFAULT_TOLERANCE",
    "RegressionCheck",
    "extract_metrics",
    "best_metrics",
    "check_metrics",
    "format_checks",
    "main",
]

#: Allowed fractional throughput drop before the gate fails (>30% regression).
DEFAULT_TOLERANCE = 0.30


@dataclass(frozen=True)
class RegressionCheck:
    """Outcome of one label's baseline comparison.

    Attributes
    ----------
    label:
        The benchmark configuration (a run label).
    baseline_qps:
        Committed throughput.
    candidate_qps:
        Best observed throughput across the candidate reports (``None``
        when the label is missing from every candidate).
    ratio:
        ``candidate / baseline`` (``None`` when not comparable).
    passed:
        Whether this label clears the tolerance.
    """

    label: str
    baseline_qps: float
    candidate_qps: Optional[float]
    ratio: Optional[float]
    passed: bool


def extract_metrics(document: Dict[str, object]) -> Dict[str, float]:
    """``{run label: throughput_qps}`` from one benchmark JSON document."""
    runs = document.get("runs")
    if not isinstance(runs, list) or not runs:
        raise ValueError("benchmark document has no 'runs' list")
    metrics: Dict[str, float] = {}
    for run in runs:
        label = run.get("label")
        throughput = run.get("throughput_qps")
        if not isinstance(label, str) or not isinstance(throughput, (int, float)):
            raise ValueError(
                f"run entry lacks 'label'/'throughput_qps': {run!r}"
            )
        metrics[label] = float(throughput)
    return metrics


def best_metrics(documents: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Per-label maximum throughput over repeated reports (min-of-repeats)."""
    if not documents:
        raise ValueError("at least one candidate report is required")
    best: Dict[str, float] = {}
    for document in documents:
        for label, throughput in extract_metrics(document).items():
            if label not in best or throughput > best[label]:
                best[label] = throughput
    return best


def check_metrics(
    baseline: Dict[str, float],
    candidate: Dict[str, float],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[RegressionCheck]:
    """Compare candidate throughputs against the baseline, label by label.

    A label present in the baseline but missing from every candidate fails —
    a silently dropped configuration must not read as a pass.  Labels only
    the candidates know (newly added configurations) are ignored; they enter
    the gate when the baseline is refreshed.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    checks: List[RegressionCheck] = []
    for label in sorted(baseline):
        baseline_qps = float(baseline[label])
        candidate_qps = candidate.get(label)
        if candidate_qps is None:
            checks.append(
                RegressionCheck(
                    label=label,
                    baseline_qps=baseline_qps,
                    candidate_qps=None,
                    ratio=None,
                    passed=False,
                )
            )
            continue
        ratio = candidate_qps / baseline_qps if baseline_qps > 0 else float("inf")
        checks.append(
            RegressionCheck(
                label=label,
                baseline_qps=baseline_qps,
                candidate_qps=candidate_qps,
                ratio=ratio,
                passed=ratio >= 1.0 - tolerance,
            )
        )
    return checks


def format_checks(checks: Sequence[RegressionCheck], tolerance: float) -> str:
    """Render the comparison as an aligned text report."""
    width = max([len(check.label) for check in checks] + [13])
    lines = [
        f"{'configuration'.ljust(width)}  {'baseline':>12}  {'candidate':>12}"
        f"  {'ratio':>7}  status"
    ]
    for check in checks:
        candidate = (
            "missing" if check.candidate_qps is None else f"{check.candidate_qps:12.1f}"
        )
        ratio = "-" if check.ratio is None else f"{check.ratio:6.2f}x"
        status = "ok" if check.passed else f"FAIL (>{tolerance:.0%} regression)"
        lines.append(
            f"{check.label.ljust(width)}  {check.baseline_qps:12.1f}  "
            f"{candidate:>12}  {ratio:>7}  {status}"
        )
    return "\n".join(lines)


def _load_json(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    """Command-line entry point (exit 1 on any regression)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "candidates", nargs="+", help="benchmark JSON reports (repeated runs)"
    )
    parser.add_argument(
        "--baseline", required=True, help="committed baseline JSON path"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional throughput drop (default 0.30)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="write the baseline from the candidates instead of gating",
    )
    args = parser.parse_args(argv)

    candidate = best_metrics([_load_json(path) for path in args.candidates])

    if args.update:
        document = {
            "note": (
                "committed serving-throughput baseline; refresh with "
                "benchmarks/check_regression.py --update when the runner "
                "class changes"
            ),
            "metrics": candidate,
        }
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline {args.baseline} updated with {len(candidate)} metrics")
        return 0

    baseline_document = _load_json(args.baseline)
    baseline = baseline_document.get("metrics")
    if not isinstance(baseline, dict) or not baseline:
        raise SystemExit(f"baseline {args.baseline} has no 'metrics' mapping")
    checks = check_metrics(
        {label: float(value) for label, value in baseline.items()},
        candidate,
        tolerance=args.tolerance,
    )
    print(format_checks(checks, args.tolerance))
    failed = [check for check in checks if not check.passed]
    if failed:
        print(
            f"\n{len(failed)} of {len(checks)} configurations regressed "
            f"beyond {args.tolerance:.0%}"
        )
        return 1
    print(f"\nall {len(checks)} configurations within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
