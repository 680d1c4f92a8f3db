"""Summarise sets of runs and compare two of them, metric by metric."""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Sequence

from . import spec

Summary = Dict[str, Dict[str, Dict[str, float]]]

#: Two sets whose calibration kernel differs by more than this are flagged.
CALIBRATION_TOLERANCE = 0.15


def describe(values: Sequence[float]) -> Dict[str, float]:
    """min / quartiles / median and the quartile distance as a share of the median."""
    ordered = sorted(values)
    middle = statistics.median(ordered)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = middle
    return {
        "n": len(ordered),
        "min": ordered[0],
        "q1": q1,
        "median": middle,
        "q3": q3,
        "spread": (q3 - q1) / abs(middle) if middle else 0.0,
    }


def summarise(runs: Sequence[Dict[str, object]]) -> Summary:
    """``summary[workload][metric]`` over every run of a file's sets."""
    values: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        per_metric = values.setdefault(str(run["workload"]), {})
        for name, entry in run["metrics"].items():
            per_metric.setdefault(name, []).append(float(entry["value"]))
    return {
        workload: {name: describe(series) for name, series in per_metric.items()}
        for workload, per_metric in values.items()
    }


def format_summary(summary: Summary) -> str:
    lines = [f"{'workload':12s} {'metric':52s} {'n':>3s} {'median':>12s} {'q1':>12s} "
             f"{'q3':>12s} {'spread':>7s} unit"]
    for workload, metrics in summary.items():
        for name, row in metrics.items():
            lines.append(
                f"{workload:12s} {name:52s} {row['n']:3d} {row['median']:12.5g} "
                f"{row['q1']:12.5g} {row['q3']:12.5g} {row['spread']:7.1%} {spec.UNITS.get(name, '')}"
            )
    return "\n".join(lines)


def verdict(before: Dict[str, float], after: Dict[str, float], better: str, bound: float) -> str:
    """``worse`` beyond the bound, ``unresolved`` when spread hides it, else ``ok``."""
    change = (after["median"] - before["median"]) / abs(before["median"]) if before["median"] else 0.0
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse"
    if max(before["spread"], after["spread"]) > bound:
        return "unresolved"
    return "ok"


def compare_summaries(before: Summary, after: Summary) -> List[Dict[str, object]]:
    """One row per workload x end-to-end metric."""
    rows: List[Dict[str, object]] = []
    for workload in spec.WORKLOADS:
        for metric in spec.END_TO_END:
            a = before.get(workload, {}).get(metric.name)
            b = after.get(workload, {}).get(metric.name)
            if a is None or b is None:
                continue
            rows.append({
                "workload": workload, "metric": metric.name, "unit": metric.unit,
                "before": a, "after": b, "bound": metric.bound,
                "verdict": verdict(a, b, metric.better, metric.bound),
            })
    return rows


def calibration_shift(before: Summary, after: Summary) -> float:
    """Relative difference of the two files' median calibration kernel time."""

    def calibration(summary: Summary) -> float:
        medians = [metrics["bench.calibration_ms"]["median"]
                   for metrics in summary.values() if "bench.calibration_ms" in metrics]
        return statistics.median(medians) if medians else 0.0

    a, b = calibration(before), calibration(after)
    return abs(b - a) / a if a else 0.0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m benchmarks.layered compare A.json B.json")
        return 2
    documents = []
    for path in argv:
        with open(path, "r", encoding="utf-8") as handle:
            documents.append(json.load(handle))
    before, after = (summarise(document["runs"]) for document in documents)
    shift = calibration_shift(before, after)
    if shift > CALIBRATION_TOLERANCE:
        print(f"FLAGGED: calibration differs by {shift:.0%} between the two files; "
              "the box changed, do not read the rows below as a comparison")
    print(f"{'workload':12s} {'metric':16s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'bound':>6s} verdict")
    rows = compare_summaries(before, after)
    for row in rows:
        a, b = row["before"], row["after"]
        print(
            f"{row['workload']:12s} {row['metric']:16s} "
            f"{a['median']:10.4g} [{a['q1']:9.4g}, {a['q3']:9.4g}] "
            f"{b['median']:10.4g} [{b['q1']:9.4g}, {b['q3']:9.4g}] "
            f"{row['bound']:6.0%} {row['verdict']}"
        )
    bad = [row for row in rows if row["verdict"] != "ok"]
    return 1 if bad or shift > CALIBRATION_TOLERANCE else 0
