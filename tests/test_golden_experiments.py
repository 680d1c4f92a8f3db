"""The paper experiments' headline values, pinned: E1–E8 at fixed seeds.

``tests/test_experiments.py`` checks each experiment's qualitative claim (a
shape); this file holds the numbers themselves to
``tests/golden/experiments_quick.json``, so a change under the solver, the
hardware model or the metrics that moves a reported value fails here even
when the shape survives.  Only deterministic values are kept: precisions,
task and eviction counts, modelled bytes, modelled FPGA times and resource
estimates.  No wall-clock time is pinned.

E1, E2, E6, E7 and E8 run exactly as the harness's ``quick`` profile runs
them.  E3, E4 and E5 take 1.7–3.3 s each at that profile, so they are pinned
at the reduced cases ``tests/test_experiments.py`` already runs (E3 with the
modelled rather than the ``tracemalloc`` memory, which depends on the
interpreter's allocator).

The file records the numpy and scipy versions it was written with.  Under
other versions the counts still compare exactly and the floats within
``RTOL``.

To write the file afresh (only for a deliberate change of a pinned value):
``PYTHONPATH=src python tests/test_golden_experiments.py --write``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Dict

import numpy as np
import scipy

from repro.experiments.ablation_stage_split import run_stage_split_ablation
from repro.experiments.fig5_scalability import run_fig5
from repro.experiments.fig6_sparsity import run_fig6
from repro.experiments.fig7_tradeoff import run_fig7
from repro.experiments.harness import QUICK_PROFILE
from repro.experiments.quantization_study import run_quantization_study
from repro.experiments.score_table_study import run_score_table_study
from repro.experiments.table1_resources import run_table1
from repro.experiments.table2_memory import run_table2

GOLDEN = Path(__file__).parent / "golden" / "experiments_quick.json"

#: Relative float tolerance when the numpy / scipy versions differ from the file's.
RTOL = 1e-9


def summary(memory) -> Dict[str, float]:
    return {"min": memory.minimum, "max": memory.maximum, "mean": memory.mean}


def record() -> Dict[str, object]:
    """Every experiment's deterministic headline values."""
    small = QUICK_PROFILE.num_seeds_small
    fig5 = run_fig5(num_seeds=small)
    table2 = run_table2(datasets=("G1", "G3"), num_seeds=3, use_tracemalloc=False)
    fig6 = run_fig6(datasets=("G1", "G2"), ratios=(0.01, 0.05, 0.3), num_seeds=3)
    fig7 = run_fig7(datasets=("G1", "G2"), ratios=(0.01, 0.1), num_seeds=3)
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "E1_fig5": [
            [p.parallelism, p.fpga_scheduling_seconds, p.fpga_diffusion_seconds,
             p.fpga_data_movement_seconds]
            for p in fig5.points
        ],
        "E2_table1": [
            [row.parallelism, row.usage.luts, row.usage.bram_blocks, row.usage.dsps,
             row.usage.lut_fraction, row.usage.bram_fraction, row.usage.dsp_fraction]
            for row in run_table1().rows
        ],
        "E3_table2": [
            {
                "dataset": row.dataset,
                "graph": [row.graph_nodes, row.graph_edges],
                "baseline_bytes": summary(row.baseline),
                "meloppr_cpu_bytes": summary(row.meloppr_cpu),
                "meloppr_fpga_bytes": summary(row.meloppr_fpga),
                "reduction": [row.cpu_reduction_mean, row.fpga_reduction_mean],
            }
            for row in table2.rows
        ],
        "E4_fig6": {
            "curve": [
                [p.ratio, p.precision, p.precision_per_dataset, p.mean_next_stage_tasks]
                for p in fig6.curve
            ],
            "histogram": fig6.distribution.counts.tolist(),
            "fractions": [
                fig6.distribution.near_zero_fraction,
                fig6.distribution.large_score_fraction,
                fig6.distribution.top_decile_mass_fraction,
            ],
        },
        "E5_fig7": [
            [p.dataset, p.ratio, p.precision, p.mean_next_stage_tasks] for p in fig7.points
        ],
        "E6_quantization": [
            [row.scale_rule, row.mean_precision, row.min_precision]
            for row in run_quantization_study(num_seeds=small).rows
        ],
        "E7_score_table": [
            [row.factor, row.precision, row.precision_loss_vs_unbounded, row.mean_evictions]
            for row in run_score_table_study(num_seeds=small).rows
        ],
        "E8_stage_split": [
            [list(row.stage_lengths), row.precision, row.mean_peak_subgraph_nodes,
             row.mean_total_tasks]
            for row in run_stage_split_ablation(num_seeds=small).rows
        ],
    }


def assert_close(got, want, where: str) -> None:
    """``got == want``, floats within ``RTOL``, through nested lists and dicts."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for index, (item, wanted) in enumerate(zip(got, want)):
            assert_close(item, wanted, f"{where}[{index}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=RTOL), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def test_the_experiments_report_what_they_did():
    expected = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(record()))
    if (got["numpy"], got["scipy"]) == (expected["numpy"], expected["scipy"]):
        assert got == expected
    else:
        for key in expected:
            if key not in ("numpy", "scipy"):
                assert_close(got[key], expected[key], key)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
