"""Experiment E2 — FPGA resource utilisation (Table I of the paper).

Table I reports LUT and BRAM utilisation of the KC705 for parallelism
``P in {1, 2, 4, 8, 16}``, with DSP usage below 0.1 % because the divisions
are implemented in logic.  The reproduction evaluates the fitted
:class:`~repro.hardware.resources.ResourceModel` at the same parallelism
values and reports both the modelled fractions and the paper's numbers side
by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.experiments.reporting import format_table
from repro.hardware.resources import PAPER_TABLE_I, ResourceModel, ResourceUsage

__all__ = ["ResourceRow", "ResourceStudy", "run_table1", "format_table1"]

PAPER_PARALLELISMS: Tuple[int, ...] = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class ResourceRow:
    """Modelled and reference utilisation at one parallelism value."""

    parallelism: int
    usage: ResourceUsage
    paper_lut_fraction: Optional[float]
    paper_bram_fraction: Optional[float]

    @property
    def lut_error(self) -> Optional[float]:
        """Absolute difference between modelled and paper LUT fraction."""
        if self.paper_lut_fraction is None:
            return None
        return abs(self.usage.lut_fraction - self.paper_lut_fraction)

    @property
    def bram_error(self) -> Optional[float]:
        """Absolute difference between modelled and paper BRAM fraction."""
        if self.paper_bram_fraction is None:
            return None
        return abs(self.usage.bram_fraction - self.paper_bram_fraction)


@dataclass(frozen=True)
class ResourceStudy:
    """The full Table I sweep."""

    rows: Tuple[ResourceRow, ...]

    def max_lut_error(self) -> float:
        """Largest LUT-fraction deviation from the paper across the sweep."""
        return max((row.lut_error or 0.0) for row in self.rows)

    def max_bram_error(self) -> float:
        """Largest BRAM-fraction deviation from the paper across the sweep."""
        return max((row.bram_error or 0.0) for row in self.rows)


def run_table1(
    parallelisms: Sequence[int] = PAPER_PARALLELISMS,
    model: Optional[ResourceModel] = None,
) -> ResourceStudy:
    """Evaluate the resource model at every parallelism value of Table I."""
    model = model if model is not None else ResourceModel()
    rows = []
    for parallelism in parallelisms:
        usage = model.usage(parallelism)
        reference = PAPER_TABLE_I.get(parallelism, {})
        rows.append(
            ResourceRow(
                parallelism=parallelism,
                usage=usage,
                paper_lut_fraction=reference.get("lut"),
                paper_bram_fraction=reference.get("bram"),
            )
        )
    return ResourceStudy(rows=tuple(rows))


def format_table1(study: ResourceStudy) -> str:
    """Render the study as a text table mirroring Table I."""
    headers = [
        "P",
        "LUTs",
        "LUT %",
        "LUT % (paper)",
        "BRAM blocks",
        "BRAM %",
        "BRAM % (paper)",
        "DSP %",
    ]
    rows = []
    for row in study.rows:
        rows.append(
            [
                row.parallelism,
                row.usage.luts,
                f"{row.usage.lut_fraction:.1%}",
                "-" if row.paper_lut_fraction is None else f"{row.paper_lut_fraction:.1%}",
                row.usage.bram_blocks,
                f"{row.usage.bram_fraction:.1%}",
                "-" if row.paper_bram_fraction is None else f"{row.paper_bram_fraction:.1%}",
                f"{row.usage.dsp_fraction:.2%}",
            ]
        )
    return format_table(
        headers, rows, title="Table I — FPGA resource utilisation vs parallelism P"
    )
