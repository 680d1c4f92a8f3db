"""FPGA resource-utilisation model (LUT / BRAM / DSP), reproducing Table I.

Table I of the paper reports KC705 utilisation for parallelism ``P`` from 1 to
16:

=========  =====  =====  =====  =====  =====
Resource   P=1    P=2    P=4    P=8    P=16
=========  =====  =====  =====  =====  =====
LUTs       0.9 %  3.1 %  8.9 %  21.8 % 70.6 %
BRAM       4.8 %  9.9 %  19.2 % 36.1 % 72.8 %
DSP        <0.1 % (divisions implemented with logic)
=========  =====  =====  =====  =====  =====

The model decomposes utilisation into a fixed infrastructure part (PCIe/AXI
streaming interface, scheduler skeleton, global score table) plus a per-PE
part whose LUT cost grows super-linearly with ``P`` because the scheduler's
conflict-resolution crossbar between ``P`` diffusers and ``P`` score tables
scales roughly with ``P^2``.  The coefficients below are fitted to Table I and
the model exposes them so ablations can perturb them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.hardware.platform import FPGASpec, KC705

__all__ = ["ResourceUsage", "ResourceModel", "PAPER_TABLE_I"]

#: The utilisation percentages reported in Table I (fractions of the KC705).
PAPER_TABLE_I: Dict[int, Dict[str, float]] = {
    1: {"lut": 0.009, "bram": 0.048},
    2: {"lut": 0.031, "bram": 0.099},
    4: {"lut": 0.089, "bram": 0.192},
    8: {"lut": 0.218, "bram": 0.361},
    16: {"lut": 0.706, "bram": 0.728},
}


@dataclass(frozen=True)
class ResourceUsage:
    """Absolute and fractional resource usage of one accelerator build."""

    parallelism: int
    luts: int
    bram_blocks: int
    dsps: int
    lut_fraction: float
    bram_fraction: float
    dsp_fraction: float

    def fits(self) -> bool:
        """Whether every resource class fits on the device (fraction <= 1)."""
        return (
            self.lut_fraction <= 1.0
            and self.bram_fraction <= 1.0
            and self.dsp_fraction <= 1.0
        )


@dataclass(frozen=True)
class ResourceModel:
    """Parametric LUT/BRAM/DSP cost model of the MeLoPPR accelerator.

    The defaults are fitted to Table I on the KC705:

    * ``luts = lut_per_pe * P ** lut_exponent`` — super-linear in ``P``
      because the scheduler's conflict-resolution crossbar between ``P``
      diffusers and ``P`` score tables grows with the number of
      diffuser/table pairs, not just the number of PEs.
    * ``bram_blocks = bram_base + bram_per_pe * P`` — each PE replicates the
      three per-sub-graph tables; the base term is the global score table and
      the streaming interface FIFOs.
    * ``dsps = dsp_base`` — the datapath avoids DSP dividers entirely (the
      alpha multiplication is a shift, Sec. V-A), hence "under 0.1 %".
    """

    device: FPGASpec = KC705
    lut_per_pe: float = 1834.0
    lut_exponent: float = 1.57
    bram_base: float = 1.2
    bram_per_pe: float = 20.2
    dsp_base: float = 0.0

    def usage(self, parallelism: int) -> ResourceUsage:
        """Resource usage for a build with ``parallelism`` PEs."""
        if parallelism <= 0:
            raise ValueError(f"parallelism must be > 0, got {parallelism}")
        luts = int(round(self.lut_per_pe * parallelism**self.lut_exponent))
        bram_blocks = int(round(self.bram_base + self.bram_per_pe * parallelism))
        dsps = int(round(self.dsp_base))
        return ResourceUsage(
            parallelism=parallelism,
            luts=luts,
            bram_blocks=bram_blocks,
            dsps=dsps,
            lut_fraction=luts / self.device.total_luts,
            bram_fraction=bram_blocks / self.device.total_bram_blocks,
            dsp_fraction=dsps / self.device.total_dsps if self.device.total_dsps else 0.0,
        )
