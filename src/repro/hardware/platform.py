"""Platform descriptions of the paper's evaluation hardware.

Two devices appear in Sec. VI: a personal laptop with an Intel i7 at 2.8 GHz
and 16 GB of memory (the CPU side of the co-design and the pure-CPU
baselines), and a Xilinx Kintex-7 KC705 evaluation board clocked at 100 MHz
(the FPGA side).  The CPU side is measured (wall-clock BFS time on the host
running the reproduction); the board is represented by a parameter record
that the cycle/latency models consume.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FPGASpec", "KC705"]


@dataclass(frozen=True)
class FPGASpec:
    """Static description of an FPGA device and its clocking.

    Attributes
    ----------
    name:
        Device name.
    clock_hz:
        PL clock frequency (the paper runs the KC705 at 100 MHz).
    total_luts:
        Number of LUTs available on the device.
    total_bram_bytes:
        Total block-RAM capacity in bytes.
    total_bram_blocks:
        Number of 36 Kb BRAM blocks.
    total_dsps:
        Number of DSP48 slices.
    pcie_bandwidth_bytes_per_s:
        Effective host↔card streaming bandwidth for the data-transfer model.
    pcie_latency_s:
        Fixed per-transfer latency (driver + DMA setup).
    """

    name: str
    clock_hz: float
    total_luts: int
    total_bram_bytes: int
    total_bram_blocks: int
    total_dsps: int
    pcie_bandwidth_bytes_per_s: float
    pcie_latency_s: float

    @property
    def cycle_time_s(self) -> float:
        """Seconds per PL clock cycle."""
        return 1.0 / self.clock_hz

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count into seconds at the PL clock."""
        if cycles < 0:
            raise ValueError(f"cycles must be >= 0, got {cycles}")
        return cycles * self.cycle_time_s


#: Xilinx Kintex-7 KC705 (XC7K325T): 203,800 LUTs, 445 36-Kb BRAM blocks
#: (~16 Mb = 2,004,480 bytes usable), 840 DSP48 slices.  PCIe Gen2 x8 board;
#: the transfer model uses a conservative effective bandwidth.
KC705 = FPGASpec(
    name="Xilinx Kintex-7 KC705 (XC7K325T)",
    clock_hz=100e6,
    total_luts=203_800,
    total_bram_bytes=445 * 36 * 1024 // 8,
    total_bram_blocks=445,
    total_dsps=840,
    pcie_bandwidth_bytes_per_s=1.6e9,
    pcie_latency_s=10e-6,
)
