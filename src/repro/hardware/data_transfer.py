"""CPU ↔ FPGA data-transfer model (the streaming interface of Fig. 4).

Three transfer types occur per query:

1. **Sub-graph upload** (CPU → FPGA) — the reorganised node/neighbour lists of
   each extracted sub-graph are streamed into the PE's sub-graph table.
2. **Next-stage node download** (FPGA → CPU) — after a stage's diffusions, the
   ids of the selected next-stage nodes are streamed back so the CPU can run
   the next round of BFS extractions.
3. **Final result download** (FPGA → CPU) — the top-``k`` entries of the
   global score table, sent exactly once per query.  Keeping the global score
   table in BRAM (Sec. V-B) is precisely what avoids a per-diffusion score
   download here.

Each transfer is modelled as ``fixed_latency + bytes / bandwidth`` over the
board's PCIe-style streaming link.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.memory_model import BYTES_PER_WORD, subgraph_table_bytes
from repro.hardware.platform import FPGASpec, KC705

__all__ = ["TransferModel", "TransferReport"]


@dataclass(frozen=True)
class TransferReport:
    """Bytes moved and seconds spent on the host↔card link for one query."""

    upload_bytes: int
    download_bytes: int
    num_transfers: int
    seconds: float


class TransferModel:
    """Latency/bandwidth model of the host↔FPGA streaming interface.

    Parameters
    ----------
    device:
        The FPGA board (supplies bandwidth and per-transfer latency).
    """

    def __init__(self, device: FPGASpec = KC705) -> None:
        self._device = device

    # ------------------------------------------------------------------
    def transfer_seconds(self, num_bytes: int) -> float:
        """Seconds for a single transfer of ``num_bytes``."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be >= 0")
        return self._device.pcie_latency_s + num_bytes / self._device.pcie_bandwidth_bytes_per_s

    def subgraph_upload_bytes(self, num_nodes: int, num_edges: int) -> int:
        """Bytes of one sub-graph upload (the sub-graph table contents)."""
        return subgraph_table_bytes(num_nodes, num_edges)

    def result_download_bytes(self, k: int) -> int:
        """Bytes of the final top-``k`` download (node id + score per entry)."""
        if k <= 0:
            raise ValueError("k must be > 0")
        return 2 * BYTES_PER_WORD * k

    def next_stage_download_bytes(self, num_selected: int) -> int:
        """Bytes to return ``num_selected`` next-stage node ids to the CPU."""
        if num_selected < 0:
            raise ValueError("num_selected must be >= 0")
        return BYTES_PER_WORD * num_selected

    # ------------------------------------------------------------------
    def query_report(
        self,
        subgraph_sizes: list[tuple[int, int]],
        num_next_stage_nodes: int,
        k: int,
    ) -> TransferReport:
        """Aggregate transfer report for one MeLoPPR query.

        Parameters
        ----------
        subgraph_sizes:
            ``(num_nodes, num_edges)`` of every sub-graph uploaded.
        num_next_stage_nodes:
            Number of next-stage node ids sent back to the CPU between stages.
        k:
            Top-k of the final result download.
        """
        upload_bytes = 0
        seconds = 0.0
        transfers = 0
        for num_nodes, num_edges in subgraph_sizes:
            chunk = self.subgraph_upload_bytes(num_nodes, num_edges)
            upload_bytes += chunk
            seconds += self.transfer_seconds(chunk)
            transfers += 1

        download_bytes = self.next_stage_download_bytes(num_next_stage_nodes)
        if num_next_stage_nodes > 0:
            seconds += self.transfer_seconds(download_bytes)
            transfers += 1

        result_bytes = self.result_download_bytes(k)
        download_bytes += result_bytes
        seconds += self.transfer_seconds(result_bytes)
        transfers += 1

        return TransferReport(
            upload_bytes=upload_bytes,
            download_bytes=download_bytes,
            num_transfers=transfers,
            seconds=seconds,
        )
