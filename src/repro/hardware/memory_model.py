"""FPGA on-chip memory model (the BRAM byte formula of Sec. VI-B).

For each sub-graph loaded into a processing element, three tables are kept in
BRAM (Fig. 4):

* the **sub-graph table** ``Bg`` — per node the first/last neighbour address
  (2 words per node) plus the concatenated neighbour lists (2 words per
  undirected edge, one per direction),
* the **accumulated score table** ``Ba`` — 2 words per node (node id and
  ``pi_a``), and
* the **residual score table** ``Br`` — 1 word per node (``pi_r``; the node id
  is shared with ``Ba``).

With 4-byte words this is exactly the paper's formula:

``BRAM_bytes = Bg + Ba + Br
            = 4 * (2*|V| + 2*|E|  +  2*|V|  +  |V|)``

The global score table adds ``2 * c * k`` words on top (node id + score per
entry), and every PE replicates the three per-sub-graph tables.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "BYTES_PER_WORD",
    "subgraph_table_bytes",
    "accumulated_table_bytes",
    "residual_table_bytes",
    "subgraph_bram_bytes",
    "global_score_table_bytes",
    "FPGAMemoryModel",
]

#: The accelerator stores scores and addresses as 32-bit words (Sec. V-A).
BYTES_PER_WORD = 4


def subgraph_table_bytes(num_nodes: int, num_edges: int) -> int:
    """Bytes of the sub-graph table ``Bg = 4 * (2|V| + 2|E|)``."""
    _check(num_nodes, num_edges)
    return BYTES_PER_WORD * (2 * num_nodes + 2 * num_edges)


def accumulated_table_bytes(num_nodes: int) -> int:
    """Bytes of the accumulated score table ``Ba = 4 * 2|V|``."""
    _check(num_nodes, 0)
    return BYTES_PER_WORD * 2 * num_nodes


def residual_table_bytes(num_nodes: int) -> int:
    """Bytes of the residual score table ``Br = 4 * |V|``."""
    _check(num_nodes, 0)
    return BYTES_PER_WORD * num_nodes


def subgraph_bram_bytes(num_nodes: int, num_edges: int) -> int:
    """Total per-sub-graph BRAM bytes: ``Bg + Ba + Br`` (the Table II formula)."""
    return (
        subgraph_table_bytes(num_nodes, num_edges)
        + accumulated_table_bytes(num_nodes)
        + residual_table_bytes(num_nodes)
    )


def global_score_table_bytes(k: int, factor: int) -> int:
    """Bytes of the global top-``c*k`` score table (node id + score per entry)."""
    if k <= 0 or factor <= 0:
        raise ValueError("k and factor must be > 0")
    return BYTES_PER_WORD * 2 * k * factor


def _check(num_nodes: int, num_edges: int) -> None:
    if num_nodes < 0 or num_edges < 0:
        raise ValueError("node and edge counts must be >= 0")


@dataclass(frozen=True)
class FPGAMemoryModel:
    """Aggregate BRAM requirement of a full accelerator configuration.

    Attributes
    ----------
    parallelism:
        Number of processing elements ``P`` (each holds its own tables).
    k:
        Top-k of the query.
    score_table_factor:
        The ``c`` of the global score table.
    """

    parallelism: int = 1
    k: int = 200
    score_table_factor: int = 10

    def __post_init__(self) -> None:
        if self.parallelism <= 0:
            raise ValueError("parallelism must be > 0")
        if self.k <= 0:
            raise ValueError("k must be > 0")
        if self.score_table_factor <= 0:
            raise ValueError("score_table_factor must be > 0")

    def per_pe_bytes(self, num_nodes: int, num_edges: int) -> int:
        """BRAM bytes one PE needs to host a ``(num_nodes, num_edges)`` sub-graph."""
        return subgraph_bram_bytes(num_nodes, num_edges)

    def total_bytes(self, num_nodes: int, num_edges: int) -> int:
        """BRAM bytes for ``P`` PEs each holding a worst-case sub-graph, plus
        the shared global score table."""
        return self.parallelism * self.per_pe_bytes(
            num_nodes, num_edges
        ) + global_score_table_bytes(self.k, self.score_table_factor)
