"""Induced sub-graphs with global↔local node-id mapping.

MeLoPPR never loads the full graph into "on-chip" memory; every diffusion is
executed on a small induced sub-graph whose nodes are relabelled to a dense
local id range.  :class:`Subgraph` couples the relabelled
:class:`~repro.graph.csr.CSRGraph` with the mapping back to global ids, which
the aggregation step (Eq. 8) needs when it folds local scores into the global
score table.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.graph.csr import CSRGraph, gather_rows

__all__ = ["Subgraph"]


class Subgraph:
    """A relabelled induced sub-graph of a host :class:`CSRGraph`.

    Attributes
    ----------
    graph:
        The induced sub-graph with local node ids ``0..num_nodes-1``.
    global_ids:
        ``global_ids[local]`` is the host-graph id of local node ``local``.
    """

    __slots__ = ("graph", "global_ids", "_local_of")

    def __init__(self, graph: CSRGraph, global_ids: np.ndarray) -> None:
        global_ids = np.asarray(global_ids, dtype=np.int64)
        if global_ids.size != graph.num_nodes:
            raise ValueError(
                "global_ids length must equal the sub-graph node count "
                f"({global_ids.size} != {graph.num_nodes})"
            )
        ordered = np.sort(global_ids)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("global_ids must be unique")
        self.graph = graph
        self.global_ids = global_ids
        self.global_ids.setflags(write=False)
        # {global id: local id}, built by the first lookup that needs it.
        self._local_of: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------------
    @classmethod
    def induced(
        cls, host: CSRGraph, nodes: Iterable[int], name: Optional[str] = None
    ) -> "Subgraph":
        """Build the sub-graph induced by ``nodes`` (order defines local ids).

        Raises ``ValueError`` when an id repeats (checked once, by the
        constructor).
        """
        if not isinstance(nodes, np.ndarray):
            nodes = list(nodes)
        global_ids = np.array(nodes, dtype=np.int64)  # a private copy
        count = global_ids.size
        local_ids = np.arange(count)
        local_of = np.full(host.num_nodes, -1, dtype=np.int64)
        local_of[global_ids] = local_ids

        gathered, counts = gather_rows(host.indptr, host.indices, global_ids)
        mapped = local_of[gathered]
        # One key per kept edge, (local source, local target) in base
        # ``count``: a single sort orders rows and the ids within each row.
        keys = (np.repeat(local_ids, counts) * count + mapped)[mapped >= 0]
        keys.sort()
        indices = (keys % count).astype(np.int32)
        indptr = np.searchsorted(keys, np.arange(count + 1) * count)
        sub_name = name if name is not None else f"{host.name}:induced"
        return cls(CSRGraph(indptr, indices, name=sub_name), global_ids)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the sub-graph."""
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        """Number of undirected edges in the sub-graph."""
        return self.graph.num_edges

    def _local_map(self) -> Dict[int, int]:
        if self._local_of is None:
            self._local_of = {g: i for i, g in enumerate(self.global_ids.tolist())}
        return self._local_of

    def to_local(self, global_id: int) -> int:
        """Map a host-graph node id to its local id (raises ``KeyError`` if absent)."""
        global_id = int(global_id)
        # An ego sub-graph is asked for its centre, local id 0, once per
        # diffusion; that must not cost a map over every node.
        if self.global_ids.size and global_id == self.global_ids[0]:
            return 0
        return self._local_map()[global_id]

    def contains_global(self, global_id: int) -> bool:
        """Whether the host-graph node ``global_id`` is part of this sub-graph."""
        return int(global_id) in self._local_map()

    def to_global(self, local_id: int) -> int:
        """Map a local node id back to the host-graph id."""
        return int(self.global_ids[local_id])

    def localize_vector(self, global_vector: np.ndarray) -> np.ndarray:
        """Gather the entries of a global score vector for this sub-graph's nodes."""
        global_vector = np.asarray(global_vector)
        if global_vector.ndim != 1:
            raise ValueError("global_vector must be one-dimensional")
        return global_vector[self.global_ids]

    def globalize_scores(self, local_scores: np.ndarray, num_global_nodes: int) -> np.ndarray:
        """Scatter local scores back into a dense global vector of zeros."""
        local_scores = np.asarray(local_scores, dtype=np.float64)
        if local_scores.size != self.num_nodes:
            raise ValueError(
                "local_scores length must equal the sub-graph node count"
            )
        result = np.zeros(num_global_nodes, dtype=np.float64)
        result[self.global_ids] = local_scores
        return result

    def __repr__(self) -> str:
        return (
            f"Subgraph(name={self.graph.name!r}, num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges})"
        )
