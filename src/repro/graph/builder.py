"""Incremental graph construction.

:class:`GraphBuilder` collects edges (from generators, files or user code),
cleans them up (self-loop removal, symmetrisation, de-duplication) and emits
an immutable, undirected :class:`~repro.graph.csr.CSRGraph`: the paper's
graphs are undirected, and ``W = A D^-1`` relies on every edge having its
reverse.

Scalar edges are buffered in typed arrays, not one NumPy array per edge, and
everything is canonicalised once, by one sort in ``build``.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph, _sorted_unique
from repro.utils.validation import check_non_negative_int

__all__ = ["GraphBuilder"]

_BOOLS = frozenset({bool, np.bool_})


def _endpoint(node: object) -> int:
    """``node`` as a non-negative ``int``; only integer node ids are accepted."""
    if type(node) is not int:
        if isinstance(node, bool) or not isinstance(node, (int, np.integer)):
            raise ValueError(f"edge endpoints must be integer node ids, got {node!r}")
        node = int(node)
    if node < 0:
        raise ValueError("edge endpoints must be non-negative node ids")
    return node


class GraphBuilder:
    """Accumulate edges and build a :class:`CSRGraph`.

    :meth:`add_edge` appends to two typed ``int64`` buffers (8 bytes per
    endpoint, no array per edge); :meth:`build` flushes them into
    :meth:`add_edges`'s chunks and deduplicates everything with one sort.

    Parameters
    ----------
    num_nodes:
        Number of nodes if known up front.  When omitted, the node count is
        inferred as ``max(edge endpoints) + 1`` at build time.  Each added
        edge is stored in both directions.
    """

    def __init__(self, num_nodes: Optional[int] = None) -> None:
        if num_nodes is not None:
            num_nodes = check_non_negative_int(num_nodes, "num_nodes")
        self._num_nodes = num_nodes
        self._sources: List[np.ndarray] = []
        self._targets: List[np.ndarray] = []
        self._edge_sources = array("q")  # add_edge's pairs, until build()
        self._edge_targets = array("q")

    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> "GraphBuilder":
        """Add a single edge ``(u, v)``.  Returns ``self`` for chaining."""
        u, v = _endpoint(u), _endpoint(v)
        self._edge_sources.append(u)
        self._edge_targets.append(v)
        return self

    def add_edges(self, edges: Iterable[Tuple[int, int]]) -> "GraphBuilder":
        """Add many edges at once.

        ``edges`` may be any iterable of integer pairs or an ``(n, 2)``
        integer array.
        """
        listed = not isinstance(edges, np.ndarray)
        if listed:
            edges = list(edges)
        pairs = np.asarray(edges)
        if pairs.size == 0:
            return self
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("edges must be an iterable of (u, v) pairs")
        # NumPy promotes bools listed among ints to int, so a list is also
        # checked by item type.
        if pairs.dtype.kind not in "iu" or (
            listed and not _BOOLS.isdisjoint(map(type, chain.from_iterable(edges)))
        ):
            raise ValueError("edge endpoints must be integer node ids, not floats, strings or bools")
        if np.any(pairs < 0):
            raise ValueError("edge endpoints must be non-negative node ids")
        self._sources.append(pairs[:, 0].astype(np.int64))
        self._targets.append(pairs[:, 1].astype(np.int64))
        return self

    def add_star(self, center: int, leaves: Iterable[int]) -> "GraphBuilder":
        """Add edges from ``center`` to every node in ``leaves``."""
        leaves = np.asarray(list(leaves), dtype=np.int64)
        if leaves.size == 0:
            return self
        centers = np.full(leaves.size, center, dtype=np.int64)
        return self.add_edges(np.column_stack([centers, leaves]))

    def add_path(self, nodes: Iterable[int]) -> "GraphBuilder":
        """Add a path through ``nodes`` in order."""
        nodes = np.asarray(list(nodes), dtype=np.int64)
        if nodes.size < 2:
            return self
        return self.add_edges(np.column_stack([nodes[:-1], nodes[1:]]))

    # ------------------------------------------------------------------
    def build(self, name: str = "graph") -> CSRGraph:
        """Clean up the accumulated edges and return an immutable graph."""
        if self._edge_sources:
            self._sources.append(np.array(self._edge_sources, dtype=np.int64))
            self._targets.append(np.array(self._edge_targets, dtype=np.int64))
            self._edge_sources, self._edge_targets = array("q"), array("q")
        if self._sources:
            sources = np.concatenate(self._sources)
            targets = np.concatenate(self._targets)
        else:
            sources = np.empty(0, dtype=np.int64)
            targets = np.empty(0, dtype=np.int64)

        num_nodes = self._num_nodes
        if num_nodes is None:
            num_nodes = int(max(sources.max(initial=-1), targets.max(initial=-1)) + 1)
            num_nodes = max(num_nodes, 0)
        else:
            if sources.size and max(sources.max(), targets.max()) >= num_nodes:
                raise ValueError(
                    "edge endpoints exceed the declared num_nodes "
                    f"({num_nodes})"
                )

        # Remove self loops.
        keep = sources != targets
        sources, targets = sources[keep], targets[keep]

        # Store each undirected edge in both directions before dedup.
        sources, targets = (
            np.concatenate([sources, targets]),
            np.concatenate([targets, sources]),
        )

        # De-duplicate by sorting linearised keys: the survivors come out
        # source-major with ascending targets, which is already CSR order.
        if sources.size:
            keys = _sorted_unique(sources * np.int64(num_nodes) + targets)
            sources, targets = np.divmod(keys, num_nodes)

        counts = np.bincount(sources, minlength=num_nodes).astype(np.int64)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSRGraph(indptr, targets.astype(np.int32), name=name)
