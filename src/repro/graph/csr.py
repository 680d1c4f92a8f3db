"""Immutable compressed-sparse-row (CSR) graph.

The paper stores graphs and performs matrix–vector products in CSR format
(Sec. VI).  :class:`CSRGraph` is the single graph representation used by every
kernel in this library: the diffusion operator, BFS sub-graph extraction, the
FPGA processing-element model and the baselines all read the same three
arrays (``indptr``, ``indices`` and the node count).

Nodes are contiguous integers ``0 .. num_nodes - 1``.  Graphs are simple and
undirected unless built otherwise: the builder symmetrises edges, removes
self-loops and removes duplicates.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.utils.validation import check_node_id

__all__ = ["CSRGraph", "gather_rows"]


def gather_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The adjacency rows of ``rows``, concatenated in order, and their lengths.

    One fancy-index gather instead of a Python slice per row: output position
    ``p`` of row ``r`` reads ``indices[indptr[r] + p - (row r's first output
    position)]``.  A single row is returned as a plain slice.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    if rows.size == 1:
        return indices[starts[0] : starts[0] + counts[0]], counts
    first_outputs = np.cumsum(counts) - counts
    positions = np.arange(counts.sum()) + np.repeat(starts - first_outputs, counts)
    return indices[positions], counts


class CSRGraph:
    """An immutable undirected graph stored in CSR adjacency format.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_nodes + 1``; row pointer of the CSR
        adjacency structure.
    indices:
        ``int32`` array of length ``num_edges_directed``; concatenated
        neighbour lists.  For an undirected graph every edge appears twice
        (once per endpoint).
    name:
        Optional human-readable name (dataset name).

    Notes
    -----
    Use :class:`repro.graph.builder.GraphBuilder` or the module-level
    constructors (:meth:`from_edges`, :meth:`from_scipy`) rather than calling
    this constructor with hand-built arrays.
    """

    __slots__ = ("_indptr", "_indices", "_name", "_fingerprint", "_operator_memo")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        name: str = "graph",
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int32)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be one-dimensional arrays")
        if indptr.size == 0:
            raise ValueError("indptr must have at least one entry")
        if indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if indptr[-1] != indices.size:
            raise ValueError(
                f"indptr[-1] ({indptr[-1]}) must equal len(indices) ({indices.size})"
            )
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        num_nodes = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= num_nodes):
            raise ValueError("indices contain node ids outside [0, num_nodes)")
        self._indptr = indptr
        self._indices = indices
        self._name = str(name)
        self._indptr.setflags(write=False)
        self._indices.setflags(write=False)
        self._fingerprint: Optional[str] = None
        # Per-kernel TransitionOperator memo (lazily created by
        # TransitionOperator.for_graph).  Rides along with cached sub-graph
        # objects so repeated diffusions never rebuild operator structure;
        # deliberately excluded from pickling (see __getstate__).
        self._operator_memo: Optional[dict] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: Iterable[Tuple[int, int]],
        name: str = "graph",
        directed: bool = False,
    ) -> "CSRGraph":
        """Build a graph from an iterable of ``(u, v)`` pairs.

        Self-loops and duplicate edges are dropped.  When ``directed`` is
        false (the default, matching the paper's simple undirected graphs)
        each edge is stored in both directions.
        """
        from repro.graph.builder import GraphBuilder

        builder = GraphBuilder(num_nodes=num_nodes, directed=directed)
        builder.add_edges(edges)
        return builder.build(name=name)

    @classmethod
    def from_scipy(cls, matrix: sparse.spmatrix, name: str = "graph") -> "CSRGraph":
        """Build a graph from a scipy sparse adjacency matrix.

        The matrix is symmetrised (``max(A, A.T)`` pattern union), its diagonal
        is dropped and values are ignored: only the sparsity pattern matters.
        """
        matrix = sparse.csr_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got {matrix.shape}")
        matrix = matrix.maximum(matrix.T)
        matrix.setdiag(0)
        matrix.eliminate_zeros()
        matrix.sort_indices()
        return cls(matrix.indptr.astype(np.int64), matrix.indices, name=name)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Human-readable graph name."""
        return self._name

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``|V|``."""
        return self._indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|`` (each stored twice internally)."""
        return self._indices.size // 2

    @property
    def num_directed_edges(self) -> int:
        """Number of stored (directed) adjacency entries."""
        return int(self._indices.size)

    @property
    def size(self) -> int:
        """Graph size ``|V| + |E|`` as defined in the paper's preliminaries."""
        return self.num_nodes + self.num_edges

    @property
    def indptr(self) -> np.ndarray:
        """Read-only CSR row-pointer array (length ``num_nodes + 1``)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Read-only CSR column-index array."""
        return self._indices

    # ------------------------------------------------------------------
    # Neighbourhood access
    # ------------------------------------------------------------------
    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        node = check_node_id(node, self.num_nodes)
        return int(self._indptr[node + 1] - self._indptr[node])

    def degrees(self) -> np.ndarray:
        """Array of all node degrees (``int64``)."""
        return np.diff(self._indptr)

    def neighbors(self, node: int) -> np.ndarray:
        """Read-only array of the neighbours of ``node``."""
        node = check_node_id(node, self.num_nodes)
        return self._indices[self._indptr[node] : self._indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` if the edge ``(u, v)`` exists."""
        u = check_node_id(u, self.num_nodes, "u")
        v = check_node_id(v, self.num_nodes, "v")
        row = self.neighbors(u)
        position = np.searchsorted(row, v)
        return bool(position < row.size and row[position] == v)

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Yield each undirected edge once as ``(u, v)`` with ``u < v``."""
        for u in range(self.num_nodes):
            for v in self.neighbors(u):
                if u < v:
                    yield u, int(v)

    def edge_array(self) -> np.ndarray:
        """Return all undirected edges once as an ``(|E|, 2)`` array."""
        sources = np.repeat(np.arange(self.num_nodes), self.degrees())
        mask = sources < self._indices
        return np.column_stack([sources[mask], self._indices[mask]])

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_scipy(self) -> sparse.csr_matrix:
        """Return the (unweighted) adjacency matrix as scipy CSR."""
        data = np.ones(self._indices.size, dtype=np.float64)
        return sparse.csr_matrix(
            (data, self._indices.astype(np.int64), self._indptr),
            shape=(self.num_nodes, self.num_nodes),
        )

    def to_networkx(self):
        """Return an equivalent ``networkx.Graph`` (node ids preserved)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_nodes))
        graph.add_edges_from(self.iter_edges())
        return graph

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Bytes used by the CSR arrays (the CPU-side storage of the graph)."""
        return int(self._indptr.nbytes + self._indices.nbytes)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Structural digest of the CSR arrays (hex, 32 chars).

        Two graphs have the same fingerprint exactly when their ``indptr``
        and ``indices`` arrays are equal — the name is deliberately excluded,
        so a rebuilt graph with identical structure fingerprints the same
        while any topology change (added edge, relabelling, repartition
        rebuild) produces a different digest.  Serving-layer caches key on
        this to guarantee a derived artefact (an extraction, a folded score
        table) is never served against a different topology.

        Computed lazily and memoised: the arrays are immutable, so the hash
        is paid once per graph, not once per cache lookup.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(self._indptr.data)
            digest.update(self._indices.data)
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle only the CSR arrays, the name and the fingerprint memo.

        The operator memo holds derived kernel structure (scipy matrices,
        row-id arrays) that is cheaper to rebuild than to ship — and in the
        process-pool serving path the receiving side attaches its own
        shared-memory arrays anyway.
        """
        return {
            "indptr": self._indptr,
            "indices": self._indices,
            "name": self._name,
            "fingerprint": self._fingerprint,
        }

    def __setstate__(self, state: dict) -> None:
        self._indptr = state["indptr"]
        self._indices = state["indices"]
        self._name = state["name"]
        self._fingerprint = state["fingerprint"]
        self._indptr.setflags(write=False)
        self._indices.setflags(write=False)
        self._operator_memo = None

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:
        return (
            f"CSRGraph(name={self._name!r}, num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:
        # Must agree with the structural __eq__ above: two independently
        # built graphs with identical CSR arrays compare equal, so they have
        # to land in the same hash bucket.  The memoized fingerprint covers
        # exactly the arrays __eq__ compares (names are excluded from both).
        return hash(self.fingerprint())
