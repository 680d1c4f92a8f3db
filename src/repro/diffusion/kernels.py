"""Diffusion kernels: the propagation step, the spec and the production form.

The inner loop of every experiment in this repository is one propagation of
the random-walk operator ``W = A D^-1`` over a CSR graph (Eq. 1 / Fig. 3(b)
of the paper).  This module holds that step as three bit-identical **step
functions** ``(structure, scores) -> (W @ scores, entries touched)``, named
in :data:`KERNELS`.  Every
:func:`~repro.diffusion.diffusion.graph_diffusion` above the diffusion layer
(the per-ball solver, the local baseline) runs ``reference``; the served
wave path runs :func:`~repro.diffusion.diffusion.stage_diffusion`'s own
scatter, held to every kernel bit for bit.  The other two stay nameable
only so the diffusion layer's differential tests and the layered
benchmark's ``diffusion.kernels.*`` rows can compare them with it:

``reference``
    The textbook scatter: gather neighbour contributions and accumulate
    them with ``np.add.at`` over a (precomputed) row-id array.  The spec
    every other kernel is tested against, and the default: on the small
    ego balls a query diffuses it measures fastest of the three, and it
    needs nothing beyond NumPy.
``csr``
    One scipy CSR matrix–vector product per step over a precomputed matrix
    whose data is ``1/deg(v)`` at entry ``(u, v)``.  scipy's C loop
    accumulates each row sequentially in storage order — the same order as
    the reference scatter — so results are **bit-identical**.  On a fresh
    ego ball it loses: the scipy matrix is built per ball and never
    amortised.
``frontier``
    Direction-optimising: while the set of non-zero scores is sparse, gather
    only over the frontier's adjacency slices and scatter with
    ``np.bincount``; past :data:`DENSE_FRONTIER_FRACTION` density it
    switches to the dense ``csr`` product.  Bit-identical when neighbour
    lists are sorted ascending (every graph built by this library; verified
    once per structure, with a dense fallback otherwise).  Its density test
    and slice bookkeeping only pay off on balls the size of a whole graph,
    which no served configuration diffuses.

Bit-exactness is the load-bearing contract: caches, backends and
the differential test suites all assert scores equal to the serial
reference, so a kernel may only change *how* the sum is computed, never the
floating-point accumulation order within a row.

Per-graph precomputation (row ids, the CSR matrix, the sorted-rows check)
lives in :class:`GraphStructure`, built on a graph's first diffusion and
kept on that graph object (:func:`structure_for`), so repeated diffusions
over one sub-graph never rebuild it.  scipy is imported only where the CSR
matrix is built, so a process that runs the default kernel never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from scipy import sparse

    from repro.graph.csr import CSRGraph

__all__ = [
    "DENSE_FRONTIER_FRACTION",
    "KERNELS",
    "GraphStructure",
    "make_kernel",
    "structure_for",
]

#: Frontier density (non-zero fraction) above which the frontier kernel
#: switches to the dense CSR product.  Past this point the slice-gather
#: bookkeeping costs more than the zeros it skips.
DENSE_FRONTIER_FRACTION = 0.25


class GraphStructure:
    """Precomputed per-topology operator structure shared by every kernel.

    Holds the CSR arrays plus everything a kernel would otherwise rebuild on
    each propagation: degrees, inverse degrees, the reference scatter's
    row-id array, the scipy matrix of ``W`` and the sorted-rows flag the
    frontier kernel's exactness argument needs.  The last three are lazy —
    a structure only pays for what its kernel touches.
    """

    __slots__ = (
        "indptr",
        "indices",
        "num_nodes",
        "degrees",
        "inverse_degrees",
        "_row_ids",
        "_matrix",
        "_rows_sorted",
    )

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices)
        self.num_nodes = int(self.indptr.size - 1)
        self.degrees = self.indptr[1:] - self.indptr[:-1]
        self.inverse_degrees = np.divide(
            1.0, self.degrees, out=np.zeros(self.num_nodes), where=self.degrees > 0
        )
        self._row_ids: Optional[np.ndarray] = None
        self._matrix: Optional[sparse.csr_matrix] = None
        self._rows_sorted: Optional[bool] = None

    @property
    def row_ids(self) -> np.ndarray:
        """Row id of every adjacency entry (the reference scatter's target)."""
        if self._row_ids is None:
            self._row_ids = np.repeat(
                np.arange(self.num_nodes, dtype=np.intp), self.degrees
            )
        return self._row_ids

    @property
    def matrix(self) -> sparse.csr_matrix:
        """``W = A D^-1`` as scipy CSR (data ``1/deg(v)`` at entry ``(u, v)``)."""
        if self._matrix is None:
            from scipy import sparse

            dtype = np.int32 if self.indices.size < np.iinfo(np.int32).max else np.int64
            self._matrix = sparse.csr_matrix(
                (
                    self.inverse_degrees[self.indices],
                    self.indices.astype(dtype),
                    self.indptr.astype(dtype),
                ),
                shape=(self.num_nodes, self.num_nodes),
            )
        return self._matrix

    @property
    def rows_sorted(self) -> bool:
        """Whether every neighbour list is sorted ascending.

        The frontier kernel's sparse gather sums a row's non-zero
        contributions in ascending neighbour order; that matches the dense
        kernels' storage-order sums (bitwise — dropped terms are exact
        zeros) only when the stored rows are themselves ascending.
        """
        if self._rows_sorted is None:
            indices = self.indices
            if indices.size < 2:
                self._rows_sorted = True
            else:
                within_row = np.diff(indices) >= 0
                boundaries = self.indptr[1:-1]
                boundaries = boundaries[
                    (boundaries > 0) & (boundaries < indices.size)
                ]
                if boundaries.size:
                    within_row[boundaries - 1] = True
                self._rows_sorted = bool(within_row.all())
        return self._rows_sorted

    def touched(self, scores: np.ndarray) -> int:
        """Adjacency entries one propagation of ``scores`` reads: the
        degrees of its non-zero entries (the paper's propagation work)."""
        return int(
            np.add.reduce(self.degrees, where=scores != 0.0, initial=0)
        )


def structure_for(graph: "CSRGraph") -> GraphStructure:
    """``graph``'s :class:`GraphStructure`, built on first use and kept on
    the graph object, so it lives and dies with the graph."""
    structure = graph._structure
    if structure is None:
        structure = graph._structure = GraphStructure(graph.indptr, graph.indices)
    return structure


# ----------------------------------------------------------------------
# Kernels: (structure, scores) -> (W @ scores, adjacency entries touched).
# ----------------------------------------------------------------------
Kernel = Callable[[GraphStructure, np.ndarray], Tuple[np.ndarray, int]]


def _reference(structure: GraphStructure, scores: np.ndarray) -> Tuple[np.ndarray, int]:
    """The textbook gather + ``np.add.at`` scatter (the exactness spec)."""
    contribution = scores * structure.inverse_degrees
    result = np.zeros(structure.num_nodes, dtype=np.float64)
    np.add.at(result, structure.row_ids, contribution[structure.indices])
    return result, structure.touched(scores)


def _csr(structure: GraphStructure, scores: np.ndarray) -> Tuple[np.ndarray, int]:
    """One scipy CSR matvec: ``csr_matvec`` accumulates each row left to
    right in storage order — the order ``np.add.at`` visits the sorted row
    ids — and ``data[jj] * scores[v]`` is the commuted form of the
    reference's ``(scores * inverse_degrees)[v]``, so it is bit-identical."""
    return structure.matrix @ scores, structure.touched(scores)


def _frontier(structure: GraphStructure, scores: np.ndarray) -> Tuple[np.ndarray, int]:
    """Sparse slice-gather while few scores are non-zero, dense matvec after.

    Only the frontier's adjacency slices are gathered and scattered with
    ``np.bincount``, which accumulates sequentially in input order; each
    target row therefore receives its non-zero contributions in ascending
    source order, matching the dense sum bitwise whenever neighbour lists
    are sorted (unsorted rows fall back to the dense product, trading
    speed, never exactness).
    """
    frontier = np.flatnonzero(scores)
    if frontier.size == 0:
        return np.zeros(structure.num_nodes, dtype=np.float64), 0
    counts = structure.degrees[frontier]
    touched = int(counts.sum())
    if (
        not structure.rows_sorted
        or frontier.size > DENSE_FRONTIER_FRACTION * structure.num_nodes
    ):
        return structure.matrix @ scores, touched
    if touched == 0:
        return np.zeros(structure.num_nodes, dtype=np.float64), 0
    # The slices [indptr[v], indptr[v] + degree(v)) of every frontier node,
    # as one arange shifted per slice.
    offsets = np.cumsum(counts) - counts
    positions = np.arange(touched, dtype=np.int64) + np.repeat(
        structure.indptr[frontier] - offsets, counts
    )
    weights = np.repeat(scores[frontier] * structure.inverse_degrees[frontier], counts)
    result = np.bincount(
        structure.indices[positions], weights=weights, minlength=structure.num_nodes
    )
    return result, touched


#: Every kernel, by name.
KERNELS: Dict[str, Kernel] = {
    "reference": _reference,
    "csr": _csr,
    "frontier": _frontier,
}


def make_kernel(name: Optional[str] = None) -> Kernel:
    """The kernel ``name`` names in :data:`KERNELS`; ``None`` is ``reference``."""
    try:
        return KERNELS["reference" if name is None else name]
    except KeyError:
        raise ValueError(
            f"unknown diffusion kernel {name!r}; choose from {', '.join(KERNELS)}"
        ) from None
