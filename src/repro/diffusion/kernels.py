"""Pluggable diffusion kernels: the propagation step at native speed.

The inner loop of every experiment in this repository is one propagation of
the random-walk operator ``W = A D^-1`` over a CSR graph (Eq. 1 / Fig. 3(b)
of the paper).  This module factors that step out of
:class:`~repro.diffusion.transition.TransitionOperator` into interchangeable
**kernels** behind a small registry, so the serving stack can pick the
fastest implementation available without ever changing a score:

``reference``
    The historical scatter: gather neighbour contributions and accumulate
    them with ``np.add.at`` over a (now precomputed) row-id array.  Slow but
    transparently equal to the textbook definition — the spec every other
    kernel is tested against.
``csr``
    One scipy CSR matrix–vector product per step over a precomputed matrix
    whose data is ``1/deg(v)`` at entry ``(u, v)``.  scipy's C loop
    accumulates each row sequentially in storage order — the same order as
    the reference scatter — so results are **bit-identical**, just ~2-3x
    faster.
``frontier``
    Direction-optimising: while the set of non-zero scores is sparse (the
    first iterations of a one-hot PPR seed — the regime the paper's FPGA
    diffuser exploits), gather only over the frontier's adjacency slices and
    scatter with ``np.bincount``; past a density threshold it switches to
    the dense ``csr`` product.  Bit-identical when neighbour lists are
    sorted ascending (every graph built by this library; verified once per
    structure, with a dense fallback otherwise).
``auto``
    The fastest bit-exact kernel: ``frontier``.

Bit-exactness is the load-bearing contract: caches, shards, process pools
and the differential test suites all assert scores equal to the serial
reference, so a kernel may only change *how* the sum is computed, never the
floating-point accumulation order within a row.  Integer propagation
(:meth:`DiffusionKernel.propagate_int`, the fixed-point FPGA datapath) is
order-independent, so those paths only need exact integer arithmetic.

Per-graph precomputation (row ids, the CSR matrices, the sorted-rows check)
lives in :class:`GraphStructure`, built once per topology and shared through
a fingerprint-keyed LRU (:func:`structure_for`), so repeated diffusions over
a cached sub-graph never rebuild operator structure.
"""

from __future__ import annotations

import abc
import os
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Union

import numpy as np
from scipy import sparse

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.csr import CSRGraph

__all__ = [
    "DENSE_FRONTIER_FRACTION",
    "KERNEL_ENV_VAR",
    "DiffusionKernel",
    "GraphStructure",
    "ReferenceKernel",
    "CSRKernel",
    "FrontierKernel",
    "available_kernels",
    "default_kernel_name",
    "make_kernel",
    "register_kernel",
    "resolve_kernel_name",
    "structure_for",
]

#: Environment variable selecting the library-wide default kernel.
KERNEL_ENV_VAR = "REPRO_DIFFUSION_KERNEL"

#: Frontier density (non-zero fraction) above which the frontier kernel
#: switches to the dense CSR product.  Past this point the slice-gather
#: bookkeeping costs more than the zeros it skips.
DENSE_FRONTIER_FRACTION = 0.25


def _slice_positions(starts: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """Indices into ``indices`` covering the CSR slices ``[starts, starts+counts)``.

    The vectorised replacement for a per-node Python loop over
    ``indices[indptr[v]:indptr[v+1]]``: one ``arange`` shifted per slice.
    """
    offsets = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, counts)


class GraphStructure:
    """Precomputed per-topology operator structure shared by every kernel.

    Holds the CSR arrays plus everything a kernel would otherwise rebuild on
    each propagation: degrees, inverse degrees, the reference scatter's
    row-id array, the scipy matrices of ``W`` (float) and ``A`` (int), and
    the sorted-rows flag the frontier kernel's exactness argument needs.
    All derived fields are lazy — a structure only pays for what its kernel
    touches.
    """

    __slots__ = (
        "indptr",
        "indices",
        "num_nodes",
        "degrees",
        "inverse_degrees",
        "_row_ids",
        "_matrix",
        "_int_matrix",
        "_rows_sorted",
    )

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices)
        self.num_nodes = int(self.indptr.size - 1)
        self.degrees = np.diff(self.indptr)
        float_degrees = self.degrees.astype(np.float64)
        with np.errstate(divide="ignore"):
            self.inverse_degrees = np.where(
                float_degrees > 0, 1.0 / float_degrees, 0.0
            )
        self._row_ids: Optional[np.ndarray] = None
        self._matrix: Optional[sparse.csr_matrix] = None
        self._int_matrix: Optional[sparse.csr_matrix] = None
        self._rows_sorted: Optional[bool] = None

    # ------------------------------------------------------------------
    @property
    def row_ids(self) -> np.ndarray:
        """Row id of every adjacency entry (the reference scatter's target)."""
        if self._row_ids is None:
            self._row_ids = np.repeat(
                np.arange(self.num_nodes, dtype=np.intp), self.degrees
            )
        return self._row_ids

    def _index_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR index arrays for the scipy matrices (narrowest safe dtype)."""
        dtype = np.int32 if self.indices.size < np.iinfo(np.int32).max else np.int64
        return self.indices.astype(dtype), self.indptr.astype(dtype)

    @property
    def matrix(self) -> sparse.csr_matrix:
        """``W = A D^-1`` as scipy CSR (data ``1/deg(v)`` at entry ``(u, v)``)."""
        if self._matrix is None:
            indices, indptr = self._index_arrays()
            self._matrix = sparse.csr_matrix(
                (self.inverse_degrees[self.indices], indices, indptr),
                shape=(self.num_nodes, self.num_nodes),
            )
        return self._matrix

    @property
    def int_matrix(self) -> sparse.csr_matrix:
        """The unweighted adjacency as int64 CSR (exact integer matvec)."""
        if self._int_matrix is None:
            indices, indptr = self._index_arrays()
            self._int_matrix = sparse.csr_matrix(
                (np.ones(self.indices.size, dtype=np.int64), indices, indptr),
                shape=(self.num_nodes, self.num_nodes),
            )
        return self._int_matrix

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

    # ------------------------------------------------------------------
    def touched(self, scores: np.ndarray) -> int:
        """Adjacency entries one propagation of ``scores`` reads.

        A where-reduction over the degree array — no compacted fancy-index
        copy per step, which is what the old per-step
        ``degrees[scores != 0].sum()`` allocated.
        """
        return int(
            np.add.reduce(self.degrees, where=scores != 0.0, initial=0)
        )

    def __repr__(self) -> str:
        return (
            f"GraphStructure(num_nodes={self.num_nodes}, "
            f"num_entries={self.indices.size})"
        )


# ----------------------------------------------------------------------
# Structure cache (fingerprint-keyed LRU).
# ----------------------------------------------------------------------
_STRUCTURE_CACHE_SIZE = 64
_structure_lock = threading.Lock()
_structures: "OrderedDict[str, GraphStructure]" = OrderedDict()


def structure_for(graph: "CSRGraph") -> GraphStructure:
    """The shared :class:`GraphStructure` of ``graph``'s topology.

    Keyed by :meth:`~repro.graph.csr.CSRGraph.fingerprint`, so two extractions
    of the same ego sub-graph — or a sub-graph re-extracted after a cache
    eviction — share one structure (and its lazily built matrices) instead of
    rebuilding it.  Bounded LRU; thread-safe.
    """
    key = graph.fingerprint()
    with _structure_lock:
        structure = _structures.get(key)
        if structure is not None:
            _structures.move_to_end(key)
            return structure
    structure = GraphStructure(graph.indptr, graph.indices)
    with _structure_lock:
        existing = _structures.get(key)
        if existing is not None:
            _structures.move_to_end(key)
            return existing
        _structures[key] = structure
        while len(_structures) > _STRUCTURE_CACHE_SIZE:
            _structures.popitem(last=False)
    return structure


# ----------------------------------------------------------------------
# Kernels.
# ----------------------------------------------------------------------
class DiffusionKernel(abc.ABC):
    """One propagation step ``W @ scores`` over a :class:`GraphStructure`.

    Every implementation must be **bit-identical** to
    :class:`ReferenceKernel` on float scores (same accumulation order within
    each row, up to exact-zero terms) and exactly equal on integer
    propagation — the differential suite in
    ``tests/test_diffusion_kernels.py`` enforces this for every registered
    kernel.  Kernels are stateless (all per-graph state lives on the
    structure), so one instance serves every graph and thread.
    """

    #: Registry name; also what ``resolve_kernel_name`` reports.
    name: str = "kernel"

    @abc.abstractmethod
    def apply(self, structure: GraphStructure, scores: np.ndarray) -> np.ndarray:
        """Return ``W @ scores`` (float64, dense in and out)."""

    def apply_counted(
        self, structure: GraphStructure, scores: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """``(W @ scores, adjacency entries touched)`` in one call.

        The count equals ``sum(degree(v) for v with scores[v] != 0)`` — the
        paper's propagation work metric.  Kernels that already know the
        frontier override this to get the count for free.
        """
        return self.apply(structure, scores), structure.touched(scores)

    @abc.abstractmethod
    def propagate_int(
        self, structure: GraphStructure, values: np.ndarray
    ) -> np.ndarray:
        """Scatter integer per-source contributions: ``A @ values`` (int64).

        The fixed-point datapath computes ``values[v] = score[v] // deg(v)``
        itself; this is only the exact integer row-sum, where summation
        order cannot matter.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ReferenceKernel(DiffusionKernel):
    """The textbook gather + ``np.add.at`` scatter (the exactness spec)."""

    name = "reference"

    def apply(self, structure: GraphStructure, scores: np.ndarray) -> np.ndarray:
        contribution = scores * structure.inverse_degrees
        result = np.zeros(structure.num_nodes, dtype=np.float64)
        np.add.at(result, structure.row_ids, contribution[structure.indices])
        return result

    def propagate_int(
        self, structure: GraphStructure, values: np.ndarray
    ) -> np.ndarray:
        result = np.zeros(structure.num_nodes, dtype=np.int64)
        np.add.at(result, structure.row_ids, values[structure.indices])
        return result


class CSRKernel(DiffusionKernel):
    """One scipy CSR matvec per step (sequential row accumulation in C)."""

    name = "csr"

    def apply(self, structure: GraphStructure, scores: np.ndarray) -> np.ndarray:
        # scipy's csr_matvec accumulates each row left to right in storage
        # order — the same order np.add.at visits the sorted row ids — and
        # data[jj] * scores[v] is the commuted form of the reference's
        # (scores * inverse_degrees)[v], so the result is bit-identical.
        return structure.matrix @ scores

    def propagate_int(
        self, structure: GraphStructure, values: np.ndarray
    ) -> np.ndarray:
        return structure.int_matrix @ values


class FrontierKernel(DiffusionKernel):
    """Direction-optimising kernel: sparse slice-gather, dense matvec.

    While few scores are non-zero, only the frontier's adjacency slices are
    gathered (a batched ``indptr`` slicing — no Python loop) and scattered
    with ``np.bincount``, which also accumulates sequentially in input
    order; each target row therefore receives its non-zero contributions in
    ascending source order, matching the dense sum bitwise whenever
    neighbour lists are sorted (checked once per structure — unsorted rows
    fall back to the dense product, trading speed, never exactness).  Past
    :data:`DENSE_FRONTIER_FRACTION` density it delegates to the ``csr``
    matvec.
    """

    name = "frontier"

    def __init__(self, dense_fraction: float = DENSE_FRONTIER_FRACTION) -> None:
        if not 0.0 < dense_fraction <= 1.0:
            raise ValueError(
                f"dense_fraction must be in (0, 1], got {dense_fraction}"
            )
        self.dense_fraction = dense_fraction

    def apply(self, structure: GraphStructure, scores: np.ndarray) -> np.ndarray:
        return self.apply_counted(structure, scores)[0]

    def apply_counted(
        self, structure: GraphStructure, scores: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        frontier = np.flatnonzero(scores)
        if frontier.size == 0:
            return np.zeros(structure.num_nodes, dtype=np.float64), 0
        counts = structure.degrees[frontier]
        touched = int(counts.sum())
        if (
            not structure.rows_sorted
            or frontier.size > self.dense_fraction * structure.num_nodes
        ):
            return structure.matrix @ scores, touched
        if touched == 0:
            return np.zeros(structure.num_nodes, dtype=np.float64), 0
        positions = _slice_positions(structure.indptr[frontier], counts, touched)
        weights = np.repeat(
            scores[frontier] * structure.inverse_degrees[frontier], counts
        )
        result = np.bincount(
            structure.indices[positions],
            weights=weights,
            minlength=structure.num_nodes,
        )
        return result, touched

    def propagate_int(
        self, structure: GraphStructure, values: np.ndarray
    ) -> np.ndarray:
        frontier = np.flatnonzero(values)
        result = np.zeros(structure.num_nodes, dtype=np.int64)
        if frontier.size == 0:
            return result
        # Integer addition is exact in any order, so no sorted-rows guard.
        if frontier.size > self.dense_fraction * structure.num_nodes:
            return structure.int_matrix @ values
        counts = structure.degrees[frontier]
        total = int(counts.sum())
        if total == 0:
            return result
        positions = _slice_positions(structure.indptr[frontier], counts, total)
        np.add.at(
            result,
            structure.indices[positions],
            np.repeat(values[frontier], counts),
        )
        return result

    def __repr__(self) -> str:
        return f"FrontierKernel(dense_fraction={self.dense_fraction})"


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------
_registry: Dict[str, Callable[[], DiffusionKernel]] = {}
_instances: Dict[str, DiffusionKernel] = {}
_registry_lock = threading.Lock()


def register_kernel(
    name: str, factory: Callable[[], DiffusionKernel], replace: bool = False
) -> None:
    """Register a kernel factory under ``name`` (case-insensitive).

    ``"auto"`` is reserved (it resolves to a registered kernel).  Pass
    ``replace=True`` to override an existing registration — useful for
    experiments plugging in instrumented kernels.
    """
    key = name.strip().lower()
    if not key or key == "auto":
        raise ValueError(f"kernel name {name!r} is reserved")
    with _registry_lock:
        if key in _registry and not replace:
            raise ValueError(f"kernel {key!r} is already registered")
        _registry[key] = factory
        _instances.pop(key, None)


def available_kernels() -> Tuple[str, ...]:
    """Sorted names of every registered kernel (``auto`` excluded)."""
    with _registry_lock:
        return tuple(sorted(_registry))


def default_kernel_name() -> str:
    """The library-wide default kernel spec (:data:`KERNEL_ENV_VAR` or ``auto``)."""
    env = os.environ.get(KERNEL_ENV_VAR, "").strip().lower()
    return env or "auto"


def resolve_kernel_name(
    spec: Union[str, DiffusionKernel, None] = None
) -> str:
    """Resolve a kernel spec to a concrete registered name.

    ``None`` means the environment default; ``"auto"`` (from either source)
    resolves to ``"frontier"``.  The returned name is what the
    process-pool backend ships to its workers, so resolution happens once,
    parent-side.
    """
    if isinstance(spec, DiffusionKernel):
        return spec.name
    name = (spec if spec is not None else default_kernel_name()).strip().lower()
    if name == "auto":
        name = "frontier"
    with _registry_lock:
        if name not in _registry:
            known = ", ".join(sorted(_registry))
            raise ValueError(
                f"unknown diffusion kernel {name!r}; choose from "
                f"{known} or 'auto'"
            )
    return name


def make_kernel(
    spec: Union[str, DiffusionKernel, None] = None
) -> DiffusionKernel:
    """Build (or fetch the shared instance of) a kernel from a spec.

    Accepts a registered name, ``"auto"``, ``None`` (environment default) or
    a :class:`DiffusionKernel` instance (passed through unchanged).  Named
    kernels are stateless, so one shared instance per name is returned.
    """
    if isinstance(spec, DiffusionKernel):
        return spec
    name = resolve_kernel_name(spec)
    with _registry_lock:
        kernel = _instances.get(name)
        if kernel is None:
            kernel = _registry[name]()
            _instances[name] = kernel
    return kernel


register_kernel("reference", ReferenceKernel)
register_kernel("csr", CSRKernel)
register_kernel("frontier", FrontierKernel)
