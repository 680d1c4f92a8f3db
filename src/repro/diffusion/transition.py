"""The random-walk transition operator ``W = A D^-1``.

Graph diffusion (Eq. 1 of the paper) repeatedly applies the column-stochastic
random-walk matrix ``W = A D^-1`` to a score vector.  This module provides
that operator over :class:`~repro.graph.csr.CSRGraph`; the actual propagation
arithmetic is delegated to a pluggable
:class:`~repro.diffusion.kernels.DiffusionKernel` (bit-identical across
implementations — see :mod:`repro.diffusion.kernels`), while the per-graph
precomputation (degrees, row ids, CSR matrices) is built once per topology
and shared via :func:`~repro.diffusion.kernels.structure_for`.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
from scipy import sparse

from repro.diffusion.kernels import (
    DiffusionKernel,
    GraphStructure,
    _slice_positions,
    make_kernel,
    resolve_kernel_name,
    structure_for,
)
from repro.graph.csr import CSRGraph

__all__ = ["TransitionOperator"]


class TransitionOperator:
    """Applies ``W = A D^-1`` (and its sparse variant) to score vectors.

    Parameters
    ----------
    graph:
        The graph whose random-walk matrix to apply.
    kernel:
        Propagation kernel: a registered name (``"reference"``, ``"csr"``,
        ``"frontier"``), ``"auto"``, a
        :class:`~repro.diffusion.kernels.DiffusionKernel` instance, or
        ``None`` for the environment default.  All kernels produce
        bit-identical scores; the choice is purely a speed knob.

    Notes
    -----
    ``W[u, v] = 1 / degree(v)`` when ``(u, v)`` is an edge.  Applying ``W`` to
    a score vector ``S`` spreads each node's score equally over its
    neighbours — the *propagation* step (``pg1``, ``pg2`` … in Fig. 1).
    Isolated nodes keep a column of zeros, i.e. their score evaporates, which
    matches the paper's treatment (a walk at a dangling node terminates).

    Construction is cheap for a repeated topology: the operator structure is
    fetched from a fingerprint-keyed cache, and :meth:`for_graph` memoises
    whole operators on the graph object itself — so a cached ego sub-graph
    (serving caches, process-pool workers) carries its operator along and a
    stage task never rebuilds ``O(E)`` arrays per diffusion.
    """

    def __init__(
        self,
        graph: CSRGraph,
        kernel: Union[str, DiffusionKernel, None] = None,
    ) -> None:
        self._graph = graph
        self._structure = structure_for(graph)
        self._kernel = make_kernel(kernel)
        self._inverse_degrees = self._structure.inverse_degrees

    # ------------------------------------------------------------------
    @classmethod
    def for_graph(
        cls,
        graph: CSRGraph,
        kernel: Union[str, DiffusionKernel, None] = None,
    ) -> "TransitionOperator":
        """The memoised operator of ``graph`` for the resolved kernel.

        Stored on the graph object (one entry per kernel name), so repeated
        diffusions over the same — typically cached — sub-graph reuse one
        operator instead of rebuilding it per stage task.  The memo never
        pickles with the graph; a worker process rebuilds it on first use
        from its own (shared-memory) arrays.
        """
        name = resolve_kernel_name(kernel)
        memo = graph._operator_memo
        if memo is None:
            memo = {}
            graph._operator_memo = memo
        operator = memo.get(name)
        if operator is None:
            operator = cls(
                graph, kernel if isinstance(kernel, DiffusionKernel) else name
            )
            memo[name] = operator
        return operator

    def with_kernel(
        self, kernel: Union[str, DiffusionKernel, None]
    ) -> "TransitionOperator":
        """This operator with a different kernel (structure shared)."""
        resolved = make_kernel(kernel)
        if resolved is self._kernel:
            return self
        return type(self).for_graph(self._graph, resolved)

    # ------------------------------------------------------------------
    @property
    def graph(self) -> CSRGraph:
        """The underlying graph."""
        return self._graph

    @property
    def num_nodes(self) -> int:
        """Number of nodes of the underlying graph."""
        return self._graph.num_nodes

    @property
    def kernel(self) -> DiffusionKernel:
        """The propagation kernel in use."""
        return self._kernel

    @property
    def structure(self) -> GraphStructure:
        """The shared per-topology operator structure."""
        return self._structure

    # ------------------------------------------------------------------
    def _check_scores(self, scores: np.ndarray, dtype) -> np.ndarray:
        scores = np.asarray(scores, dtype=dtype)
        if scores.shape != (self.num_nodes,):
            raise ValueError(
                f"scores must have shape ({self.num_nodes},), got {scores.shape}"
            )
        return scores

    def apply(self, scores: np.ndarray) -> np.ndarray:
        """Return ``W @ scores`` for a dense score vector."""
        return self._kernel.apply(
            self._structure, self._check_scores(scores, np.float64)
        )

    def apply_counted(self, scores: np.ndarray) -> tuple[np.ndarray, int]:
        """Return ``(W @ scores, adjacency entries touched)``.

        The count is the propagation-work metric of the paper (the sum of
        the degrees of the non-zero entries); frontier-style kernels report
        it as a by-product of the gather, so callers never pay a separate
        mask-and-sum pass per step.
        """
        return self._kernel.apply_counted(
            self._structure, self._check_scores(scores, np.float64)
        )

    def propagate_int(self, values: np.ndarray) -> np.ndarray:
        """Exact integer scatter ``A @ values`` (the fixed-point datapath)."""
        return self._kernel.propagate_int(
            self._structure, self._check_scores(values, np.int64)
        )

    def apply_sparse(self, nodes: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Apply ``W`` to a sparse vector given as ``(nodes, values)``.

        Only the non-zero entries are propagated — this is the kernel the
        FPGA diffuser runs, where the frontier of non-zero scores is small in
        the first iterations.  The gather is a batched ``indptr`` slicing
        over the active entries (no per-node Python loop), preserving the
        historical semantics exactly: entries are expanded in input order
        and summed per target in that same order.

        Returns
        -------
        (nodes, values):
            The non-zero pattern of the result, with unique, sorted nodes.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if nodes.shape != values.shape:
            raise ValueError("nodes and values must have the same shape")
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        if nodes.size == 0:
            return empty
        if nodes.min() < 0 or nodes.max() >= self.num_nodes:
            raise ValueError(
                f"nodes contain ids outside [0, {self.num_nodes})"
            )
        structure = self._structure
        keep = (values != 0.0) & (structure.degrees[nodes] > 0)
        active = nodes[keep]
        if active.size == 0:
            return empty
        active_values = values[keep]
        counts = structure.degrees[active]
        total = int(counts.sum())
        positions = _slice_positions(structure.indptr[active], counts, total)
        all_nodes = structure.indices[positions].astype(np.int64)
        all_values = np.repeat(
            active_values * structure.inverse_degrees[active], counts
        )
        unique, inverse = np.unique(all_nodes, return_inverse=True)
        summed = np.zeros(unique.size, dtype=np.float64)
        np.add.at(summed, inverse, all_values)
        return unique, summed

    def matrix(self) -> sparse.csr_matrix:
        """Return ``W`` as an explicit scipy CSR matrix (used by tests)."""
        adjacency = self._graph.to_scipy()
        return adjacency @ sparse.diags(self._inverse_degrees)

    def apply_power(self, scores: np.ndarray, power: int) -> np.ndarray:
        """Return ``W^power @ scores``."""
        if power < 0:
            raise ValueError(f"power must be >= 0, got {power}")
        result = self._check_scores(scores, np.float64).copy()
        for _ in range(power):
            result = self._kernel.apply(self._structure, result)
        return result

    def __repr__(self) -> str:
        return (
            f"TransitionOperator(graph={self._graph!r}, "
            f"kernel={self._kernel.name!r})"
        )
