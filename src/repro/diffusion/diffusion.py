"""Graph diffusion ``GD(l)(S0)`` — the computational core of the paper.

Eq. (1) of the paper defines graph diffusion of length ``l`` as

.. math::

    S_l = (1 - \\alpha) \\sum_{k=0}^{l-1} \\alpha^k W^k S_0
          + \\alpha^l W^l S_0,

computed iteratively as ``S_{k+1} = (1 - alpha) * S_0 + alpha * W * S_k``.

Fig. 3(b) shows that one diffusion simultaneously produces two outputs:

* the **accumulated scores** ``pi_a = S_l`` — these are folded into the global
  PPR score table, and
* the **residual scores** ``pi_r = W^l S_0`` — these seed the next stage of
  MeLoPPR (the stage decomposition of Eq. 6 subtracts ``alpha^l1 * pi_r`` and
  re-diffuses it).

:func:`graph_diffusion` therefore always returns both vectors.  The same
kernel is reused by the single-stage baseline, the multi-stage CPU solver and
the FPGA processing-element model (which additionally counts cycles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from repro.diffusion.kernels import DiffusionKernel, GraphStructure, make_kernel
from repro.diffusion.transition import TransitionOperator
from repro.graph.csr import CSRGraph
from repro.utils.validation import (
    check_node_id,
    check_non_negative_int,
    check_probability,
)

__all__ = [
    "DiffusionResult",
    "graph_diffusion",
    "stage_diffusion",
    "seed_vector",
    "diffusion_work",
    "DEFAULT_ALPHA",
]

#: Decay factor used throughout the paper's experiments (standard PPR value).
DEFAULT_ALPHA = 0.85


@dataclass(frozen=True)
class DiffusionResult:
    """Output of one graph diffusion ``GD(l)(S0)``.

    Attributes
    ----------
    accumulated:
        Dense vector ``pi_a = S_l`` over the diffusion graph's nodes.
    residual:
        Dense vector ``pi_r = W^l S_0`` over the diffusion graph's nodes.
    length:
        Number of propagation steps ``l``.
    alpha:
        Decay factor used.
    propagations:
        Total number of adjacency entries touched across all iterations — the
        work metric the cycle model charges the FPGA diffuser for.
    """

    accumulated: np.ndarray
    residual: np.ndarray
    length: int
    alpha: float
    propagations: int

    @property
    def num_nodes(self) -> int:
        """Length of the score vectors."""
        return int(self.accumulated.size)

    def score_mass(self) -> float:
        """Total accumulated score mass (stays 1 on a graph with no dangling loss)."""
        return float(self.accumulated.sum())


def seed_vector(num_nodes: int, seed: int, value: float = 1.0) -> np.ndarray:
    """Return the initial vector ``S0``: all zeros except ``value`` at ``seed``."""
    seed = check_node_id(seed, num_nodes, "seed")
    vector = np.zeros(num_nodes, dtype=np.float64)
    vector[seed] = value
    return vector


def graph_diffusion(
    graph_or_operator: Union[CSRGraph, TransitionOperator],
    initial: np.ndarray,
    length: int,
    alpha: float = DEFAULT_ALPHA,
    kernel: Union[str, DiffusionKernel, None] = None,
) -> DiffusionResult:
    """Compute ``GD(length)(initial)`` on a graph.

    Parameters
    ----------
    graph_or_operator:
        Either a :class:`CSRGraph` (the memoised
        :meth:`TransitionOperator.for_graph` operator is used, so repeated
        diffusions over a cached sub-graph share one operator) or a
        pre-built operator.
    initial:
        Dense initial vector ``S0`` over the graph's nodes.  For PPR this is a
        one-hot vector at the seed node (:func:`seed_vector`), but the stage
        decomposition also diffuses arbitrary residual vectors.
    length:
        Number of propagation steps ``l >= 0``.
    alpha:
        Decay factor in ``[0, 1]``.
    kernel:
        Propagation kernel selection (see :mod:`repro.diffusion.kernels`);
        ``None`` keeps the operator's kernel (or the environment default).
        Every kernel yields bit-identical scores.

    Returns
    -------
    DiffusionResult
        Accumulated scores ``S_l``, residual scores ``W^l S0`` and work
        counters.

    Notes
    -----
    The closed form of Eq. 1 is evaluated with a single propagation chain:
    with ``r_k = W^k S0``,

    ``S_l = (1 - alpha) * sum_{k=0}^{l-1} alpha^k r_k + alpha^l r_l``

    so each iteration applies ``W`` once and folds the weighted term into the
    accumulator, exactly the dataflow of Fig. 3(b).  ``length == 0`` returns
    ``accumulated == residual == initial``, which makes the
    stage-decomposition identity of Eq. 6 hold for degenerate splits.
    """
    if isinstance(graph_or_operator, TransitionOperator):
        operator = graph_or_operator
        if kernel is not None:
            operator = operator.with_kernel(kernel)
    else:
        operator = TransitionOperator.for_graph(graph_or_operator, kernel)
    length = check_non_negative_int(length, "length")
    alpha = check_probability(alpha, "alpha")

    initial = np.asarray(initial, dtype=np.float64)
    if initial.shape != (operator.num_nodes,):
        raise ValueError(
            f"initial must have shape ({operator.num_nodes},), got {initial.shape}"
        )

    # The loop talks to the kernel directly (shape validated once above):
    # apply_counted returns the propagation-work count as a by-product, so
    # no per-step mask + fancy-index pass over the degree array is needed.
    structure = operator.structure
    step_kernel = operator.kernel
    residual = initial.copy()
    accumulated = np.zeros_like(initial)
    propagations = 0
    for step in range(length):
        accumulated += (1.0 - alpha) * (alpha**step) * residual
        residual, touched = step_kernel.apply_counted(structure, residual)
        propagations += touched
    accumulated += (alpha**length) * residual

    return DiffusionResult(
        accumulated=accumulated,
        residual=residual,
        length=length,
        alpha=alpha,
        propagations=propagations,
    )


def stage_diffusion(
    graphs: Sequence[CSRGraph],
    seeds: Sequence[int],
    length: int,
    alpha: float = DEFAULT_ALPHA,
    kernel: Union[str, DiffusionKernel, None] = None,
) -> List[DiffusionResult]:
    """``graph_diffusion`` from a one-hot seed on every graph of a stage, at once.

    ``graphs[i]`` is diffused from ``seed_vector(graphs[i].num_nodes,
    seeds[i])``.  The graphs are stacked into one block-diagonal structure and
    each of the ``length`` steps is one application of the kernel to the
    stacked state.  A row sum of the stacked operator stays inside its block
    and keeps its in-row order, so every kernel returns, block by block, the
    bits :func:`graph_diffusion` returns for that graph alone —
    ``propagations`` included, which is counted per block.  The per-graph
    results are views of the stacked vectors.
    """
    length = check_non_negative_int(length, "length")
    alpha = check_probability(alpha, "alpha")
    step_kernel = make_kernel(kernel)
    if len(seeds) != len(graphs):
        raise ValueError(f"{len(graphs)} graphs but {len(seeds)} seeds")
    if not graphs:
        return []
    sizes = [graph.num_nodes for graph in graphs]
    seeds = [check_node_id(seed, size, "seed") for seed, size in zip(seeds, sizes)]
    entries = [graph.indices.size for graph in graphs]
    bounds = np.cumsum([0] + sizes)
    starts = bounds[:-1]
    indptr = np.zeros(bounds[-1] + 1, dtype=np.int64)
    np.add(
        np.concatenate([graph.indptr[1:] for graph in graphs]),
        np.repeat(np.cumsum([0] + entries[:-1]), sizes),
        out=indptr[1:],
    )
    indices = np.concatenate([graph.indices for graph in graphs]) + np.repeat(starts, entries)
    structure = GraphStructure(indptr, indices)

    residual = np.zeros(structure.num_nodes, dtype=np.float64)
    residual[starts + seeds] = 1.0
    accumulated = np.zeros_like(residual)
    # Adjacency entries read from each node over all steps; summed per block
    # below, which is each graph's own ``propagations``.
    touched = np.zeros(structure.num_nodes, dtype=np.int64)
    for step in range(length):
        accumulated += (1.0 - alpha) * (alpha**step) * residual
        np.add(touched, structure.degrees, out=touched, where=residual != 0.0)
        residual = step_kernel.apply(structure, residual)
    accumulated += (alpha**length) * residual
    propagations = np.add.reduceat(touched, starts)

    return [
        DiffusionResult(
            accumulated=accumulated[begin:end],
            residual=residual[begin:end],
            length=length,
            alpha=alpha,
            propagations=work,
        )
        for begin, end, work in zip(
            bounds[:-1].tolist(), bounds[1:].tolist(), propagations.tolist()
        )
    ]


def diffusion_work(graph: CSRGraph, length: int) -> int:
    """Upper bound on adjacency entries touched by a length-``length`` diffusion.

    Each iteration touches every edge twice in the dense regime, so the bound
    is ``2 * |E| * length``.  Used by quick capacity checks in the hardware
    model before a sub-graph is committed to a processing element.
    """
    length = check_non_negative_int(length, "length")
    return 2 * graph.num_edges * length
