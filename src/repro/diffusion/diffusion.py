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

:func:`graph_diffusion` therefore always returns both vectors, one kernel
step (:mod:`repro.diffusion.kernels`) per propagation over a
:class:`~repro.graph.csr.CSRGraph`; the single-stage baseline and the
multi-stage CPU solver run it one ball at a time.  :func:`stage_diffusion`
is the same recurrence over a whole wave of balls at once, the form every
served query runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.diffusion.kernels import make_kernel, structure_for
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


def seed_vector(num_nodes: int, seed: int, value: float = 1.0) -> np.ndarray:
    """Return the initial vector ``S0``: all zeros except ``value`` at ``seed``."""
    seed = check_node_id(seed, num_nodes, "seed")
    vector = np.zeros(num_nodes, dtype=np.float64)
    vector[seed] = value
    return vector


def graph_diffusion(
    graph: CSRGraph,
    initial: np.ndarray,
    length: int,
    alpha: float = DEFAULT_ALPHA,
    kernel: Optional[str] = None,
) -> DiffusionResult:
    """Compute ``GD(length)(initial)`` on a graph.

    Parameters
    ----------
    graph:
        The graph to diffuse on.  Its kernel structure (degrees, row ids) is
        built on its first diffusion and kept on the graph object, so
        repeated diffusions over one sub-graph share it.
    initial:
        Dense initial vector ``S0`` over the graph's nodes.  For PPR this is a
        one-hot vector at the seed node (:func:`seed_vector`), but the stage
        decomposition also diffuses arbitrary residual vectors.
    length:
        Number of propagation steps ``l >= 0``.
    alpha:
        Decay factor in ``[0, 1]``.
    kernel:
        A name in :data:`~repro.diffusion.kernels.KERNELS`; ``None`` is
        ``reference``.  Every kernel yields bit-identical scores.

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
    step_kernel = make_kernel(kernel)
    length = check_non_negative_int(length, "length")
    alpha = check_probability(alpha, "alpha")

    initial = np.asarray(initial, dtype=np.float64)
    if initial.shape != (graph.num_nodes,):
        raise ValueError(
            f"initial must have shape ({graph.num_nodes},), got {initial.shape}"
        )

    # Each step returns the propagation-work count as a by-product, so no
    # per-step mask + fancy-index pass over the degree array is needed.
    structure = structure_for(graph)
    residual = initial.copy()
    accumulated = np.zeros_like(initial)
    propagations = 0
    for step in range(length):
        accumulated += (1.0 - alpha) * (alpha**step) * residual
        residual, touched = step_kernel(structure, residual)
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
    targets: np.ndarray,
    sources: np.ndarray,
    degrees: np.ndarray,
    bounds: Sequence[int],
    seeds: Sequence[int],
    length: int,
    alpha: float = DEFAULT_ALPHA,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``graph_diffusion`` from a one-hot seed in every block of a block-diagonal graph.

    The graph is in push form: a step adds ``score[s] / degrees[s]`` to
    ``t`` for every pair ``(t, s)`` of ``(targets, sources)``.  Nodes
    ``bounds[i]:bounds[i+1]`` form block ``i``, no pair leaves its block,
    and ``degrees`` is each node's degree — a stage's stacked ego balls, as
    an :class:`~repro.graph.bfs.EgoWave` holds them.  Block ``i`` is
    diffused from a one-hot vector at node ``seeds[i]``, all blocks at once,
    each step one sequential scatter (``np.bincount``) over the pairs.  When
    every target meets its sources in ascending id (a CSR's row ids and
    columns, or a fresh wave's BFS reads), each sum is the reference
    kernel's in-row sum, so every block gets, bit for bit, what
    :func:`graph_diffusion` returns for it alone under any kernel.  A pair
    whose source scores ``0.0`` in every step (as a depth-``length`` ball's
    last level does) adds only ``+0.0`` and may be left out.

    Returns the stacked accumulated and residual vectors and each block's
    ``propagations`` (adjacency entries read, counted per block).
    """
    length = check_non_negative_int(length, "length")
    alpha = check_probability(alpha, "alpha")
    bounds = np.asarray(bounds, dtype=np.int64)
    seeds = np.asarray(seeds, dtype=np.int64)
    starts, ends = bounds[:-1], bounds[1:]
    if seeds.shape != starts.shape or ((seeds < starts) | (seeds >= ends)).any():
        raise ValueError(f"need one seed inside each of {bounds.size - 1} blocks, got {seeds}")
    degrees = np.asarray(degrees, dtype=np.int64)
    total = degrees.size
    inverse_degrees = np.divide(1.0, degrees, out=np.zeros(total), where=degrees > 0)

    residual = np.zeros(total, dtype=np.float64)
    residual[seeds] = 1.0
    accumulated = np.zeros(total, dtype=np.float64)
    # Adjacency entries read from each node over all steps; summed per block
    # below, which is each block's own ``propagations``.
    touched = np.zeros(total, dtype=np.int64)
    for step in range(length):
        accumulated += (1.0 - alpha) * (alpha**step) * residual
        np.add(touched, degrees, out=touched, where=residual != 0.0)
        contribution = (residual * inverse_degrees)[sources]
        residual = np.bincount(targets, weights=contribution, minlength=total)
    accumulated += (alpha**length) * residual
    return accumulated, residual, np.add.reduceat(touched, starts)
