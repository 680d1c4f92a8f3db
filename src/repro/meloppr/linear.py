"""Linear decomposition (Sec. IV-C, Eq. 7–8).

Graph diffusion is linear in its initial vector, so the stage-two diffusion of
the residual ``S^r_{l1}`` can be split into one diffusion per non-zero entry:

.. math::

    GD^{(l_2)}(S^r_{l_1}) = \\sum_{v \\in G_{l_1}(s)} GD^{(l_2)}(S^r_{l_1, v})

where ``S^r_{l1,v}`` zeroes every component except the one at ``v``.  Each of
those diffusions only needs the small sub-graph ``G_{l2}(v)``, which is what
makes MeLoPPR memory-efficient: no data structure proportional to
``G_L(s)`` is ever materialised.

This module provides the decomposition utilities (splitting a residual vector
into single-node components) plus a single-graph verification helper used by
the property-based tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

import numpy as np

from repro.diffusion.diffusion import graph_diffusion
from repro.diffusion.transition import TransitionOperator
from repro.graph.csr import CSRGraph

__all__ = [
    "ResidualComponent",
    "split_residual",
    "linear_decomposed_diffusion",
]


@dataclass(frozen=True)
class ResidualComponent:
    """One term of the linear decomposition: node ``node`` with mass ``value``.

    The stage-two diffusion for this component is seeded with a one-hot
    vector at ``node`` scaled by ``value`` — equivalently, diffuse a unit
    vector and scale the result, which is how the solver shares sub-graph
    diffusions between components.
    """

    node: int
    value: float


def split_residual(
    nodes: np.ndarray,
    residuals: np.ndarray,
    tolerance: float = 0.0,
) -> List[ResidualComponent]:
    """Split a residual vector (as parallel arrays) into per-node components.

    Entries with ``|value| <= tolerance`` are dropped — they carry no
    probability mass worth another BFS + diffusion.

    Parameters
    ----------
    nodes:
        Node ids carrying residual mass.
    residuals:
        Residual values aligned with ``nodes``.
    tolerance:
        Absolute drop threshold.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    residuals = np.asarray(residuals, dtype=np.float64)
    if nodes.shape != residuals.shape:
        raise ValueError("nodes and residuals must have the same shape")
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    components = [
        ResidualComponent(int(node), float(value))
        for node, value in zip(nodes, residuals)
        if abs(value) > tolerance
    ]
    # Descending residual order: the order in which next-stage nodes are
    # considered for selection and dispatched to processing elements.
    components.sort(key=lambda component: (-component.value, component.node))
    return components


def linear_decomposed_diffusion(
    graph_or_operator: Union[CSRGraph, TransitionOperator],
    nodes: np.ndarray,
    residuals: np.ndarray,
    length: int,
    alpha: float,
    num_nodes: int | None = None,
) -> np.ndarray:
    """Evaluate the right-hand side of Eq. 7 on a single graph.

    Runs one diffusion per non-zero residual component and sums the results.
    Mathematically identical to diffusing the whole residual vector at once;
    the point of the decomposition is that *in the solver* each component
    diffusion runs on its own small sub-graph.  Tests compare this function
    against the direct diffusion to validate the identity.
    """
    operator = (
        graph_or_operator
        if isinstance(graph_or_operator, TransitionOperator)
        else TransitionOperator(graph_or_operator)
    )
    total_nodes = operator.num_nodes if num_nodes is None else int(num_nodes)
    result = np.zeros(total_nodes, dtype=np.float64)
    for component in split_residual(nodes, residuals):
        seed = np.zeros(total_nodes, dtype=np.float64)
        seed[component.node] = component.value
        diffusion = graph_diffusion(operator, seed, length, alpha)
        result += diffusion.accumulated
    return result
