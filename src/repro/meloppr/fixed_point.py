"""Fixed-point (integer) arithmetic model of the FPGA datapath (Sec. V-A).

Floating-point PPR scores are "highly inefficient on FPGA", so the paper's
accelerator represents scores as 32-bit integers:

* the seed node starts with a large integer ``Max = d * |G_L(s)|`` where ``d``
  is a degree-derived scale (the paper uses half the maximum degree of
  ``G_L(s)``), and
* the multiplication by the fractional decay ``alpha`` is approximated as
  ``alpha ~= alpha_p / 2**q`` with a 16-bit integer ``alpha_p`` and a
  ``q``-bit right shift (``q = 10`` in the paper), so no DSP divider is
  needed.

The paper reports that with ``d`` equal to the average degree the top-k
precision loss is below 4 %, and with ``d`` equal to the maximum degree it is
below 0.001 %.  :class:`FixedPointFormat` captures the representation;
:func:`quantize_alpha` and :func:`fixed_point_diffusion` implement the
integer datapath so the loss can be measured (experiment E6).  Its
propagation is one int64 ``np.add.at`` scatter per step over the graph's
row ids: integer sums do not depend on their order, so the scatter is exact
and needs none of the float kernels' ordering care.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.diffusion.kernels import structure_for
from repro.graph.csr import CSRGraph
from repro.utils.validation import check_positive_int, check_probability

__all__ = [
    "FixedPointFormat",
    "quantize_alpha",
    "fixed_point_diffusion",
    "FixedPointDiffusionResult",
]

#: Bit width of the integer score representation used on the FPGA.
SCORE_BITS = 32

#: Bit width of the quantised alpha numerator.
ALPHA_BITS = 16


def quantize_alpha(alpha: float, shift_bits: int = 10) -> Tuple[int, int]:
    """Quantise ``alpha`` as ``alpha_p / 2**shift_bits``.

    Returns ``(alpha_p, shift_bits)`` with ``alpha_p`` clamped to 16 bits.
    """
    alpha = check_probability(alpha, "alpha")
    shift_bits = check_positive_int(shift_bits, "shift_bits")
    numerator = int(round(alpha * (1 << shift_bits)))
    limit = (1 << ALPHA_BITS) - 1
    return min(numerator, limit), shift_bits


@dataclass(frozen=True)
class FixedPointFormat:
    """The integer score format of the FPGA datapath.

    Attributes
    ----------
    seed_value:
        The integer assigned to the seed node (``Max = d * |G_L(s)|``).
    alpha_numerator:
        Quantised alpha numerator ``alpha_p``.
    shift_bits:
        The shift amount ``q`` (division by ``2**q``).
    """

    seed_value: int
    alpha_numerator: int
    shift_bits: int

    def __post_init__(self) -> None:
        if self.seed_value <= 0:
            raise ValueError(f"seed_value must be > 0, got {self.seed_value}")
        if self.seed_value >= 2**SCORE_BITS:
            raise ValueError(
                f"seed_value {self.seed_value} does not fit in {SCORE_BITS} bits"
            )
        if not 0 <= self.alpha_numerator < 2**ALPHA_BITS:
            raise ValueError(
                f"alpha_numerator must fit in {ALPHA_BITS} bits, got {self.alpha_numerator}"
            )
        if self.shift_bits <= 0:
            raise ValueError(f"shift_bits must be > 0, got {self.shift_bits}")

    @classmethod
    def for_subgraph(
        cls,
        alpha: float,
        subgraph_nodes: int,
        degree_scale: float,
        shift_bits: int = 10,
    ) -> "FixedPointFormat":
        """Build the format for one query, following the paper's recipe.

        ``seed_value = ceil(degree_scale * subgraph_nodes)`` where
        ``degree_scale`` is the ``d`` of Sec. V-A (average degree, half the
        maximum degree, or the maximum degree of ``G_L(s)``).
        """
        if subgraph_nodes <= 0:
            raise ValueError("subgraph_nodes must be > 0")
        if degree_scale <= 0:
            raise ValueError("degree_scale must be > 0")
        seed_value = int(np.ceil(degree_scale * subgraph_nodes))
        seed_value = max(seed_value, 1)
        seed_value = min(seed_value, 2**SCORE_BITS - 1)
        numerator, shift = quantize_alpha(alpha, shift_bits)
        return cls(seed_value=seed_value, alpha_numerator=numerator, shift_bits=shift)

    def to_float(self, values: np.ndarray) -> np.ndarray:
        """Convert integer scores back to the [0, 1] probability scale."""
        return np.asarray(values, dtype=np.float64) / float(self.seed_value)


@dataclass(frozen=True)
class FixedPointDiffusionResult:
    """Output of :func:`fixed_point_diffusion` (integer and rescaled scores)."""

    accumulated_int: np.ndarray
    residual_int: np.ndarray
    accumulated: np.ndarray
    residual: np.ndarray
    format: FixedPointFormat


def fixed_point_diffusion(
    graph: CSRGraph,
    seed: int,
    length: int,
    fmt: FixedPointFormat,
) -> FixedPointDiffusionResult:
    """Integer-datapath graph diffusion, mirroring the FPGA PE.

    The propagation divides each node's integer score by its degree with
    integer division (truncation) and the decay multiplication is a multiply
    by the quantised alpha numerator and a right shift; both are the precision
    loss sources the paper quantifies.

    Parameters
    ----------
    graph:
        The (sub-)graph to diffuse on.
    seed:
        Local node id receiving the initial ``seed_value``.
    length:
        Number of propagation steps.
    fmt:
        The integer format (seed magnitude and quantised alpha).
    """
    num_nodes = graph.num_nodes
    if not 0 <= seed < num_nodes:
        raise ValueError(f"seed {seed} out of range for {num_nodes} nodes")
    if length < 0:
        raise ValueError("length must be >= 0")

    structure = structure_for(graph)
    degrees = structure.degrees
    one_minus_alpha_numerator = (1 << fmt.shift_bits) - fmt.alpha_numerator

    residual = np.zeros(num_nodes, dtype=np.int64)
    residual[seed] = fmt.seed_value
    accumulated = np.zeros(num_nodes, dtype=np.int64)
    alpha_power = np.int64(1 << fmt.shift_bits)  # alpha^step in q-bit fixed point
    for _ in range(length):
        # accumulated += (1 - alpha) * alpha^step * residual  (all fixed point)
        term = (residual * alpha_power) >> fmt.shift_bits
        accumulated += (term * one_minus_alpha_numerator) >> fmt.shift_bits
        # Propagate: each node pushes floor(score / degree) to every neighbour.
        per_neighbor = np.where(degrees > 0, residual // np.maximum(degrees, 1), 0)
        residual = np.zeros(num_nodes, dtype=np.int64)
        np.add.at(residual, structure.row_ids, per_neighbor[structure.indices])
        alpha_power = (alpha_power * fmt.alpha_numerator) >> fmt.shift_bits
    accumulated += (residual * alpha_power) >> fmt.shift_bits

    return FixedPointDiffusionResult(
        accumulated_int=accumulated,
        residual_int=residual,
        accumulated=fmt.to_float(accumulated),
        residual=fmt.to_float(residual),
        format=fmt,
    )
