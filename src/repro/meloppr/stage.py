"""Stage decomposition (Sec. IV-B, Eq. 3–6).

The paper rewrites a length-``L`` graph diffusion as two consecutive shorter
diffusions.  With ``L = l1 + l2``:

.. math::

    GD^{(L)}(S_0) = GD^{(l_1)}(S_0)
                    + \\alpha^{l_1} \\, GD^{(l_2)}(W^{l_1} S_0)
                    - \\alpha^{l_1} \\, W^{l_1} S_0

``W^{l_1} S_0`` is exactly the *residual* vector returned by the stage-one
diffusion, so the identity chains naturally: run stage one, keep its
accumulated scores, subtract ``alpha^l1`` times its residual, and add
``alpha^l1`` times the accumulated scores of a stage-two diffusion seeded with
that residual.

This module holds the bookkeeping the planner applies the identity with:
the balanced split of ``L`` into stages and the :class:`StagePlan` weighting
each stage's contribution.  For more than two stages the recurrence is
applied repeatedly: stage ``i`` contributes with weight
``alpha ** (l_1 + ... + l_{i-1})``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = ["StagePlan", "stage_weights", "split_length"]


def split_length(total_length: int, num_stages: int) -> Tuple[int, ...]:
    """Split ``total_length`` into ``num_stages`` near-equal stage lengths.

    The paper uses the balanced split ``l1 = l2 = L / 2``; this helper
    generalises it (earlier stages receive the remainder).

    >>> split_length(6, 2)
    (3, 3)
    >>> split_length(7, 2)
    (4, 3)
    >>> split_length(6, 3)
    (2, 2, 2)
    """
    if total_length <= 0:
        raise ValueError(f"total_length must be > 0, got {total_length}")
    if num_stages <= 0:
        raise ValueError(f"num_stages must be > 0, got {num_stages}")
    if num_stages > total_length:
        raise ValueError(
            f"cannot split a length-{total_length} diffusion into {num_stages} stages"
        )
    base = total_length // num_stages
    remainder = total_length % num_stages
    return tuple(base + (1 if i < remainder else 0) for i in range(num_stages))


def stage_weights(stage_lengths: Sequence[int], alpha: float) -> List[float]:
    """Weight ``alpha ** (sum of previous stage lengths)`` for each stage.

    Stage one always has weight 1; stage two ``alpha^l1``; stage three
    ``alpha^(l1+l2)`` and so on.  These are the coefficients in front of each
    ``GD`` term when Eq. 6 is applied recursively.
    """
    if not stage_lengths:
        raise ValueError("stage_lengths must be non-empty")
    weights: List[float] = []
    consumed = 0
    for length in stage_lengths:
        if length <= 0:
            raise ValueError(f"stage lengths must be > 0, got {stage_lengths}")
        weights.append(alpha**consumed)
        consumed += int(length)
    return weights


@dataclass(frozen=True)
class StagePlan:
    """The per-stage bookkeeping of a multi-stage MeLoPPR run.

    Attributes
    ----------
    stage_lengths:
        The decomposition ``(l1, l2, ...)``.
    alpha:
        Decay factor.
    weights:
        ``weights[i]`` multiplies stage ``i``'s accumulated scores (and the
        residual correction it hands to stage ``i + 1``).
    """

    stage_lengths: Tuple[int, ...]
    alpha: float
    weights: Tuple[float, ...]

    @classmethod
    def create(cls, stage_lengths: Sequence[int], alpha: float) -> "StagePlan":
        """Build a plan from stage lengths and the decay factor."""
        lengths = tuple(int(length) for length in stage_lengths)
        return cls(
            stage_lengths=lengths,
            alpha=float(alpha),
            weights=tuple(stage_weights(lengths, alpha)),
        )

    @property
    def total_length(self) -> int:
        """The reconstructed full diffusion length ``L``."""
        return int(sum(self.stage_lengths))

    @property
    def num_stages(self) -> int:
        """Number of stages."""
        return len(self.stage_lengths)

    def residual_correction(self, stage_index: int) -> float:
        """Coefficient of the ``- alpha^{l_1+..+l_i} W^{l_1+..+l_i} S_0`` term.

        When stage ``stage_index`` hands its residual to the next stage, the
        accumulated total must subtract the residual weighted by
        ``weights[stage_index] * alpha ** stage_lengths[stage_index]`` —
        the ``- alpha^{l1} W^{l1} S0`` term of Eq. 6 generalised to later
        stages.
        """
        if not 0 <= stage_index < self.num_stages:
            raise IndexError(f"stage_index {stage_index} out of range")
        return self.weights[stage_index] * (self.alpha ** self.stage_lengths[stage_index])
