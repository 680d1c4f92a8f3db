"""Configuration of the MeLoPPR solver.

The paper fixes ``k = 200``, ``L = 6`` and ``l1 = l2 = 3`` for all
experiments (Sec. VI) and exposes two tuning knobs:

* the **next-stage node budget** (how many / what fraction of the stage-one
  residual nodes are expanded in stage two) — the latency/precision dial of
  Fig. 6 and Fig. 7, and
* the **global score table size factor** ``c`` (Sec. V-B) — the table keeps
  only the top ``c * k`` scores, trading a little precision for on-chip
  memory and CPU↔FPGA transfer volume.

:class:`MeLoPPRConfig` captures both plus the stage split itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.meloppr.selection import NextStageSelector, RatioSelector

__all__ = ["MeLoPPRConfig"]


@dataclass(frozen=True)
class MeLoPPRConfig:
    """Parameters of a MeLoPPR run.

    Attributes
    ----------
    stage_lengths:
        The decomposition ``L = l1 + l2 (+ l3 ...)``.  The paper uses
        ``(3, 3)``; more than two stages is supported (Sec. IV-B notes the
        decomposition "can be easily extended to more terms").
    selector:
        Strategy choosing which next-stage nodes are expanded at each stage
        boundary.  Defaults to the paper's ratio-based selection.
    score_table_factor:
        The ``c`` of Sec. V-B: the global score table keeps the top ``c * k``
        nodes.  ``None`` keeps an unbounded table (pure-software mode).
    track_memory:
        Whether the CPU solver measures its peak working set with
        ``tracemalloc``.
    residual_tolerance:
        Residual entries with absolute value at or below this threshold are
        never selected for the next stage (they cannot improve precision
        measurably but would cost a BFS each).
    """

    stage_lengths: Tuple[int, ...] = (3, 3)
    selector: NextStageSelector = field(default_factory=lambda: RatioSelector(0.02))
    score_table_factor: Optional[int] = 10
    track_memory: bool = True
    residual_tolerance: float = 1e-12

    def __post_init__(self) -> None:
        if not self.stage_lengths:
            raise ValueError("stage_lengths must contain at least one stage")
        if any(length <= 0 for length in self.stage_lengths):
            raise ValueError(
                f"every stage length must be > 0, got {self.stage_lengths}"
            )
        if self.score_table_factor is not None and self.score_table_factor <= 0:
            raise ValueError(
                f"score_table_factor must be > 0 or None, got {self.score_table_factor}"
            )
        if self.residual_tolerance < 0:
            raise ValueError("residual_tolerance must be >= 0")

    @property
    def total_length(self) -> int:
        """The full diffusion length ``L`` realised by all stages together."""
        return int(sum(self.stage_lengths))

    def score_table_capacity(self, k: int) -> Optional[int]:
        """Global score table capacity ``c * k`` for a query asking for ``k``.

        This is the single place the Sec. V-B bound is computed; the solver,
        the planner and the serving engine all call it so the capacity cannot
        drift between them.  ``None`` means an unbounded table.
        """
        if k <= 0:
            raise ValueError(f"k must be > 0, got {k}")
        if self.score_table_factor is None:
            return None
        return int(self.score_table_factor) * int(k)

    @classmethod
    def paper_default(cls, selection_ratio: float = 0.02) -> "MeLoPPRConfig":
        """The configuration used throughout the paper's experiments.

        ``k = 200`` and ``alpha`` live on the query; this sets
        ``l1 = l2 = 3``, ``c = 10`` and a ratio-based next-stage selector.
        """
        return cls(
            stage_lengths=(3, 3),
            selector=RatioSelector(selection_ratio),
            score_table_factor=10,
        )
