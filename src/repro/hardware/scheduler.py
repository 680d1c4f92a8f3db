"""Scheduler model: task dispatch and score-table conflict arbitration.

Two responsibilities, mirroring the "Scheduler" block of Fig. 4:

1. **Task dispatch** — distribute the stage-two diffusion tasks over the ``P``
   processing elements.  The hardware uses a simple greedy policy (next task
   goes to the first idle PE), which :class:`Scheduler` implements.
2. **Conflict arbitration** — every diffuser writes to *all* local score
   tables (a node's score may live in another PE's table), so concurrent
   writes to the same table must be serialised.  The paper reports the
   resulting scheduling overhead to be below 20 % of the diffusion time at
   ``P = 2`` and below 40 % for larger ``P``.  :func:`conflict_stall_cycles`
   models the expected serialisation: with ``P`` active writers and ``P``
   banks, the probability a write collides with at least one other writer in
   the same cycle is ``(P - 1) / (2 P)`` (birthday-style pairing with the
   arbiter resolving half the collisions for free thanks to its two write
   ports), so each collision costs one extra cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.hardware.pe import DiffusionTask, ProcessingElement

__all__ = [
    "conflict_probability",
    "conflict_stall_cycles",
    "ScheduledTask",
    "ScheduleResult",
    "Scheduler",
]


def conflict_probability(parallelism: int) -> float:
    """Probability that a score-table write stalls, given ``P`` active PEs."""
    if parallelism <= 0:
        raise ValueError(f"parallelism must be > 0, got {parallelism}")
    if parallelism == 1:
        return 0.0
    return (parallelism - 1) / (2.0 * parallelism)


def conflict_stall_cycles(score_table_writes: int, parallelism: int) -> float:
    """Expected stall cycles for ``score_table_writes`` writes at parallelism ``P``."""
    if score_table_writes < 0:
        raise ValueError("score_table_writes must be >= 0")
    return score_table_writes * conflict_probability(parallelism)


@dataclass(frozen=True)
class ScheduledTask:
    """One task's placement and timing on the modelled accelerator."""

    task: DiffusionTask
    pe_index: int
    start_cycle: float
    busy_cycles: float
    stall_cycles: float


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling a task list onto ``P`` PEs."""

    parallelism: int
    scheduled: Tuple[ScheduledTask, ...]
    makespan_cycles: float
    diffusion_cycles: float
    scheduling_cycles: float


class Scheduler:
    """Schedules diffusion tasks onto ``P`` PEs and accounts for conflicts.

    Parameters
    ----------
    parallelism:
        Number of PEs ``P``.
    pe:
        The PE cycle model shared by all PEs (they are identical instances of
        the same HLS module).
    """

    def __init__(self, parallelism: int, pe: ProcessingElement | None = None) -> None:
        if parallelism <= 0:
            raise ValueError(f"parallelism must be > 0, got {parallelism}")
        self._parallelism = parallelism
        self._pe = pe if pe is not None else ProcessingElement()

    def run(self, tasks: Sequence[DiffusionTask]) -> ScheduleResult:
        """Schedule ``tasks`` and return the cycle-level outcome.

        Two parallelisation modes are combined, matching the hardware:

        * a **stage-one** task is alone in its stage, so its edge work is
          split *within* the diffusion across all ``P`` diffusers; every
          diffuser then writes to score-table partitions owned by its peers,
          so each write stalls with :func:`conflict_probability`;
        * **later-stage** tasks are dispatched whole to individual PEs
          (task-level parallelism — the linear decomposition makes them
          independent), and stall in proportion to how many PEs are busy
          alongside them.
        """
        pe_clock = [0.0] * self._parallelism
        scheduled: List[ScheduledTask] = []
        total_diffusion = 0.0
        total_stalls = 0.0

        for task in tasks:
            report = self._pe.execute(task)
            if task.stage_index == 0 or len(tasks) == 1:
                # Intra-diffusion parallelism: split the work across all PEs.
                busy = report.total_cycles / self._parallelism
                stalls = conflict_stall_cycles(
                    report.score_table_writes, self._parallelism
                ) / self._parallelism
                pe_index = min(
                    range(self._parallelism), key=lambda index: pe_clock[index]
                )
                start = max(pe_clock)
                scheduled.append(
                    ScheduledTask(
                        task=task,
                        pe_index=pe_index,
                        start_cycle=start,
                        busy_cycles=busy,
                        stall_cycles=stalls,
                    )
                )
                finish = start + busy + stalls
                pe_clock = [finish] * self._parallelism
                total_diffusion += busy
                total_stalls += stalls
                continue

            # Task-level parallelism for stage-two and later tasks.
            num_later_tasks = sum(1 for t in tasks if t.stage_index > 0)
            concurrently_active = min(self._parallelism, max(num_later_tasks, 1))
            stalls = conflict_stall_cycles(
                report.score_table_writes, concurrently_active
            )
            pe_index = min(
                range(self._parallelism), key=lambda index: pe_clock[index]
            )
            start = pe_clock[pe_index]
            scheduled.append(
                ScheduledTask(
                    task=task,
                    pe_index=pe_index,
                    start_cycle=start,
                    busy_cycles=report.total_cycles,
                    stall_cycles=stalls,
                )
            )
            pe_clock[pe_index] = start + report.total_cycles + stalls
            total_diffusion += report.total_cycles
            total_stalls += stalls

        makespan = max(pe_clock) if scheduled else 0.0
        return ScheduleResult(
            parallelism=self._parallelism,
            scheduled=tuple(scheduled),
            makespan_cycles=makespan,
            diffusion_cycles=total_diffusion,
            scheduling_cycles=total_stalls,
        )
