"""Planner / executor decomposition of a MeLoPPR query.

:class:`~repro.meloppr.solver.MeLoPPRSolver.solve` used to run the whole
multi-stage loop inline: extract an ego sub-graph, diffuse, fold the scores,
select the next-stage nodes, repeat.  The serving engine
(:mod:`repro.serving`) needs those pieces separated so that batching,
sub-graph caching and alternative execution backends (thread pools, the
modelled FPGA) can all share one algorithmic code path:

* :class:`MeLoPPRPlan` is the **planner** — a stateful object that, stage by
  stage, publishes the pending :class:`StageTask` list (pure descriptions of
  "extract ``G_l(center)``, diffuse, fold with this weight"), folds the
  resulting scores into the global table, applies the Eq. 6 residual
  correction and selects the next stage's tasks.  It performs no graph
  traversal itself.
* :func:`execute_stage_task` is the smallest **executor** unit: it runs a
  fresh BFS extraction and the diffusion for a single task.  It is the spec:
  :func:`execute_stage_per_ball` — the paper's CPU executor, one ball at a
  time — is built on it alone, and ``MeLoPPRSolver.solve`` runs that.
* :func:`execute_stage` is the **wave executor**: up to
  :data:`~repro.graph.bfs.BALLS_PER_PASS` of a stage's ego balls at a time —
  the paper's P processing elements, in software — stay one set of arrays
  from extraction to fold.  The stage hook returns them stacked with their
  diffusion operand (:class:`~repro.graph.bfs.EgoWave`: a fresh BFS's own
  adjacency reads, or a cache's kept balls restacked), the diffusion runs on
  it as given, and the plan folds the stacked vectors
  (:class:`StageWaveOutcome`).  Every serving path runs it, with or without
  the engine's cache's stage hook.
* :func:`execute_plan` is the one drive loop: it hands each stage's tasks to
  whichever of those the caller is driving with.

Which executor holds what.  The solver holds **one** ball at a time: its
measured peak (``track_memory=True``) is the paper's Table II claim.  The
engine holds a **wave** of balls, as the P-PE accelerator keeps P sub-graphs
resident at once.  ``modelled_bytes`` is the per-task BRAM model under either
— the largest single sub-graph (``8·(n+1) + 4·nnz + 16·n`` bytes: its CSR
and two score vectors) plus the score table — and an engine-driven plan with
``track_memory=True`` reports what it really held.

The numerical behaviour (floating-point operation order, selection, score
table updates) is identical to the former inline loop under every executor,
so planner-based execution returns bit-identical scores to the historical
solver.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (
    Callable,
    ContextManager,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.diffusion.diffusion import (
    DiffusionResult,
    graph_diffusion,
    seed_vector,
    stage_diffusion,
)
from repro.graph.bfs import (
    BALLS_PER_PASS,
    BFSResult,
    EgoWave,
    extract_ego_subgraph,
    extract_wave,
)
from repro.graph.csr import CSRGraph
from repro.graph.subgraph import Subgraph
from repro.memory.tracker import MemoryTracker
from repro.meloppr.aggregation import GlobalScoreTable, ScoreTableSnapshot
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.stage import StagePlan, split_length
from repro.ppr.base import PPRQuery, PPRResult
from repro.utils.timing import TimingBreakdown

__all__ = [
    "StageTask",
    "StageTaskOutcome",
    "StageWaveOutcome",
    "StageTaskRecord",
    "StageOneState",
    "MeLoPPRPlan",
    "StageExtractFn",
    "StageRunner",
    "realised_stage_lengths",
    "execute_stage_task",
    "execute_stage",
    "execute_stage_per_ball",
    "execute_plan",
]


@dataclass(frozen=True)
class StageTaskRecord:
    """Work record of one sub-graph diffusion inside a MeLoPPR query.

    These records are both the solver's own bookkeeping (memory modelling)
    and the input to the hardware co-simulation, which charges BFS time to
    the CPU and diffusion cycles to the FPGA per task.

    Attributes
    ----------
    stage_index:
        0 for the stage-one task, 1 for stage-two tasks, ...
    center_node:
        Global node id the sub-graph was extracted around.
    weight:
        Scale applied to this task's accumulated scores before aggregation.
    subgraph_nodes, subgraph_edges:
        Size of the extracted sub-graph ``G_l(center)``.
    bfs_edges_scanned:
        Adjacency entries the CPU touched during the BFS extraction.
    propagations:
        Adjacency entries the diffusion kernel touched (FPGA diffuser work).
    """

    stage_index: int
    center_node: int
    weight: float
    subgraph_nodes: int
    subgraph_edges: int
    bfs_edges_scanned: int
    propagations: int


@dataclass(frozen=True)
class StageTask:
    """A pure description of one sub-graph diffusion to execute.

    Attributes
    ----------
    stage_index:
        Which stage of the decomposition the task belongs to.
    center:
        Global node id to extract the ego sub-graph around.
    length:
        BFS depth and diffusion length ``l`` for this stage.
    weight:
        Scale applied to the accumulated scores when folding (``alpha`` powers
        times residual mass, per Eq. 8).
    alpha:
        Decay factor of the diffusion.
    """

    stage_index: int
    center: int
    length: int
    weight: float
    alpha: float


@dataclass(frozen=True)
class StageTaskOutcome:
    """What a per-ball executor produced for one :class:`StageTask`.

    Attributes
    ----------
    task:
        The executed task.
    subgraph:
        The extracted (or cache-served) ego sub-graph.
    bfs:
        BFS bookkeeping of the extraction.  For a cache hit this is the
        *original* extraction's record — the modelled BFS cost of the task is
        unchanged, only the wall-clock cost disappears.
    diffusion:
        The diffusion output (always computed fresh; only extraction caches).
    cache_hit:
        Whether the extraction was served from a sub-graph cache.
    """

    task: StageTask
    subgraph: Subgraph
    bfs: BFSResult
    diffusion: DiffusionResult
    cache_hit: bool = False


@dataclass(frozen=True)
class StageOneState:
    """The folded outcome of a query's first stage — a plan resume point.

    Everything :meth:`MeLoPPRPlan.from_stage_one_table` needs to rebuild a
    plan *as if* stage one had just completed: the score table after folding
    the stage-one diffusion and applying the Eq. 6 corrections, the selected
    next-stage work list, the stage-one task records and the modelled-memory
    bookkeeping.  Stage one is a pure function of
    ``(graph, seed, stage split, alpha, table capacity, selector)``, so a
    cached state replayed through a fresh plan yields **bit-identical**
    scores — the serving layer's cross-query result cache
    (:class:`repro.serving.result_cache.ScoreTableCache`) stores these.

    The dataclass is deeply immutable (tuples of primitives and frozen
    records), so one cached instance can resume any number of plans on any
    number of threads concurrently.
    """

    stage_lengths: Tuple[int, ...]
    alpha: float
    table: ScoreTableSnapshot
    next_work: Tuple[Tuple[int, float], ...]
    records: Tuple[StageTaskRecord, ...]
    cache_hits: int
    cache_misses: int
    peak_subgraph_bytes: int
    done: bool


@dataclass(frozen=True, eq=False)
class StageWaveOutcome:
    """What the wave executor produced for consecutive tasks of one stage, stacked.

    Ball ``i`` (``tasks[i]``) owns the stacked rows
    ``extraction.bounds[i]:extraction.bounds[i+1]`` of ``accumulated`` and
    ``residual``, and ``propagations[i]``.  The plan reads every other
    per-ball count of a :class:`StageTaskRecord` from ``extraction``.
    """

    tasks: Tuple[StageTask, ...]
    extraction: EgoWave
    accumulated: np.ndarray
    residual: np.ndarray
    propagations: np.ndarray

    @classmethod
    def of_ball(cls, outcome: StageTaskOutcome) -> "StageWaveOutcome":
        """One per-ball outcome as a one-ball ball-major wave: the rows of its
        CSR's inner nodes (the first, in visit order) are its entries, and
        the ball's own arrays are wrapped, not copied."""
        subgraph, bfs, diffusion = outcome.subgraph, outcome.bfs, outcome.diffusion
        graph = subgraph.graph
        inner = np.count_nonzero(bfs.levels < bfs.depth)
        wave = EgoWave(
            graph.name, bfs.depth, graph.indices[: graph.indptr[inner]], graph.degrees(),
            subgraph.global_ids, bfs.levels, np.array([0, graph.num_nodes]),
            np.array([bfs.edges_scanned]), np.array([outcome.cache_hit]),
        )
        return cls(
            (outcome.task,), wave, diffusion.accumulated, diffusion.residual,
            np.array([diffusion.propagations]),
        )


#: Stage extraction hook: ``(graph, centers, depth) -> EgoWave``, balls in centre order.
StageExtractFn = Callable[[CSRGraph, Sequence[int], int], EgoWave]


def _resplit(total_length: int, template: Tuple[int, ...]) -> Tuple[int, ...]:
    """Re-split ``total_length`` across the same number of stages as ``template``.

    Keeps the relative proportions of the template split as closely as
    possible; used when a query's ``length`` differs from the configured
    ``sum(stage_lengths)``.  Degenerate lengths collapse to fewer stages: a
    length-1 query becomes the single stage ``(1,)`` and a length-0 query the
    single zero-step stage ``(0,)`` (a 0-step diffusion returns the seed
    vector itself, so the query's answer is the seed node).
    """
    if total_length == 0:
        return (0,)
    num_stages = len(template)
    if total_length < num_stages:
        num_stages = max(1, total_length)
    return split_length(total_length, num_stages)


def realised_stage_lengths(config: MeLoPPRConfig, length: int) -> Tuple[int, ...]:
    """The stage split a query of diffusion ``length`` runs under ``config``.

    The configured split when it already sums to ``length``, else the same
    number of stages re-split to realise exactly ``length``.  The planner and
    the serving layer's cache key both call this, so they cannot disagree.
    """
    if config.total_length == length:
        return tuple(int(stage) for stage in config.stage_lengths)
    return _resplit(length, config.stage_lengths)


def _make_stage_plan(stage_lengths: Tuple[int, ...], alpha: float) -> StagePlan:
    """Build a :class:`StagePlan`, tolerating the degenerate ``(0,)`` split."""
    if stage_lengths == (0,):
        # StagePlan.create rejects zero-length stages (they are meaningless
        # mid-decomposition), but the single zero-step stage of a length-0
        # query is well-defined: weight 1, no residual hand-off.
        return StagePlan(stage_lengths=(0,), alpha=float(alpha), weights=(1.0,))
    return StagePlan.create(stage_lengths, alpha)


class MeLoPPRPlan:
    """The stateful planner of one MeLoPPR query.

    The plan walks the stage decomposition: it publishes the pending
    :class:`StageTask` list for the current stage (:attr:`pending_tasks`),
    the executor runs those tasks however it likes (serially, through a
    sub-graph cache, on modelled hardware) and hands the outcomes back —
    stacked waves (:class:`StageWaveOutcome`) or per-ball outcomes
    (:class:`StageTaskOutcome`) — via :meth:`complete_stage`, at which
    point the plan folds scores, applies the residual correction and selects
    the next stage's work.  When :attr:`done`, :meth:`finish` assembles the
    :class:`~repro.ppr.base.PPRResult`.

    Outcomes must be returned in task order — aggregation order affects the
    bounded score table, and keeping it deterministic is what makes engine
    results reproducible across backends.

    Parameters
    ----------
    graph, config, query:
        What to solve and how.
    track_memory:
        Overrides ``config.track_memory`` when not ``None``.  The engine
        passes ``False`` under concurrent backends: ``tracemalloc`` is
        process-global, so two plans measuring at once would corrupt each
        other's peaks; with tracking off, ``peak_memory_bytes`` falls back
        to the (deterministic) modelled working set.

    Notes
    -----
    Memory tracking starts lazily at the first :meth:`complete_stage` call
    and stops in :meth:`close` (called automatically on the last stage, by
    :func:`execute_plan` on error, and as a ``__del__`` backstop).  Building
    a plan and inspecting :attr:`pending_tasks` is therefore free: it never
    touches the process-global trace or its serialisation lock.
    """

    def __init__(
        self,
        graph: CSRGraph,
        config: MeLoPPRConfig,
        query: PPRQuery,
        track_memory: Optional[bool] = None,
    ) -> None:
        self._graph = graph
        self._config = config
        self._query = query
        self._stage_plan = _make_stage_plan(
            realised_stage_lengths(config, query.length), query.alpha
        )

        self.timing = TimingBreakdown()
        self._track_memory = (
            config.track_memory if track_memory is None else bool(track_memory)
        )
        self._tracker = MemoryTracker(enabled=self._track_memory)
        self._tracker_open = False
        self._tracker_owner = 0

        self._table = GlobalScoreTable(capacity=config.score_table_capacity(query.k))
        self._records: List[StageTaskRecord] = []
        self._peak_subgraph_bytes = 0
        self._cache_hits = 0
        self._cache_misses = 0

        self._stage_index = 0
        self._stages_completed = 0
        self._resumed = False
        self._work: List[Tuple[int, float]] = [(query.seed, 1.0)]
        self._done = False

    # ------------------------------------------------------------------
    @classmethod
    def from_stage_one_table(
        cls,
        graph: CSRGraph,
        config: MeLoPPRConfig,
        query: PPRQuery,
        state: StageOneState,
        track_memory: Optional[bool] = None,
    ) -> "MeLoPPRPlan":
        """Build a plan resuming *after* stage one from a cached state.

        The returned plan's :attr:`pending_tasks` are the stage-two tasks the
        original plan would have published (or the plan is already
        :attr:`done` for single-stage decompositions), and driving it to
        completion produces scores bit-identical to executing the query from
        scratch — stage one's fold, correction and selection are replayed
        from ``state`` instead of recomputed.

        Raises ``ValueError`` when ``state`` does not describe this exact
        ``(query, config, graph-independent plan shape)``: the realised stage
        split, alpha and score-table capacity must all match, because a
        table folded under different parameters is a different computation.
        Callers caching states key them accordingly (see
        :func:`repro.serving.result_cache.stage_one_cache_key`).  Neither the
        key nor this constructor can tell two topologies apart: a cache of
        states is bound to the graph it serves
        (:meth:`~repro.serving.cache._LRUCache.claim` /
        :meth:`~repro.serving.cache._LRUCache.bind`), and this constructor
        trusts the caller on that axis.
        """
        plan = cls(graph, config, query, track_memory=track_memory)
        realised = tuple(plan._stage_plan.stage_lengths)
        if state.stage_lengths != realised:
            raise ValueError(
                f"stage-one state was folded under stage split "
                f"{state.stage_lengths}, but this query realises {realised}"
            )
        if state.alpha != query.alpha:
            raise ValueError(
                f"stage-one state was folded with alpha={state.alpha}, "
                f"query has alpha={query.alpha}"
            )
        capacity = config.score_table_capacity(query.k)
        if state.table.capacity != capacity:
            raise ValueError(
                f"stage-one state's table capacity {state.table.capacity} "
                f"does not match this query's {capacity}"
            )
        plan._table = GlobalScoreTable.from_snapshot(state.table)
        plan._records = list(state.records)
        plan._cache_hits = state.cache_hits
        plan._cache_misses = state.cache_misses
        plan._peak_subgraph_bytes = state.peak_subgraph_bytes
        plan._stage_index = 1
        plan._stages_completed = 1
        plan._resumed = True
        plan._work = [(int(node), float(weight)) for node, weight in state.next_work]
        if state.done or not plan._work:
            plan._done = True
            plan._work = []
        return plan

    # ------------------------------------------------------------------
    @property
    def query(self) -> PPRQuery:
        """The query being planned."""
        return self._query

    @property
    def graph(self) -> CSRGraph:
        """The host graph tasks are extracted from."""
        return self._graph

    @property
    def config(self) -> MeLoPPRConfig:
        """The solver configuration the plan was built under."""
        return self._config

    @property
    def done(self) -> bool:
        """Whether every stage has completed."""
        return self._done

    @property
    def pending_tasks(self) -> Tuple[StageTask, ...]:
        """The tasks of the current stage (empty once :attr:`done`)."""
        if self._done:
            return ()
        length = self._stage_plan.stage_lengths[self._stage_index]
        return tuple(
            StageTask(
                stage_index=self._stage_index,
                center=center,
                length=length,
                weight=weight,
                alpha=self._query.alpha,
            )
            for center, weight in self._work
        )

    # ------------------------------------------------------------------
    def complete_stage(
        self, outcomes: Iterable[Union[StageWaveOutcome, StageTaskOutcome]]
    ) -> None:
        """Fold a finished stage's outcomes and plan the next stage.

        ``outcomes`` — stacked waves, per-ball outcomes (each folded as a
        one-ball wave) or a mix — must cover the :attr:`pending_tasks`
        published for the current stage one-to-one, in order.  It may be a
        lazy iterable: each outcome is folded as soon as it is produced and
        then dropped, so the working set is whatever the executor behind the
        iterable holds — a single sub-graph under
        :func:`execute_stage_per_ball` (the paper's memory claim, measured by
        the solver), one wave of them under :func:`execute_stage`.  A wave is
        folded by one ``add_many`` with its ball bounds, which sorts the wave
        and looks up the table once and folds the balls in order (a per-ball
        outcome is a one-ball wave, so there is one fold path); the next
        stage's candidates are summed by one accumulate per stage, in arrival
        order, and reach the selector in ascending node order.
        """
        if self._done:
            raise RuntimeError("plan is already complete")
        # Start the memory trace on first execution (not on inspection of
        # pending_tasks): with a lazy ``outcomes`` iterable the extraction
        # and diffusion allocations happen inside the fold loop below, so
        # they are covered.  MemoryTracker serialises enabled sections on a
        # process-global lock, so the trace must only span actual execution,
        # and a plan must be executed and closed on one thread (execute_plan
        # guarantees this).
        if not self._tracker_open:
            self._tracker.__enter__()
            self._tracker_open = True
            self._tracker_owner = threading.get_ident()
        expected = len(self._work)
        config = self._config
        stage_length = self._stage_plan.stage_lengths[self._stage_index]
        is_last_stage = self._stage_index + 1 == self._stage_plan.num_stages
        # Residual mass handed to the next stage, per wave: global ids, mass.
        carried_ids: List[np.ndarray] = []
        carried_mass: List[np.ndarray] = []

        folded = 0
        for outcome in outcomes:
            if not isinstance(outcome, StageWaveOutcome):
                outcome = StageWaveOutcome.of_ball(outcome)
            tasks, wave = outcome.tasks, outcome.extraction
            ids, bounds = wave.nodes, wave.bounds
            folded += len(tasks)
            sizes = bounds[1:] - bounds[:-1]
            with self.timing.measure("aggregation"):
                # Each entry is scaled by its ball's weight (one ball: a scalar).
                weights = (
                    tasks[0].weight
                    if len(tasks) == 1
                    else np.array([task.weight for task in tasks]).repeat(sizes)
                )
                self._table.add_many(ids, weights * outcome.accumulated, bounds)
            if not is_last_stage:
                with self.timing.measure("selection"):
                    (carried,) = (outcome.residual > config.residual_tolerance).nonzero()
                    carried_ids.append(ids[carried])
                    carried_mass.append((weights * outcome.residual)[carried])

            entries = wave.entries()
            for task, nodes, nnz, scanned, work in zip(
                tasks, sizes.tolist(), entries.tolist(), wave.edges_scanned.tolist(),
                outcome.propagations.tolist(),
            ):
                self._records.append(
                    StageTaskRecord(
                        task.stage_index, task.center, task.weight, nodes, nnz // 2, scanned, work
                    )
                )
            hits = int(np.count_nonzero(wave.hits))
            self._cache_hits += hits
            self._cache_misses += len(tasks) - hits
            # A ball's bytes: its CSR (int64 indptr, int32 indices) and its
            # two float64 score vectors.
            nbytes = int(np.maximum.reduce(8 * (sizes + 1) + 4 * entries + 16 * sizes))
            self._peak_subgraph_bytes = max(self._peak_subgraph_bytes, nbytes)

        if folded != expected:
            raise ValueError(
                f"stage {self._stage_index} expected {expected} outcomes, "
                f"got {folded}"
            )
        self._stages_completed += 1

        if is_last_stage:
            self._finish_planning()
            return

        # Select the next-stage nodes from the merged candidate set.
        with self.timing.measure("selection"):
            candidates, arrival = np.unique(np.concatenate(carried_ids), return_inverse=True)
            masses = np.zeros(candidates.size, dtype=np.float64)
            np.add.at(masses, arrival, np.concatenate(carried_mass))
            selected = config.selector.select(candidates, masses)
            selected_mass = masses[candidates.searchsorted(selected)]

        # Build next work list; apply the Eq. 6 correction only for the
        # nodes whose residual is re-diffused (unselected nodes keep
        # their residual contribution, preserving probability mass).
        stage_alpha = self._query.alpha**stage_length
        next_work: List[Tuple[int, float]] = []
        with self.timing.measure("aggregation"):
            for node, residual_mass in zip(selected.tolist(), selected_mass.tolist()):
                correction = stage_alpha * residual_mass
                self._table.add(node, -correction)
                next_work.append((node, correction))
        self._work = next_work
        self._stage_index += 1
        if not self._work:
            self._finish_planning()

    def stage_one_state(self) -> StageOneState:
        """Snapshot the plan's state right after its first stage completed.

        Valid exactly when one stage has been folded and the plan started
        from scratch (a resumed plan refuses — its snapshot would be a copy
        of the state it was built from).  The engine's result cache calls
        this immediately after the first :meth:`complete_stage` returns,
        before any stage-two outcome mutates the table.
        """
        if self._resumed:
            raise RuntimeError(
                "plan was resumed from a cached stage-one state; snapshot "
                "the original execution instead"
            )
        if self._stages_completed != 1:
            raise RuntimeError(
                f"stage-one state is only defined right after the first "
                f"stage completes ({self._stages_completed} stages done)"
            )
        return StageOneState(
            stage_lengths=tuple(self._stage_plan.stage_lengths),
            alpha=float(self._query.alpha),
            table=self._table.snapshot(),
            next_work=tuple(
                (int(node), float(weight)) for node, weight in self._work
            ),
            records=tuple(self._records),
            cache_hits=self._cache_hits,
            cache_misses=self._cache_misses,
            peak_subgraph_bytes=self._peak_subgraph_bytes,
            done=self._done,
        )

    def _finish_planning(self) -> None:
        """Mark the plan complete and stop the memory tracker."""
        self._done = True
        self._work = []
        self.close()

    def close(self) -> None:
        """Release the memory tracker (idempotent; called on abandon too).

        Must run on the thread that executed :meth:`complete_stage` — the
        tracker's serialisation lock is re-entrant and thread-owned.  A
        cross-thread close is a no-op rather than a corruption.
        """
        if self._tracker_open:
            if threading.get_ident() != self._tracker_owner:
                return
            self._tracker.__exit__(None, None, None)
            self._tracker_open = False

    def __del__(self) -> None:  # backstop for abandoned plans
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def finish(self) -> PPRResult:
        """Assemble the final :class:`~repro.ppr.base.PPRResult`."""
        if not self._done:
            raise RuntimeError("plan still has pending stages")
        table = self._table
        scores = table.to_sparse_vector()

        modelled_bytes = self._peak_subgraph_bytes + table.nbytes()
        peak = self._tracker.peak_bytes if self._track_memory else modelled_bytes
        records = self._records
        num_next_stage = sum(1 for record in records if record.stage_index > 0)
        return PPRResult(
            query=self._query,
            scores=scores,
            timing=self.timing,
            peak_memory_bytes=peak,
            metadata={
                "stage_lengths": tuple(self._stage_plan.stage_lengths),
                "tasks": records,
                "num_tasks": len(records),
                "num_next_stage_tasks": num_next_stage,
                "max_subgraph_nodes": max(record.subgraph_nodes for record in records),
                "max_subgraph_edges": max(record.subgraph_edges for record in records),
                "modelled_bytes": modelled_bytes,
                "score_table_entries": table.num_entries,
                "score_table_evictions": table.total_evictions,
                "selector": repr(self._config.selector),
                "cache_hits": self._cache_hits,
                "cache_misses": self._cache_misses,
            },
        )


# ----------------------------------------------------------------------
def execute_stage_task(
    graph: CSRGraph,
    task: StageTask,
    timing: Optional[TimingBreakdown] = None,
) -> StageTaskOutcome:
    """Run one stage task: extract its sub-graph fresh and diffuse.

    The spec every other executor is held to, bit for bit.

    Parameters
    ----------
    graph:
        Host graph.
    task:
        The task description.
    timing:
        Breakdown receiving the ``bfs`` and ``diffusion`` wall-clock buckets
        (typically the owning plan's :attr:`MeLoPPRPlan.timing`).
    """
    if timing is None:
        timing = TimingBreakdown()
    with timing.measure("bfs"):
        subgraph, bfs = extract_ego_subgraph(graph, task.center, task.length)
    with timing.measure("diffusion"):
        initial = seed_vector(subgraph.num_nodes, subgraph.to_local(task.center))
        diffusion = graph_diffusion(subgraph.graph, initial, task.length, task.alpha)
    return StageTaskOutcome(task=task, subgraph=subgraph, bfs=bfs, diffusion=diffusion)


def execute_stage(
    plan: MeLoPPRPlan,
    tasks: Sequence[StageTask],
    extract_stage: StageExtractFn = extract_wave,
) -> Iterator[StageWaveOutcome]:
    """Run one stage of ``plan`` in waves; one stacked outcome per wave, lazily.

    A wave is up to :data:`~repro.graph.bfs.BALLS_PER_PASS` consecutive
    tasks.  ``extract_stage(graph, centers, length)`` — a cache's stage hook
    or :func:`~repro.graph.bfs.extract_wave` — returns the wave's balls
    stacked, and :func:`~repro.diffusion.diffusion.stage_diffusion` diffuses
    the wave's operand as it is, timed into the plan's ``bfs`` and
    ``diffusion`` buckets.  No per-ball object is built on the way, and
    every ball's slice of the outcome equals :func:`execute_stage_task`'s
    outcome for its task, bit for bit.  A wave's balls are resident
    together; a wave is folded before the next is extracted.
    """
    graph, timing = plan.graph, plan.timing
    for begin in range(0, len(tasks), BALLS_PER_PASS):
        wave = tasks[begin : begin + BALLS_PER_PASS]
        length, alpha = wave[0].length, wave[0].alpha  # one per stage
        with timing.measure("bfs"):
            extraction = extract_stage(graph, [task.center for task in wave], length)
        with timing.measure("diffusion"):
            bounds = extraction.bounds
            # Each ball's centre is its first stacked node.
            scores = stage_diffusion(
                extraction.targets, extraction.sources, extraction.degrees,
                bounds, bounds[:-1], length, alpha,
            )
        yield StageWaveOutcome(tuple(wave), extraction, *scores)


def execute_stage_per_ball(
    plan: MeLoPPRPlan, tasks: Sequence[StageTask]
) -> Iterator[StageTaskOutcome]:
    """Run one stage of ``plan`` one ball at a time: the paper's CPU executor.

    Each sub-graph is extracted, diffused, folded and dropped before the next
    is touched.  Built on :func:`execute_stage_task` alone — no code shared
    with :func:`execute_stage`, so ``MeLoPPRSolver.solve`` can be the oracle
    the wave executor is checked against.
    """
    return (execute_stage_task(plan.graph, task, timing=plan.timing) for task in tasks)


#: What runs one stage: ``(plan, tasks) -> outcomes``, in task order.
StageRunner = Callable[
    [MeLoPPRPlan, Sequence[StageTask]], Iterable[Union[StageWaveOutcome, StageTaskOutcome]]
]


def execute_plan(
    plan: MeLoPPRPlan,
    run_stage: StageRunner = execute_stage,
    after_stage: Optional[Callable[[MeLoPPRPlan], None]] = None,
    span: Optional[Callable[..., ContextManager]] = None,
) -> PPRResult:
    """Drive a plan to completion — the one drive loop in the library.

    ``run_stage`` executes a stage's tasks, and who is driving picks it: the
    wave executor :func:`execute_stage` by default (the serving engine binds
    its cache's stage hook with ``functools.partial``), or
    :func:`execute_stage_per_ball` for ``MeLoPPRSolver.solve``.  ``after_stage``
    (optional) is invoked with the plan after each completed stage — the
    engine hooks its cross-query result cache there (snapshotting
    :meth:`MeLoPPRPlan.stage_one_state` after the first stage).  ``span``
    (optional) is a tracing hook — a callable returning a context manager,
    opened around each stage as ``span("engine.stage", stage=...,
    num_tasks=...)`` (see :mod:`repro.serving.tracing`); the untraced path
    pays a single ``is None`` check per stage.
    """
    try:
        while not plan.done:
            tasks = plan.pending_tasks
            if span is None:
                plan.complete_stage(run_stage(plan, tasks))
            else:
                with span(
                    "engine.stage",
                    stage=tasks[0].stage_index,
                    num_tasks=len(tasks),
                ):
                    plan.complete_stage(run_stage(plan, tasks))
            if after_stage is not None:
                after_stage(plan)
    finally:
        plan.close()
    return plan.finish()
