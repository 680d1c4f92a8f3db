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
* :func:`execute_stage_task` is the smallest **executor** unit: it runs the
  BFS extraction and the diffusion for a single task.  The extraction step is
  pluggable (``extract=``); the process workers run their tasks through it.
* :func:`execute_stage` is the **wave executor**: a stage's ego balls come
  out of one stage extraction and diffuse as one block-diagonal product, up
  to :data:`~repro.graph.bfs.BALLS_PER_PASS` at a time — the paper's P
  processing elements, in software.  The serving engine drives its plans with
  it, its :class:`~repro.serving.cache.SubgraphCache` wired in as the stage
  extraction hook.  :func:`execute_stage_per_ball` is the paper's CPU
  executor, one ball at a time, and what ``MeLoPPRSolver.solve`` runs.
* :func:`execute_plan` is the one drive loop: it hands each stage's tasks to
  whichever of those the caller is driving with.

Which executor holds what.  The solver holds **one** ball at a time: its
measured peak (``track_memory=True``) is the paper's Table II claim.  The
engine holds a **wave** of balls, as the P-PE accelerator keeps P sub-graphs
resident at once.  ``modelled_bytes`` is the per-task BRAM model under either
— the largest single sub-graph plus the score table — and an engine-driven
plan with ``track_memory=True`` reports what it really held.

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
    Dict,
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
from repro.diffusion.kernels import DiffusionKernel
from repro.graph.bfs import (
    BALLS_PER_PASS,
    BFSResult,
    extract_ego_subgraph,
    extract_ego_subgraphs,
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
    "StageTaskRecord",
    "StageOneState",
    "MeLoPPRPlan",
    "ExtractFn",
    "StageExtractFn",
    "StageRunner",
    "default_extract",
    "each_ball",
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
    """What an executor produced for one :class:`StageTask`.

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


#: Extraction hook signature: ``(graph, center, depth) -> (subgraph, bfs, hit)``.
ExtractFn = Callable[[CSRGraph, int, int], Tuple[Subgraph, BFSResult, bool]]


#: Its stage form: ``(graph, centers, depth) -> [(subgraph, bfs, hit), ...]``, in centre order.
StageExtractFn = Callable[[CSRGraph, Sequence[int], int], List[Tuple[Subgraph, BFSResult, bool]]]


def default_extract(graph: CSRGraph, center: int, depth: int) -> Tuple[Subgraph, BFSResult, bool]:
    """The cache-less extraction hook: always extract fresh."""
    subgraph, bfs = extract_ego_subgraph(graph, center, depth)
    return subgraph, bfs, False


def each_ball(extract: ExtractFn) -> StageExtractFn:
    """The stage form of a per-ball hook: one call per centre, in centre order."""
    return lambda graph, centers, depth: [extract(graph, c, depth) for c in centers]


def _extract_stage_fresh(graph: CSRGraph, centers: Sequence[int], depth: int):
    """The cache-less stage hook: one fresh stage extraction."""
    return [(sub, bfs, False) for sub, bfs in extract_ego_subgraphs(graph, centers, depth)]


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
    sub-graph cache, on modelled hardware) and hands the
    :class:`StageTaskOutcome` list back via :meth:`complete_stage`, at which
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
        :func:`repro.serving.result_cache.stage_one_cache_key`, which also
        keys on the graph's fingerprint — this constructor cannot tell two
        topologies apart and trusts the caller on that axis).
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
    def resumed(self) -> bool:
        """Whether this plan was restored from a cached stage-one state."""
        return self._resumed

    @property
    def stage_plan(self) -> StagePlan:
        """The realised stage decomposition."""
        return self._stage_plan

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
    def complete_stage(self, outcomes: Iterable[StageTaskOutcome]) -> None:
        """Fold a finished stage's outcomes and plan the next stage.

        ``outcomes`` must correspond one-to-one, in order, to the
        :attr:`pending_tasks` published for the current stage.  It may be a
        lazy iterable: each outcome is folded as soon as it is produced and
        then dropped, so the working set is whatever the executor behind the
        iterable holds — a single sub-graph under
        :func:`execute_stage_per_ball` (the paper's memory claim, measured by
        the solver), one wave of them under :func:`execute_stage`.
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
        # Residual mass handed to the next stage, keyed by global node.
        next_candidates: Dict[int, float] = {}

        folded = 0
        for outcome in outcomes:
            folded += 1
            task, subgraph, diffusion = outcome.task, outcome.subgraph, outcome.diffusion
            with self.timing.measure("aggregation"):
                self._table.add_many(
                    subgraph.global_ids, task.weight * diffusion.accumulated
                )
            if not is_last_stage:
                with self.timing.measure("selection"):
                    (locals_with_mass,) = np.nonzero(
                        diffusion.residual > config.residual_tolerance
                    )
                    carried_nodes = subgraph.global_ids[locals_with_mass]
                    carried_values = task.weight * diffusion.residual[locals_with_mass]
                    for node, value in zip(carried_nodes, carried_values):
                        node = int(node)
                        next_candidates[node] = (
                            next_candidates.get(node, 0.0) + float(value)
                        )

            self._records.append(
                StageTaskRecord(
                    stage_index=task.stage_index,
                    center_node=task.center,
                    weight=task.weight,
                    subgraph_nodes=subgraph.num_nodes,
                    subgraph_edges=subgraph.num_edges,
                    bfs_edges_scanned=outcome.bfs.edges_scanned,
                    propagations=diffusion.propagations,
                )
            )
            if outcome.cache_hit:
                self._cache_hits += 1
            else:
                self._cache_misses += 1
            self._peak_subgraph_bytes = max(
                self._peak_subgraph_bytes,
                subgraph.graph.nbytes()
                + diffusion.accumulated.nbytes
                + diffusion.residual.nbytes,
            )

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
            candidate_nodes = np.fromiter(
                next_candidates.keys(), dtype=np.int64, count=len(next_candidates)
            )
            candidate_values = np.fromiter(
                next_candidates.values(),
                dtype=np.float64,
                count=len(next_candidates),
            )
            selected = config.selector.select(candidate_nodes, candidate_values)

        # Build next work list; apply the Eq. 6 correction only for the
        # nodes whose residual is re-diffused (unselected nodes keep
        # their residual contribution, preserving probability mass).
        stage_alpha = self._query.alpha**stage_length
        next_work: List[Tuple[int, float]] = []
        with self.timing.measure("aggregation"):
            for node in selected:
                residual_mass = next_candidates[int(node)]
                correction = stage_alpha * residual_mass
                self._table.add(int(node), -correction)
                next_work.append((int(node), correction))
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
        scores.prune(0.0)

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
    extract: Optional[ExtractFn] = None,
    timing: Optional[TimingBreakdown] = None,
    kernel: Union[str, DiffusionKernel, None] = None,
) -> StageTaskOutcome:
    """Run one stage task: extract (or fetch) the sub-graph and diffuse.

    Parameters
    ----------
    graph:
        Host graph.
    task:
        The task description.
    extract:
        Extraction hook; defaults to a fresh BFS extraction.  The serving
        engine passes its cache's hook here.
    timing:
        Breakdown receiving the ``bfs`` and ``diffusion`` wall-clock buckets
        (typically the owning plan's :attr:`MeLoPPRPlan.timing`).
    kernel:
        Diffusion kernel selection (see :mod:`repro.diffusion.kernels`);
        scores are bit-identical for every kernel.  The diffusion reuses the
        operator memoised on the extracted sub-graph, so a cached extraction
        never rebuilds operator structure per task.
    """
    if extract is None:
        extract = default_extract
    if timing is None:
        timing = TimingBreakdown()
    with timing.measure("bfs"):
        subgraph, bfs, cache_hit = extract(graph, task.center, task.length)
    with timing.measure("diffusion"):
        initial = seed_vector(subgraph.num_nodes, subgraph.to_local(task.center))
        diffusion = graph_diffusion(
            subgraph.graph, initial, task.length, task.alpha, kernel=kernel
        )
    return StageTaskOutcome(
        task=task,
        subgraph=subgraph,
        bfs=bfs,
        diffusion=diffusion,
        cache_hit=cache_hit,
    )


def execute_stage(
    plan: MeLoPPRPlan,
    tasks: Sequence[StageTask],
    extract_stage: StageExtractFn = _extract_stage_fresh,
    kernel: Union[str, DiffusionKernel, None] = None,
) -> Iterator[StageTaskOutcome]:
    """Run one stage of ``plan`` in waves; its outcomes, lazily, in task order.

    A wave is up to :data:`~repro.graph.bfs.BALLS_PER_PASS` consecutive
    tasks: one stage extraction (``extract_stage`` — a cache's stage form, or
    :func:`each_ball` around a per-ball hook) and one block-diagonal
    diffusion (:func:`~repro.diffusion.diffusion.stage_diffusion`).  Every
    outcome equals :func:`execute_stage_task`'s for its task, bit for bit.  A
    wave's balls are resident together; the next wave starts only once the
    consumer has folded this one.
    """
    for begin in range(0, len(tasks), BALLS_PER_PASS):
        wave = tasks[begin : begin + BALLS_PER_PASS]
        centers = [task.center for task in wave]
        length, alpha = wave[0].length, wave[0].alpha  # one per stage
        with plan.timing.measure("bfs"):
            extracted = extract_stage(plan.graph, centers, length)
        with plan.timing.measure("diffusion"):
            diffusions = stage_diffusion(
                [subgraph.graph for subgraph, _, _ in extracted],
                [triple[0].to_local(center) for triple, center in zip(extracted, centers)],
                length,
                alpha,
                kernel,
            )
        for task, (subgraph, bfs, cache_hit), diffusion in zip(wave, extracted, diffusions):
            yield StageTaskOutcome(task, subgraph, bfs, diffusion, cache_hit)


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
StageRunner = Callable[[MeLoPPRPlan, Sequence[StageTask]], Iterable[StageTaskOutcome]]


def execute_plan(
    plan: MeLoPPRPlan,
    run_stage: StageRunner = execute_stage,
    after_stage: Optional[Callable[[MeLoPPRPlan], None]] = None,
    span: Optional[Callable[..., ContextManager]] = None,
) -> PPRResult:
    """Drive a plan to completion — the one drive loop in the library.

    ``run_stage`` executes a stage's tasks, and who is driving picks it: the
    wave executor :func:`execute_stage` by default (the serving engine binds
    its cache's stage hook and kernel with ``functools.partial``),
    :func:`execute_stage_per_ball` for ``MeLoPPRSolver.solve``, a stage-task
    backend's ``run_stage_tasks`` for worker processes.  ``after_stage``
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
