"""Shard-routed extraction for the serving engine.

:class:`ShardRouter` is the serving-side counterpart of
:class:`~repro.graph.partition.GraphPartition`: it owns one
:class:`~repro.serving.cache.SubgraphCache` per shard and implements the
planner's stage extraction hook (``(graph, centers, depth) -> EgoWave``), so
a :class:`~repro.serving.engine.QueryEngine` constructed with ``router=``
answers every stage task from the shard that owns the task's centre node.

Routing is a pure function of the task: the owning shard is
``partition.assignments[center]``, and the extraction runs on that shard's
halo-extended sub-graph whenever ``depth <= halo_depth`` — in which case the
result is **bit-identical** to a full-graph extraction (the halo guarantees
the whole ego ball, and sorted global ids guarantee the same BFS visit order
and relabelled CSR).  A stage's depth is one for all its tasks, so a deeper
stage falls back to the host graph whole (served through a dedicated
fallback cache), and its balls are counted in
:attr:`RouterStats.fallback_extractions` so the cost of an undersized halo is
visible in every report.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.bfs import BFSResult, EgoWave, extract_wave
from repro.graph.csr import CSRGraph
from repro.graph.partition import GraphPartition, patch_partition
from repro.graph.subgraph import Subgraph
from repro.serving.cache import DEFAULT_CACHE_BYTES, CacheStats, SubgraphCache
from repro.serving.result_cache import UPDATE_COUNT_KEYS, ScoreTableCache
from repro.utils.validation import check_node_id

__all__ = [
    "ShardServingStats",
    "RouterStats",
    "ShardRouter",
    "globalize_shard_extraction",
]


@dataclass(frozen=True)
class ShardServingStats:
    """Serving counters of one shard.

    Attributes
    ----------
    shard_id:
        The shard.
    num_owned, num_halo:
        Static partition shape (owned nodes, halo replicas).
    local_extractions:
        Extractions answered from this shard's sub-graph.
    fallback_extractions:
        Extractions owned by this shard whose depth exceeded the halo and
        were answered from the host graph instead.
    cache:
        Snapshot of the shard's cache counters (``None`` with caching off).
    result_cache:
        Snapshot of the shard's stage-one result-cache counters (``None``
        with result caching off).
    """

    shard_id: int
    num_owned: int
    num_halo: int
    local_extractions: int
    fallback_extractions: int
    cache: Optional[CacheStats]
    result_cache: Optional[CacheStats] = None

    @property
    def hit_rate(self) -> float:
        """Shard-cache hit rate (0.0 with caching off or before any lookup)."""
        return 0.0 if self.cache is None else self.cache.hit_rate

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON reports."""
        return {
            "shard_id": self.shard_id,
            "num_owned": self.num_owned,
            "num_halo": self.num_halo,
            "local_extractions": self.local_extractions,
            "fallback_extractions": self.fallback_extractions,
            "cache": None if self.cache is None else self.cache.as_dict(),
            "result_cache": (
                None if self.result_cache is None else self.result_cache.as_dict()
            ),
        }


@dataclass(frozen=True)
class RouterStats:
    """Aggregate routing statistics of a :class:`ShardRouter`.

    Attributes
    ----------
    strategy, num_shards, halo_depth:
        Shape of the underlying partition.
    shards:
        Per-shard counters.
    fallback_cache:
        Counters of the host-graph fallback cache (``None`` with caching off).
    halo_overhead_bytes:
        Bytes the partition spends on halo replication.
    """

    strategy: str
    num_shards: int
    halo_depth: int
    shards: Tuple[ShardServingStats, ...]
    fallback_cache: Optional[CacheStats]
    halo_overhead_bytes: int

    @property
    def local_extractions(self) -> int:
        """Extractions answered shard-locally."""
        return sum(shard.local_extractions for shard in self.shards)

    @property
    def fallback_extractions(self) -> int:
        """Extractions that fell back to the host graph."""
        return sum(shard.fallback_extractions for shard in self.shards)

    @property
    def total_extractions(self) -> int:
        """All routed extractions."""
        return self.local_extractions + self.fallback_extractions

    @property
    def fallback_rate(self) -> float:
        """Fraction of extractions that crossed shards (0.0 before any)."""
        total = self.total_extractions
        return self.fallback_extractions / total if total else 0.0

    @property
    def hit_rate(self) -> float:
        """Aggregate cache hit rate over the shard and fallback caches."""
        hits = misses = 0
        for shard in self.shards:
            if shard.cache is not None:
                hits += shard.cache.hits
                misses += shard.cache.misses
        if self.fallback_cache is not None:
            hits += self.fallback_cache.hits
            misses += self.fallback_cache.misses
        lookups = hits + misses
        return hits / lookups if lookups else 0.0

    def per_shard_hit_rates(self) -> List[float]:
        """Shard-cache hit rates, indexed by shard id."""
        return [shard.hit_rate for shard in self.shards]

    @staticmethod
    def _sum_counters(counters) -> Optional[CacheStats]:
        """Counter-wise sum over optional snapshots (``None`` when all off)."""
        present = [stats for stats in counters if stats is not None]
        if not present:
            return None
        total = CacheStats()
        for stats in present:
            total = total + stats
        return total

    def aggregate_cache(self) -> Optional[CacheStats]:
        """Sum of the per-shard and fallback cache counters.

        This is what makes :meth:`repro.serving.engine.EngineStats.as_dict`
        uniform: a shard-routed engine reports the same ``cache`` shape as an
        engine with a single shared cache.  ``None`` with caching off.
        """
        return self._sum_counters(
            [shard.cache for shard in self.shards] + [self.fallback_cache]
        )

    def aggregate_result_cache(self) -> Optional[CacheStats]:
        """Sum of the per-shard stage-one result-cache counters.

        The sharded counterpart of a single engine-level
        :class:`~repro.serving.result_cache.ScoreTableCache`'s ``stats`` —
        the engine reports it under ``EngineStats.result_cache`` so
        dashboards read one shape whether sharded or not.  ``None`` with
        result caching off.
        """
        return self._sum_counters(shard.result_cache for shard in self.shards)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON reports."""
        result_cache = self.aggregate_result_cache()
        return {
            "strategy": self.strategy,
            "num_shards": self.num_shards,
            "halo_depth": self.halo_depth,
            "local_extractions": self.local_extractions,
            "fallback_extractions": self.fallback_extractions,
            "fallback_rate": self.fallback_rate,
            "hit_rate": self.hit_rate,
            "per_shard_hit_rates": self.per_shard_hit_rates(),
            "halo_overhead_bytes": self.halo_overhead_bytes,
            "shards": [shard.as_dict() for shard in self.shards],
            "fallback_cache": (
                None if self.fallback_cache is None else self.fallback_cache.as_dict()
            ),
            "result_cache": (
                None if result_cache is None else result_cache.as_dict()
            ),
        }


class ShardRouter:
    """Routes ego-sub-graph extractions to the shard owning their centre.

    Parameters
    ----------
    partition:
        The sharded host graph.
    cache_bytes:
        Byte budget of **each** per-shard cache (and of the fallback cache).
        Pass ``None`` to disable caching entirely.
    result_cache_bytes:
        Byte budget of **each** per-shard stage-one result cache
        (:class:`~repro.serving.result_cache.ScoreTableCache`), keyed to the
        shard owning the query's *seed* so hot-seed state lives next to the
        shard's sub-graphs.  ``None`` (default) disables cross-query result
        caching — opt in the same way the engine-level ``result_cache=`` is
        opted into.
    result_cache_ttl_seconds:
        Optional TTL applied to every per-shard result cache.

    Notes
    -----
    The router is thread-safe: the partition is immutable, the caches are
    internally locked, and the routing counters are guarded by a router lock,
    so one router can serve a concurrent backend.  :meth:`extract_wave` is
    the planner's :data:`~repro.meloppr.planner.StageExtractFn`;
    ``QueryEngine(..., router=router)`` wires it in, and consults
    :meth:`result_cache_for` per query for stage-one reuse.
    """

    def __init__(
        self,
        partition: GraphPartition,
        cache_bytes: Optional[int] = DEFAULT_CACHE_BYTES,
        result_cache_bytes: Optional[int] = None,
        result_cache_ttl_seconds: Optional[float] = None,
    ) -> None:
        self._partition = partition
        self._caches: Tuple[Optional[SubgraphCache], ...] = tuple(
            SubgraphCache(cache_bytes) if cache_bytes is not None else None
            for _ in partition.shards
        )
        self._fallback_cache: Optional[SubgraphCache] = (
            SubgraphCache(cache_bytes) if cache_bytes is not None else None
        )
        self._result_caches: Tuple[Optional[ScoreTableCache], ...] = tuple(
            ScoreTableCache(result_cache_bytes, ttl_seconds=result_cache_ttl_seconds)
            if result_cache_bytes is not None
            else None
            for _ in partition.shards
        )
        # Routing counters are guarded per shard so the hot path never
        # serialises unrelated shards on one router-global lock.
        self._counter_locks = tuple(
            threading.Lock() for _ in range(partition.num_shards)
        )
        self._local_counts = [0] * partition.num_shards
        self._fallback_counts = [0] * partition.num_shards
        # The partition is frozen, so its halo cost is a constant — computed
        # once here rather than on every stats() snapshot.
        self._halo_overhead_bytes = partition.halo_overhead_bytes()

    # ------------------------------------------------------------------
    @property
    def partition(self) -> GraphPartition:
        """The underlying partition."""
        return self._partition

    @property
    def caching_enabled(self) -> bool:
        """Whether per-shard (and fallback) caches are active."""
        return self._fallback_cache is not None

    @property
    def result_caching_enabled(self) -> bool:
        """Whether per-shard stage-one result caches are active."""
        return any(cache is not None for cache in self._result_caches)

    def cache_for(self, shard_id: int) -> Optional[SubgraphCache]:
        """The cache of one shard (``None`` with caching off)."""
        return self._caches[shard_id]

    def result_cache_for(self, seed: int) -> Optional[ScoreTableCache]:
        """The result cache owning a query's seed (``None`` when disabled).

        Stage one always diffuses around the seed, so its folded table is
        kept by the seed's owning shard — the same placement rule the
        extraction path uses, which keeps each shard's hot state (sub-graphs
        *and* score tables) self-contained for future NUMA pinning.
        """
        seed = check_node_id(seed, self._partition.host.num_nodes, "seed")
        return self._result_caches[int(self._partition.assignments[seed])]

    # ------------------------------------------------------------------
    def extract_wave(self, graph: CSRGraph, centers: Sequence[int], depth: int) -> EgoWave:
        """The engine's stage extraction hook, routed to the owning shards.

        Centres are grouped by owning shard, and each group is served by
        :func:`globalize_shard_extraction` through that shard's cache; the
        groups of a stage spanning shards are restacked in centre order.  A
        depth beyond the halo sends the whole stage to the host graph,
        through the fallback cache.  The local / fallback counters count
        balls.

        ``graph`` must be the partitioned host graph — the router refuses to
        serve any other graph, because the shard sub-graphs would silently
        describe the wrong topology.
        """
        partition = self._partition
        if graph is not partition.host:
            raise ValueError(
                f"router is bound to graph {partition.host.name!r}; "
                f"got {graph.name!r}"
            )
        centers = [check_node_id(center, graph.num_nodes, "center") for center in centers]
        groups: Dict[int, List[int]] = {}
        for position, shard_id in enumerate(partition.assignments[centers].tolist()):
            groups.setdefault(shard_id, []).append(position)
        local = partition.covers_depth(depth)
        counts = self._local_counts if local else self._fallback_counts
        for shard_id, positions in groups.items():
            with self._counter_locks[shard_id]:
                counts[shard_id] += len(positions)
        if not local or not groups:
            if self._fallback_cache is not None:
                return self._fallback_cache.extract_wave(graph, centers, depth)
            return extract_wave(graph, centers, depth)
        waves = {
            shard_id: globalize_shard_extraction(
                graph.name,
                partition.shards[shard_id].subgraph,
                [centers[position] for position in positions],
                depth,
                self._caches[shard_id],
            )
            for shard_id, positions in groups.items()
        }
        if len(waves) == 1:
            return next(iter(waves.values()))
        balls: List[Tuple[Subgraph, BFSResult, bool]] = [None] * len(centers)
        for shard_id, positions in groups.items():
            for position, ball in zip(positions, waves[shard_id].triples()):
                balls[position] = ball
        return EgoWave.stack(graph.name, depth, balls)

    # ------------------------------------------------------------------
    def stats(self) -> RouterStats:
        """A snapshot of the routing and cache counters.

        Each counter source (a shard's routing counts, a cache's stats) is
        internally consistent, but with traffic in flight the sources may be
        mutually out of step — e.g. an extraction whose routing counter is
        already visible but whose cache lookup is not.  Quiesce the engine
        (or join the backend's workers) before asserting exact cross-source
        invariants, as the stress tests do.
        """
        local_counts = []
        fallback_counts = []
        for shard_id, lock in enumerate(self._counter_locks):
            with lock:
                local_counts.append(self._local_counts[shard_id])
                fallback_counts.append(self._fallback_counts[shard_id])
        partition = self._partition
        shards = tuple(
            ShardServingStats(
                shard_id=shard.shard_id,
                num_owned=shard.num_owned,
                num_halo=shard.num_halo,
                local_extractions=local_counts[shard.shard_id],
                fallback_extractions=fallback_counts[shard.shard_id],
                cache=(
                    None
                    if self._caches[shard.shard_id] is None
                    else self._caches[shard.shard_id].stats
                ),
                result_cache=(
                    None
                    if self._result_caches[shard.shard_id] is None
                    else self._result_caches[shard.shard_id].stats
                ),
            )
            for shard in partition.shards
        )
        return RouterStats(
            strategy=partition.strategy,
            num_shards=partition.num_shards,
            halo_depth=partition.halo_depth,
            shards=shards,
            fallback_cache=(
                None if self._fallback_cache is None else self._fallback_cache.stats
            ),
            halo_overhead_bytes=self._halo_overhead_bytes,
        )

    def reset_stats(self) -> None:
        """Zero the routing counters and every cache's counters.

        Cache *contents* (and the partition) are untouched; used for
        per-interval reporting on long-running servers.
        """
        for shard_id, lock in enumerate(self._counter_locks):
            with lock:
                self._local_counts[shard_id] = 0
                self._fallback_counts[shard_id] = 0
        for cache in self._caches:
            if cache is not None:
                cache.reset_stats()
        if self._fallback_cache is not None:
            self._fallback_cache.reset_stats()
        for result_cache in self._result_caches:
            if result_cache is not None:
                result_cache.reset_stats()

    def clear_result_caches(self) -> None:
        """Drop every shard's cached stage-one state (counters are kept).

        Explicit invalidation for operational use (e.g. after a config
        change that `stage_one_cache_key` does not cover); a *rebuilt* graph
        gets a new router, whose caches start empty.
        """
        for result_cache in self._result_caches:
            if result_cache is not None:
                result_cache.clear()

    # ------------------------------------------------------------------
    def update_radius(self) -> int:
        """Largest hop radius a surgical update must resolve its bounds to.

        The maximum over the halo depth (the affected-shard test), every
        cached extraction depth, and every stage length a cached state or
        answer ran — anything beyond this radius can be capped without
        changing an invalidation or shard-rebuild decision.
        """
        caches = [c for c in self._caches + (self._fallback_cache,) if c is not None]
        result_caches = [c for c in self._result_caches if c is not None]
        return max(
            [self._partition.halo_depth]
            + [cache.max_depth() for cache in caches]
            + [cache.max_stage_length() for cache in result_caches]
        )

    def apply_update(
        self,
        new_graph: CSRGraph,
        distances: np.ndarray,
        reach: np.ndarray,
    ) -> Dict[str, int]:
        """Surgically patch the router after an edge update on the host.

        ``distances`` is the node bound
        (:func:`repro.graph.delta.update_distance_bound`) and ``reach`` the
        ego-ball bound (:func:`repro.graph.delta.update_reach_bound`), both
        resolved out to at least :meth:`update_radius`.  Shards — many-centred
        balls — are patched on the first: only those with an owned node
        within ``halo_depth`` of a touched endpoint are re-extracted
        (:func:`repro.graph.partition.patch_partition`).  The caches go by
        the second: an ego ball with ``reach[centre] > depth``, a stage-one
        table whose seed passes at its stage-one length and an answer whose
        every task passes are bit-for-bit what the new graph would produce,
        so they stay, and the fallback cache is rebound to ``new_graph``.

        Not internally synchronised against in-flight extractions: the
        caller (:meth:`repro.serving.engine.QueryEngine.apply_update`) holds
        the engine's writer barrier, which guarantees no batch is running.
        Returns invalidation counters for the update outcome report.
        """
        patched, rebuilt = patch_partition(self._partition, new_graph, distances)
        outcome = {
            "shards_rebuilt": len(rebuilt),
            "subgraph_entries_dropped": 0,
            **dict.fromkeys(UPDATE_COUNT_KEYS, 0),
        }
        for cache in self._caches + (self._fallback_cache,):
            if cache is not None:
                outcome["subgraph_entries_dropped"] += cache.invalidate_covering(reach)
        if self._fallback_cache is not None:
            self._fallback_cache.rebind(new_graph)
        for result_cache in self._result_caches:
            if result_cache is not None:
                counts = result_cache.apply_update(reach)
                for key, count in zip(UPDATE_COUNT_KEYS, counts):
                    outcome[key] += count
        self._partition = patched
        self._halo_overhead_bytes = patched.halo_overhead_bytes()
        return outcome

    def validate(self) -> None:
        """Check every cache's internal invariants (testing aid)."""
        for cache in self._caches:
            if cache is not None:
                cache.validate()
        if self._fallback_cache is not None:
            self._fallback_cache.validate()
        for result_cache in self._result_caches:
            if result_cache is not None:
                result_cache.validate()

    def __repr__(self) -> str:
        return (
            f"ShardRouter(partition={self._partition!r}, "
            f"caching={'on' if self.caching_enabled else 'off'}, "
            f"result_caching={'on' if self.result_caching_enabled else 'off'})"
        )


def globalize_shard_extraction(
    host_name: str,
    shard_subgraph: Subgraph,
    centers: Sequence[int],
    depth: int,
    cache: Optional[SubgraphCache] = None,
) -> EgoWave:
    """A stage's extractions on one shard sub-graph, as a wave over global ids.

    The centres are looked up in ``cache`` first (when given); the misses
    come out of one :func:`~repro.graph.bfs.extract_wave` on the shard CSR,
    and the wave is globalised whole: its ids mapped through the shard's,
    its name the host's.  Each ball is indistinguishable from the host
    graph's own extraction of it: same relabelled CSR arrays, same global-id
    mapping, same BFS visit order and ``edges_scanned`` — guaranteed by the
    halo covering the full ego ball and by the shard's global ids being
    sorted ascending (see :mod:`repro.graph.partition`).
    """
    shard_ids = shard_subgraph.global_ids

    def extract(missed: List[int]) -> EgoWave:
        local_centers = [shard_subgraph.to_local(center) for center in missed]
        wave = extract_wave(shard_subgraph.graph, local_centers, depth)
        return replace(wave, name=host_name, nodes=shard_ids[wave.nodes])

    if cache is not None:
        return cache.extract_wave_with(centers, depth, extract)
    return extract(list(centers))
