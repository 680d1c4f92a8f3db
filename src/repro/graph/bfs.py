"""Depth-limited breadth-first search and sub-graph extraction.

MeLoPPR's first step for every stage is to extract the sub-graph ``G_l(v)``
induced by the nodes within ``l`` hops of a centre node ``v`` (Sec. IV-A).
The extraction time is part of the CPU cost in the co-designed system (the
light-blue "BFS time percentage" bars of Fig. 7), so this module reports both
the sub-graph and the work performed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph, _sorted_unique, gather_rows
from repro.graph.subgraph import Subgraph
from repro.utils.validation import check_node_id, check_non_negative_int

__all__ = [
    "BFSResult",
    "bfs_levels",
    "bfs_frontier_sizes",
    "expand_frontier",
    "extract_ego_subgraph",
    "extract_wave",
    "EgoWave",
    "BALLS_PER_PASS",
]

#: Most ego balls one pass of :func:`extract_wave` expands together;
#: bounds its scratch, and is the width of the planner's waves.
BALLS_PER_PASS = 64


@dataclass(frozen=True)
class BFSResult:
    """Result of a depth-limited BFS from a single source.

    Attributes
    ----------
    source:
        The source node (global id).
    depth:
        The depth limit used.
    nodes:
        Global ids of all reached nodes, in visit order (source first).
    levels:
        ``levels[i]`` is the hop distance of ``nodes[i]`` from the source.
    edges_scanned:
        Number of adjacency entries read — the dominant term of the BFS cost
        model used by the hardware co-simulation.
    """

    source: int
    depth: int
    nodes: np.ndarray
    levels: np.ndarray
    edges_scanned: int

    @property
    def num_nodes(self) -> int:
        """Number of reached nodes."""
        return int(self.nodes.size)

    def frontier_sizes(self) -> np.ndarray:
        """Number of nodes at each hop distance ``0..depth``."""
        return np.bincount(self.levels, minlength=self.depth + 1)


def expand_frontier(
    indptr: np.ndarray,
    indices: np.ndarray,
    frontier: np.ndarray,
    visited: np.ndarray,
) -> Tuple[np.ndarray, int]:
    """One BFS level: the unvisited neighbours of ``frontier``, sorted by id.

    The returned nodes are marked in ``visited`` (in place) and come out
    ascending — the visit-order contract every extraction in the library
    relies on (it is what makes cached, batched and per-ball extractions
    bit-identical).  Also returns the number of adjacency entries scanned,
    the dominant term of the BFS cost model.  ``frontier`` must be non-empty.
    """
    neighbors, counts = gather_rows(indptr, indices, frontier)
    fresh = _sorted_unique(neighbors[~visited[neighbors]]).astype(np.int64)
    visited[fresh] = True
    return fresh, int(np.add.reduce(counts))


def bfs_levels(graph: CSRGraph, source: int, depth: int) -> BFSResult:
    """Breadth-first search from ``source`` limited to ``depth`` hops.

    Parameters
    ----------
    graph:
        The host graph.
    source:
        Source node id.
    depth:
        Maximum hop distance (``0`` returns only the source).

    Returns
    -------
    BFSResult
    """
    source = check_node_id(source, graph.num_nodes, "source")
    depth = check_non_negative_int(depth, "depth")

    indptr, indices = graph.indptr, graph.indices
    visited = np.zeros(graph.num_nodes, dtype=bool)
    visited[source] = True
    node_chunks: List[np.ndarray] = [np.asarray([source], dtype=np.int64)]
    level_chunks: List[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    frontier = np.asarray([source], dtype=np.int64)
    edges_scanned = 0

    for level in range(1, depth + 1):
        if frontier.size == 0:
            break
        fresh, scanned = expand_frontier(indptr, indices, frontier, visited)
        edges_scanned += scanned
        if fresh.size == 0:
            break
        node_chunks.append(fresh)
        level_chunks.append(np.full(fresh.size, level, dtype=np.int64))
        frontier = fresh

    return BFSResult(
        source=source,
        depth=depth,
        nodes=np.concatenate(node_chunks),
        levels=np.concatenate(level_chunks),
        edges_scanned=edges_scanned,
    )


def bfs_frontier_sizes(graph: CSRGraph, source: int, depth: int) -> np.ndarray:
    """Convenience wrapper returning only the per-level frontier sizes."""
    return bfs_levels(graph, source, depth).frontier_sizes()


def extract_ego_subgraph(
    graph: CSRGraph, source: int, depth: int
) -> Tuple[Subgraph, BFSResult]:
    """Extract the depth-``depth`` ego sub-graph ``G_depth(source)``.

    The sub-graph contains every node within ``depth`` hops of ``source`` and
    every edge of the host graph between two such nodes.  Node ids are
    relabelled to ``0..n_sub-1`` (source becomes local id 0); the mapping back
    to global ids is carried by the returned :class:`Subgraph`.

    Returns
    -------
    (Subgraph, BFSResult)
        The extracted sub-graph and the BFS bookkeeping (for cost models).
    """
    result = bfs_levels(graph, source, depth)
    subgraph = Subgraph.induced(graph, result.nodes, name=f"{graph.name}:G{depth}({source})")
    return subgraph, result


def extract_wave(graph: CSRGraph, centers: Sequence[int], depth: int) -> "EgoWave":
    """The depth-``depth`` ego balls of ``centers``, stacked as one :class:`EgoWave`.

    Up to :data:`BALLS_PER_PASS` balls come out of one labelled multi-source
    expansion, whose reads are the diffusion operand, and one membership scan
    of the last level, so NumPy calls are paid per pass, not per ball, and no
    per-ball object is built.  Scratch is two flat arrays with a slot per
    (ball of the pass, node); more centres than one pass raise ``ValueError``.
    """
    num_nodes = graph.num_nodes
    centers = [check_node_id(center, num_nodes, "source") for center in centers]
    depth = check_non_negative_int(depth, "depth")
    if len(centers) > BALLS_PER_PASS:
        raise ValueError(f"one pass extracts at most {BALLS_PER_PASS} balls, got {len(centers)}")
    if not centers:  # a stage the cache served whole
        none, start = np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
        return EgoWave(graph.name, depth, none, none, none, none, start, none, none.astype(bool))
    return _extract_pass(graph, centers, depth)


@dataclass(frozen=True, eq=False)
class EgoWave:
    """Ego balls of one depth, stacked, as the operand of their diffusion.

    Ball ``i`` owns the stacked ids ``bounds[i]:bounds[i+1]``, its centre
    first; ``nodes`` and ``levels`` are global ids and hop distances in BFS
    visit order, and ``degrees`` each node's degree in its ball;
    ``edges_scanned`` and ``hits`` (served from a cache) are per ball.
    ``targets`` are adjacency entries in push form (see
    :func:`~repro.diffusion.diffusion.stage_diffusion`): every entry out of a
    node inside its ball (``levels < depth``), all a diffusion no longer than
    ``depth`` moves mass along.  Every wave — a fresh extraction, a ball of
    :meth:`split`, a :meth:`stack` of them — is ball-major: ball by ball, the
    rows of its inner nodes, whole and in stacked order.  So each target meets
    its sources in ascending stacked id, and the sources follow from
    ``levels`` and ``degrees`` (:attr:`sources`).
    """

    name: str
    depth: int
    targets: np.ndarray
    degrees: np.ndarray
    nodes: np.ndarray
    levels: np.ndarray
    bounds: np.ndarray
    edges_scanned: np.ndarray
    hits: np.ndarray

    @property
    def sources(self) -> np.ndarray:
        """Each entry's source: the rows of every inner node, in stacked order."""
        (inner,) = (self.levels < self.depth).nonzero()
        return inner.repeat(self.degrees[inner])

    def entries(self) -> np.ndarray:
        """Adjacency entries (twice the edges) of each ball."""
        return np.add.reduceat(self.degrees, self.bounds[:-1])

    def split(self) -> List["EgoWave"]:
        """One wave per ball, in ball-local ids: what a cache keeps.

        The wave is ball-major, so a ball's entries are one slice and it
        diffuses to the same bits alone.  Every array is the ball's own and
        frozen, as a cache shares it across threads; targets are ``int32``.
        """
        inner = np.where(self.levels < self.depth, self.degrees, 0)
        ends = inner.cumsum()[self.bounds[1:] - 1].tolist()  # a ball is never empty
        bounds = self.bounds.tolist()
        return [
            EgoWave(
                self.name,
                self.depth,
                _frozen(np.subtract(self.targets[first:last], begin, dtype=np.int32)),
                _owned(self.degrees[begin:end]),
                _owned(self.nodes[begin:end]),
                _owned(self.levels[begin:end]),
                _frozen(np.array([0, end - begin])),
                _owned(self.edges_scanned[ball : ball + 1]),
                _owned(self.hits[ball : ball + 1]),
            )
            for ball, (begin, end, first, last) in enumerate(
                zip(bounds, bounds[1:], [0] + ends, ends)
            )
        ]

    @classmethod
    def stack(
        cls, name: str, depth: int, balls: Sequence["EgoWave"], hits: Sequence[bool]
    ) -> "EgoWave":
        """One-ball waves as one wave, in order (at least one), ball ``i``
        flagged ``hits[i]``: the one place balls are restacked, a stage's
        cache hits with its fresh misses.  Entries are concatenated with each
        ball's id offset, so every ball keeps its bits."""
        bounds = np.array([0] + [ball.nodes.size for ball in balls]).cumsum()
        entries = [ball.targets.size for ball in balls]
        return cls(
            name,
            depth,
            np.concatenate([ball.targets for ball in balls]) + bounds[:-1].repeat(entries),
            np.concatenate([ball.degrees for ball in balls]),
            np.concatenate([ball.nodes for ball in balls]),
            np.concatenate([ball.levels for ball in balls]),
            bounds,
            np.concatenate([ball.edges_scanned for ball in balls]),
            np.array(hits, dtype=bool),
        )


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array`` (which owns its memory) made read-only."""
    array.setflags(write=False)
    return array


def _owned(array: np.ndarray) -> np.ndarray:
    """A frozen copy of ``array`` that owns its memory."""
    return _frozen(array.copy())


def _extract_pass(graph: CSRGraph, centers: List[int], depth: int) -> EgoWave:
    """One pass of :func:`extract_wave` (validated, non-empty arguments)."""
    indptr, indices = graph.indptr, graph.indices
    # A (ball, node) pair is the key ``ball << bits | node``: sorted keys are
    # ball-major with ascending node ids inside a ball, which is each ball's
    # visit order within one level.
    bits = max(1, (graph.num_nodes - 1).bit_length())
    node_mask = (1 << bits) - 1
    frontier = np.asarray(centers, dtype=np.int64)
    offsets = np.arange(frontier.size, dtype=np.int64) << bits
    visited = np.zeros(frontier.size << bits, dtype=bool)
    key_chunks: List[np.ndarray] = [offsets + frontier]
    visited[key_chunks[0]] = True
    # What the BFS read, level by level: how many rows, and the key of every
    # entry in them (each in its row's ball).
    none = np.zeros(0, dtype=np.int64)
    rows_read, read_keys = 0, [none]
    for _ in range(depth):
        neighbors, counts = gather_rows(indptr, indices, frontier)
        candidates = offsets.repeat(counts) + neighbors
        rows_read += frontier.size
        read_keys.append(candidates)
        fresh = _sorted_unique(candidates[(~visited[candidates]).nonzero()[0]])
        if fresh.size == 0:
            break
        visited[fresh] = True
        key_chunks.append(fresh)
        frontier = fresh & node_mask
        offsets = fresh - frontier

    # Stack the balls ball-major, and the operand, the BFS's reads in push
    # form, with them: one stable partition of each by ball (a one-ball pass
    # already is ball-major; under 256 balls a ball id fits a byte, which
    # numpy partitions by radix).  Inside a ball the nodes stay level by
    # level, and its rows were read level by level in ascending key order,
    # which is ascending stacked id, so every row is whole and in place.
    keys = np.concatenate(key_chunks)
    levels = np.arange(len(key_chunks)).repeat([chunk.size for chunk in key_chunks])
    reads = np.concatenate(read_keys)
    if len(centers) > 1:
        order = (keys >> bits).astype(np.uint8).argsort(kind="stable")
        keys, levels = keys[order], levels[order]
        reads = reads[(reads >> bits).astype(np.uint8).argsort(kind="stable")]
    total = keys.size
    stacked_of = np.empty(visited.size, dtype=np.int64)  # read only where visited
    stacked_of[keys] = np.arange(total)
    bounds = np.zeros(len(centers) + 1, dtype=np.int64)
    np.bincount(keys >> bits).cumsum(out=bounds[1:])
    targets = stacked_of[reads]
    # The last level's rows, unless every ball ran out first (else that level
    # is the frontier): one membership scan keeps the entries into the ball.
    rim = none
    if rows_read < total:
        gathered, row_counts = gather_rows(indptr, indices, frontier)
        columns = offsets.repeat(row_counts) + gathered
        rim = stacked_of[columns[visited[columns].nonzero()[0]]]
    # Every entry has its reverse (the graph is undirected), so a node's
    # degree in its ball is the number of kept entries into it.
    read_into = np.bincount(targets, minlength=total)
    degrees = read_into + np.bincount(rim, minlength=total)
    scanned = np.add.reduceat(read_into, bounds[:-1])  # the entries each ball's BFS read
    return EgoWave(
        graph.name, depth, targets, degrees, keys & node_mask, levels,
        bounds, scanned, np.zeros(len(centers), dtype=bool),
    )
