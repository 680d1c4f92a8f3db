"""Depth-limited breadth-first search and sub-graph extraction.

MeLoPPR's first step for every stage is to extract the sub-graph ``G_l(v)``
induced by the nodes within ``l`` hops of a centre node ``v`` (Sec. IV-A).
The extraction time is part of the CPU cost in the co-designed system (the
light-blue "BFS time percentage" bars of Fig. 7), so this module reports both
the sub-graph and the work performed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

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
    "extract_ego_subgraphs",
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
    return fresh, int(counts.sum())


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


def extract_ego_subgraphs(
    graph: CSRGraph, centers: Sequence[int], depth: int
) -> List[Tuple[Subgraph, BFSResult]]:
    """``extract_ego_subgraph(graph, center, depth)`` for every centre of a stage.

    The balls of :func:`extract_wave`, copied out pass by pass: every pair
    equals the per-centre function's array for array (values, dtypes,
    ``name``, ``edges_scanned``) and owns its memory, and a call holds one
    pass's scratch beyond them.  A repeated centre gets a pair per
    occurrence.
    """
    centers, depth = list(centers), check_non_negative_int(depth, "depth")
    return [
        pair
        for begin in range(0, len(centers), BALLS_PER_PASS)
        for pair in extract_wave(graph, centers[begin : begin + BALLS_PER_PASS], depth).balls()
    ]


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
        wave = EgoWave(graph.name, depth, none, none, none, none, none, start, none, none.astype(bool))
        object.__setattr__(wave, "_balls", [])
        return wave
    return _extract_pass(graph, centers, depth)


@dataclass(frozen=True, eq=False)
class EgoWave:
    """Ego balls of one depth, stacked, as the operand of their diffusion.

    Ball ``i`` owns the stacked ids ``bounds[i]:bounds[i+1]``, its centre
    first; ``nodes`` and ``levels`` are global ids and hop distances in BFS
    visit order.  ``(targets, sources)`` are adjacency entries in push form
    (see :func:`~repro.diffusion.diffusion.stage_diffusion`) that never leave
    their ball, each target meeting its sources in ascending stacked id: at
    least every entry out of a node inside its ball, all a diffusion no
    longer than ``depth`` moves mass along (a fresh extraction holds exactly
    those: its BFS's reads).  ``degrees`` is each node's degree in its ball;
    ``edges_scanned`` and ``hits`` (served from a cache) are per ball.  The
    wave executor diffuses a wave as it is; :meth:`balls` copies it out per
    ball, for whoever keeps a ball.
    """

    name: str
    depth: int
    targets: np.ndarray
    sources: np.ndarray
    degrees: np.ndarray
    nodes: np.ndarray
    levels: np.ndarray
    bounds: np.ndarray
    edges_scanned: np.ndarray
    hits: np.ndarray
    # A fresh extraction's last-level rows' in-ball columns, row by row.
    _rim: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    # The per-ball pairs, once copied out or when stacked from them.
    _balls: Optional[List[Tuple[Subgraph, BFSResult]]] = field(default=None, init=False, repr=False)

    def balls(self) -> List[Tuple[Subgraph, BFSResult]]:
        """One ``(Subgraph, BFSResult)`` per ball, owning its memory (built once)."""
        if self._balls is None:
            indptr, indices = _relabel(self)
            # Every ball is well-formed by construction — its indptr is a slice
            # of a cumsum, its columns lie in the ball, its ids are unique by
            # the visited mask — so it is wrapped without the public
            # constructors' checks.
            pairs = []
            bounds = self.bounds.tolist()
            centers = self.nodes[self.bounds[:-1]].tolist()
            for center, begin, end, edges_scanned in zip(
                centers, bounds, bounds[1:], self.edges_scanned.tolist()
            ):
                first, last = indptr[begin], indptr[end]
                ball = CSRGraph._trusted(
                    indptr[begin : end + 1] - first,
                    (indices[first:last] - begin).astype(np.int32),
                    f"{self.name}:G{self.depth}({center})",
                )
                ids, levels = self.nodes[begin:end], self.levels[begin:end]
                bfs = BFSResult(center, self.depth, ids.copy(), levels.copy(), edges_scanned)
                pairs.append((Subgraph._trusted(ball, ids.copy()), bfs))
            object.__setattr__(self, "_balls", pairs)
        return self._balls

    def entries(self) -> np.ndarray:
        """Adjacency entries (twice the edges) of each ball."""
        return np.add.reduceat(self.degrees, self.bounds[:-1])

    def triples(self) -> List[Tuple[Subgraph, BFSResult, bool]]:
        """:meth:`balls` with each ball's cache-hit flag: ``(subgraph, bfs, hit)``."""
        return [(sub, bfs, hit) for (sub, bfs), hit in zip(self.balls(), self.hits.tolist())]

    @classmethod
    def stack(
        cls, name: str, depth: int, balls: Sequence[Tuple[Subgraph, BFSResult, bool]]
    ) -> "EgoWave":
        """Kept ``(subgraph, bfs, hit)`` balls as one wave, in order (at least one).

        The one place balls are restacked: a stage's cache hits with its
        fresh misses.  A ball's operand is its CSR's row ids and columns,
        offset, so every ball keeps its bits, and :meth:`balls` returns the
        given objects.
        """
        graphs = [subgraph.graph for subgraph, _, _ in balls]
        entries = [graph.indices.size for graph in graphs]
        bounds = np.cumsum([0] + [graph.num_nodes for graph in graphs])
        degrees = np.concatenate([graph.degrees() for graph in graphs])
        wave = cls(
            name,
            depth,
            np.repeat(np.arange(bounds[-1]), degrees),
            np.concatenate([graph.indices for graph in graphs]) + np.repeat(bounds[:-1], entries),
            degrees,
            np.concatenate([subgraph.global_ids for subgraph, _, _ in balls]),
            np.concatenate([bfs.levels for _, bfs, _ in balls]),
            bounds,
            np.array([bfs.edges_scanned for _, bfs, _ in balls]),
            np.array([hit for _, _, hit in balls]),
        )
        object.__setattr__(wave, "_balls", [(subgraph, bfs) for subgraph, bfs, _ in balls])
        return wave


def _relabel(wave: EgoWave) -> Tuple[np.ndarray, np.ndarray]:
    """A fresh extraction's balls as one block-diagonal CSR ``(indptr, indices)``:
    the operand's entries as (source row, target column) and the last level's
    kept ones, no row gathered again, ordered by one sort of their keys."""
    total = wave.nodes.size
    last = np.flatnonzero(wave.levels == wave.depth)
    rows = np.concatenate([wave.sources, np.repeat(last, wave.degrees[last])])
    edges = rows * total + np.concatenate([wave.targets, wave._rim])
    edges.sort()
    indptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(wave.degrees, out=indptr[1:])
    return indptr, edges - np.repeat(np.arange(total), wave.degrees) * total


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
    visited[offsets + frontier] = True
    key_chunks: List[np.ndarray] = [offsets + frontier]
    # What the BFS read, level by level: each read row's length and the key of
    # every entry in it (all in the row's ball).
    none = np.zeros(0, dtype=np.int64)
    read_counts, read_keys = [none], [none]
    for _ in range(depth):
        neighbors, counts = gather_rows(indptr, indices, frontier)
        candidates = np.repeat(offsets, counts) + neighbors
        read_counts.append(counts)
        read_keys.append(candidates)
        fresh = _sorted_unique(candidates[np.flatnonzero(~visited[candidates])])
        if fresh.size == 0:
            break
        visited[fresh] = True
        key_chunks.append(fresh)
        frontier = fresh & node_mask
        offsets = fresh - frontier

    # Stack the balls: ball-major, and inside a ball level by level (the
    # chunks are in level order and the sort is stable).
    keys = np.concatenate(key_chunks)
    total = keys.size
    order = np.argsort(keys >> bits, kind="stable")
    stacked = np.empty(total, dtype=np.int64)  # stacked id of each key, in level order
    stacked[order] = np.arange(total)
    stacked_of = np.empty(visited.size, dtype=np.int64)  # read only where visited
    stacked_of[keys] = stacked
    levels = np.repeat(np.arange(len(key_chunks)), [chunk.size for chunk in key_chunks])[order]
    keys = keys[order]
    bounds = np.zeros(len(centers) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys >> bits), out=bounds[1:])

    # The operand is the BFS's reads in push form.  Rows are read level by
    # level in ascending key order, which is ascending stacked id inside a
    # ball, so every target meets its sources in that order.
    counts = np.concatenate(read_counts)
    read = stacked[: counts.size]  # the rows read: every level but the last
    sources = np.repeat(read, counts)
    targets = stacked_of[np.concatenate(read_keys)]
    # The last level's rows (none when every ball ran out first): one
    # membership scan keeps the entries into the ball.
    rim = none
    if counts.size < total:
        last = key_chunks[-1]
        gathered, row_counts = gather_rows(indptr, indices, last & node_mask)
        columns = np.repeat(last - (last & node_mask), row_counts) + gathered
        rim = stacked_of[columns[np.flatnonzero(visited[columns])]]
    # Every entry has its reverse (the graph is undirected), so a node's
    # degree in its ball is the number of kept entries into it.
    read_into = np.bincount(targets, minlength=total)
    degrees = read_into + np.bincount(rim, minlength=total)
    scanned = np.add.reduceat(read_into, bounds[:-1])  # the entries each ball's BFS read
    wave = EgoWave(
        graph.name, depth, targets, sources, degrees, keys & node_mask, levels,
        bounds, scanned, np.zeros(len(centers), dtype=bool),
    )
    object.__setattr__(wave, "_rim", rim)
    return wave
