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
    "extract_ego_subgraphs",
    "BALLS_PER_PASS",
]

#: Most ego balls one pass of :func:`extract_ego_subgraphs` expands together;
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
    relies on (it is what makes shard-local and host-graph extractions
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

    Up to :data:`BALLS_PER_PASS` balls come out of one labelled multi-source
    expansion and one block-diagonal relabel, so an extraction's NumPy calls
    are paid per pass, not per ball.  Every pair equals the per-centre
    function's array for array (values, dtypes, ``name``, ``edges_scanned``)
    and owns its memory — none is a view of the pass's stacked arrays.  A
    repeated centre gets a pair per occurrence.  Scratch is two flat arrays
    with a slot per (ball of the pass, node), allocated per call: bounded by
    the pass, not by the stage.
    """
    num_nodes = graph.num_nodes
    centers = [check_node_id(center, num_nodes, "source") for center in centers]
    depth = check_non_negative_int(depth, "depth")
    pairs: List[Tuple[Subgraph, BFSResult]] = []
    for begin in range(0, len(centers), BALLS_PER_PASS):
        pairs += _extract_pass(graph, centers[begin : begin + BALLS_PER_PASS], depth)
    return pairs


def _extract_pass(
    graph: CSRGraph, centers: List[int], depth: int
) -> List[Tuple[Subgraph, BFSResult]]:
    """One pass of :func:`extract_ego_subgraphs` (validated arguments)."""
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
    for _ in range(depth):
        neighbors, counts = gather_rows(indptr, indices, frontier)
        candidates = np.repeat(offsets, counts) + neighbors
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
    levels = np.repeat(np.arange(len(key_chunks)), [chunk.size for chunk in key_chunks])
    order = np.argsort(keys >> bits, kind="stable")
    keys, levels = keys[order], levels[order]
    balls, nodes = keys >> bits, keys & node_mask
    sizes = np.bincount(balls)
    starts = np.cumsum(sizes) - sizes
    total = keys.size
    stacked_of = np.empty(visited.size, dtype=np.int64)  # read only where visited
    stacked_of[keys] = np.arange(total)

    # Block-diagonal relabel: Subgraph.induced over all balls at once.  An
    # adjacency entry is kept when its target is in the row's ball; one sort
    # of (stacked row, stacked column) keys orders the contents of every row
    # (``rows`` is ascending already, so it still lines up afterwards).
    gathered, counts = gather_rows(indptr, indices, nodes)
    targets = np.repeat(keys - nodes, counts) + gathered
    kept = np.flatnonzero(visited[targets])
    rows = np.repeat(np.arange(total), counts)[kept]
    edges = rows * total + stacked_of[targets[kept]]
    edges.sort()
    columns = (edges - rows * total - starts[balls[rows]]).astype(np.int32)
    indptr_stacked = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=total), out=indptr_stacked[1:])
    # Rows strictly inside a ball are the ones its BFS read.
    scanned = np.add.reduceat(np.where(levels < depth, counts, 0), starts)

    # Every ball is well-formed by construction — its indptr is a slice of a
    # cumsum, its columns lie in the ball, its ids are unique by the visited
    # mask — so it is wrapped without the public constructors' checks.
    pairs: List[Tuple[Subgraph, BFSResult]] = []
    bounds = zip(centers, starts.tolist(), (starts + sizes).tolist(), scanned.tolist())
    for center, begin, end, edges_scanned in bounds:
        first, last = indptr_stacked[begin], indptr_stacked[end]
        ball = CSRGraph._trusted(
            indptr_stacked[begin : end + 1] - first,
            columns[first:last].copy(),
            f"{graph.name}:G{depth}({center})",
        )
        ids, ball_levels = nodes[begin:end], levels[begin:end]
        bfs = BFSResult(center, depth, ids.copy(), ball_levels.copy(), edges_scanned)
        pairs.append((Subgraph._trusted(ball, ids.copy()), bfs))
    return pairs
