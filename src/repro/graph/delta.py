"""Delta-overlay graphs: streaming edge updates over an immutable CSR base.

Production graphs mutate — recommender and fraud graphs see a steady stream
of edge insertions and deletions — but :class:`~repro.graph.csr.CSRGraph` is
immutable by design (every kernel and cache relies on that).
:class:`DeltaGraph` bridges the two worlds: it overlays insert/delete logs on
a base CSR, serves merged neighbour reads in ``O(degree + delta)``, and
produces a fresh, fully canonical :class:`CSRGraph` on :meth:`compact` —
bit-identical (same arrays, same fingerprint) to a from-scratch rebuild of
the same edge set, which is what makes every differential churn test in the
suite possible.

**Reach bounds** support surgical cache invalidation in the serving layer
(see :meth:`repro.serving.engine.QueryEngine.apply_update`):
:func:`update_reach_bound` owns the exact survival rule of anything derived
from one ego ball: the depth-``d`` extraction centred on ``c`` is
byte-identical on both topologies exactly when ``reach[c] > d``.
:func:`update_distance_bound` is the plain node bound (nearest touched
endpoint, minimised over the old *and* new topology), a hop wider than the
reach bound for one ball.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.graph.bfs import expand_frontier
from repro.graph.csr import CSRGraph, gather_rows
from repro.utils.validation import check_node_id

__all__ = [
    "EdgeOp",
    "DeltaGraph",
    "normalize_edge_ops",
    "min_hop_distances",
    "update_distance_bound",
    "update_reach_bound",
]

#: One canonical edge operation: ``(kind, u, v)`` with ``kind`` in
#: ``{"insert", "delete"}`` and ``u < v``.
EdgeOp = Tuple[str, int, int]

_EDGE_OP_KINDS = ("insert", "delete")


def _check_endpoint(value: object, index: int, name: str, num_nodes: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(
            f"edge op {index}: {name} must be an integer node id, got {value!r}"
        )
    node = int(value)
    if not 0 <= node < num_nodes:
        raise ValueError(
            f"edge op {index}: {name}={node} outside [0, {num_nodes})"
        )
    return node


def normalize_edge_ops(
    ops: Iterable[Union[EdgeOp, Dict[str, object]]], num_nodes: int
) -> List[EdgeOp]:
    """Canonicalise one update batch into validated ``(kind, u, v)`` tuples.

    Accepts ``("insert", u, v)`` tuples or ``{"op": "insert", "u": u,
    "v": v}`` dicts (the wire form of ``POST /admin/update`` and the TCP
    ``update`` op).  Endpoints are range-checked, self-loops rejected and
    each pair ordered ``u < v``; the batch must be non-empty.  All errors
    raise ``ValueError`` *before* anything is applied, so an update either
    validates whole or changes nothing — the same all-or-nothing contract as
    :func:`repro.serving.frontend.ops.apply_reload`.
    """
    if isinstance(ops, (str, bytes, dict)):
        raise ValueError(
            f"update ops must be a list of edge ops, got {type(ops).__name__}"
        )
    normalized: List[EdgeOp] = []
    for index, op in enumerate(ops):
        if isinstance(op, dict):
            missing = [key for key in ("op", "u", "v") if key not in op]
            if missing:
                raise ValueError(f"edge op {index} is missing key(s) {missing}")
            kind, u, v = op["op"], op["u"], op["v"]
        else:
            try:
                kind, u, v = op
            except (TypeError, ValueError):
                raise ValueError(
                    f"edge op {index} must be (op, u, v) or "
                    f"{{'op', 'u', 'v'}}, got {op!r}"
                ) from None
        if kind not in _EDGE_OP_KINDS:
            raise ValueError(
                f"edge op {index}: unknown op {kind!r} "
                f"(expected one of {list(_EDGE_OP_KINDS)})"
            )
        u = _check_endpoint(u, index, "u", num_nodes)
        v = _check_endpoint(v, index, "v", num_nodes)
        if u == v:
            raise ValueError(f"edge op {index}: self-loop ({u}, {v}) not allowed")
        normalized.append((str(kind), min(u, v), max(u, v)))
    if not normalized:
        raise ValueError("update batch must contain at least one edge op")
    return normalized


class DeltaGraph:
    """A mutable edge-update overlay on an immutable base :class:`CSRGraph`.

    Parameters
    ----------
    base:
        The frozen base topology.  Never mutated — the overlay records
        insertions and deletions beside it.
    name:
        Name carried onto :meth:`compact`'s output (defaults to the base
        graph's name, so extraction labels stay stable across updates).

    Notes
    -----
    The overlay keeps graphs **simple and undirected**: inserting an edge
    that already exists, deleting one that does not, and self-loops all
    raise ``ValueError`` — so the insert/delete logs stay canonical (an
    insert log entry is never a base edge, a delete log entry always is)
    and :meth:`compact` has exactly the overlaid edges.  Not thread-safe;
    the serving engine applies updates under its write barrier.
    """

    def __init__(
        self,
        base: CSRGraph,
        name: Optional[str] = None,
    ) -> None:
        self._base = base
        self._name = base.name if name is None else str(name)
        # node -> neighbour set; _inserts holds only non-base edges and
        # _deletes only base edges (both sides of every edge are recorded).
        self._inserts: Dict[int, Set[int]] = {}
        self._deletes: Dict[int, Set[int]] = {}
        self._touched: Set[int] = set()

    @property
    def num_nodes(self) -> int:
        """Number of nodes (edge updates never change the node set)."""
        return self._base.num_nodes

    def touched_nodes(self) -> np.ndarray:
        """Sorted ids of every node an update has touched since construction.

        Includes endpoints of ops that later cancelled out (an insert
        followed by a delete of the same edge): the set is a conservative
        input for invalidation bounds, never an exact topology diff.
        """
        return np.asarray(sorted(self._touched), dtype=np.int64)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def _log_add(self, log: Dict[int, Set[int]], u: int, v: int) -> None:
        log.setdefault(u, set()).add(v)
        log.setdefault(v, set()).add(u)

    def _log_discard(self, log: Dict[int, Set[int]], u: int, v: int) -> None:
        for a, b in ((u, v), (v, u)):
            row = log[a]
            row.discard(b)
            if not row:
                del log[a]

    def insert_edge(self, u: int, v: int) -> None:
        """Insert the undirected edge ``(u, v)``; it must not already exist."""
        u = check_node_id(u, self.num_nodes, "u")
        v = check_node_id(v, self.num_nodes, "v")
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not allowed")
        if self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) already exists")
        if v in self._deletes.get(u, ()):
            # Re-inserting a deleted base edge cancels the delete log entry.
            self._log_discard(self._deletes, u, v)
        else:
            self._log_add(self._inserts, u, v)
        self._touched.update((u, v))

    def delete_edge(self, u: int, v: int) -> None:
        """Delete the undirected edge ``(u, v)``; it must currently exist."""
        u = check_node_id(u, self.num_nodes, "u")
        v = check_node_id(v, self.num_nodes, "v")
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) does not exist")
        if v in self._inserts.get(u, ()):
            # Deleting a pending insert cancels the insert log entry.
            self._log_discard(self._inserts, u, v)
        else:
            self._log_add(self._deletes, u, v)
        self._touched.update((u, v))

    def apply(self, ops: Sequence[EdgeOp]) -> None:
        """Apply a batch of canonical edge ops (see :func:`normalize_edge_ops`)."""
        for kind, u, v in ops:
            if kind == "insert":
                self.insert_edge(u, v)
            else:
                self.delete_edge(u, v)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``(u, v)`` exists in the overlaid view."""
        u = check_node_id(u, self.num_nodes, "u")
        v = check_node_id(v, self.num_nodes, "v")
        if v in self._inserts.get(u, ()):
            return True
        if v in self._deletes.get(u, ()):
            return False
        return self._base.has_edge(u, v)

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbour ids of ``node``, base row merged with the deltas.

        Costs ``O(degree + delta)``; nodes with no overlay entries return the
        base CSR row directly (a zero-copy ``int32`` view — touched rows come
        back ``int64``).  The logs are canonical (a delete is always in the
        base row, an insert never is), so the merge is by position.
        """
        node = check_node_id(node, self.num_nodes)
        row = self._base.neighbors(node)
        inserted = self._inserts.get(node)
        deleted = self._deletes.get(node)
        if not inserted and not deleted:
            return row
        merged = row.astype(np.int64)
        if deleted:
            drop = np.fromiter(deleted, dtype=np.int64, count=len(deleted))
            merged = np.delete(merged, np.searchsorted(merged, drop))
        if inserted:
            add = np.sort(np.fromiter(inserted, dtype=np.int64, count=len(inserted)))
            merged = np.insert(merged, np.searchsorted(merged, add), add)
        return merged

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> CSRGraph:
        """Fold the overlay into a fresh, canonical :class:`CSRGraph`.

        The result is bit-identical (arrays and fingerprint) to rebuilding
        the current edge set from scratch: rows stay sorted ascending, every
        edge stored twice.  With an empty overlay the new graph *reuses* the
        base's immutable buffers — it is still a distinct object, so
        per-object derived state (the ``TransitionOperator`` memo) starts
        empty and fingerprint-keyed state is shared safely.  ``self`` is not
        consumed; keep updating it or start a new overlay on the result.
        """
        base = self._base
        if not self._inserts and not self._deletes:
            return CSRGraph(base.indptr, base.indices, name=self._name)
        num_nodes = self.num_nodes
        degrees = np.diff(base.indptr).copy()
        delta_nodes = sorted(set(self._inserts) | set(self._deletes))
        for node in delta_nodes:
            degrees[node] += len(self._inserts.get(node, ())) - len(
                self._deletes.get(node, ())
            )
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int32)
        previous = 0  # first node of the next untouched run
        for node in delta_nodes:
            if node > previous:
                span = base.indices[base.indptr[previous] : base.indptr[node]]
                indices[indptr[previous] : indptr[previous] + span.size] = span
            indices[indptr[node] : indptr[node + 1]] = self.neighbors(node)
            previous = node + 1
        if previous < num_nodes:
            span = base.indices[base.indptr[previous] :]
            indices[indptr[previous] :] = span
        return CSRGraph(indptr, indices, name=self._name)


# ----------------------------------------------------------------------
# Reach bounds for surgical invalidation
# ----------------------------------------------------------------------
def min_hop_distances(
    graph: CSRGraph, sources: Union[np.ndarray, Sequence[int]], radius: int
) -> np.ndarray:
    """Hop distance from the nearest source, capped: ``radius + 1`` = farther.

    A multi-source BFS over ``graph`` (one :func:`expand_frontier` ring per
    level, the same visit machinery every extraction uses).  Distances above
    ``radius`` are not resolved — callers only ever compare against depths
    ``<= radius``.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    num_nodes = graph.num_nodes
    distances = np.full(num_nodes, radius + 1, dtype=np.int64)
    sources = np.unique(np.asarray(sources, dtype=np.int64))
    if sources.size == 0:
        return distances
    if sources[0] < 0 or sources[-1] >= num_nodes:
        raise ValueError("sources contain node ids outside [0, num_nodes)")
    visited = np.zeros(num_nodes, dtype=bool)
    visited[sources] = True
    distances[sources] = 0
    frontier = sources
    for level in range(1, radius + 1):
        if frontier.size == 0:
            break
        frontier, _ = expand_frontier(graph.indptr, graph.indices, frontier, visited)
        distances[frontier] = level
    return distances


def update_distance_bound(
    old_graph: CSRGraph,
    new_graph: CSRGraph,
    touched: Union[np.ndarray, Sequence[int]],
    radius: int,
) -> np.ndarray:
    """The node bound: per-node distance to an update's touched endpoints.

    The element-wise minimum of :func:`min_hop_distances` over the **old and
    new** topology.  ``bound[c] > d`` proves no touched endpoint lies within
    ``d`` hops of ``c`` on either — the test a many-centred ball needs.  For
    one ego ball it is a hop too wide; see :func:`update_reach_bound`, the
    bound the caches use.
    """
    return np.minimum(
        min_hop_distances(old_graph, touched, radius),
        min_hop_distances(new_graph, touched, radius),
    )


#: Ops per labelled pass of :func:`update_reach_bound`: two endpoint bits
#: each in one ``uint64`` label.
_OPS_PER_PASS = 32


def update_reach_bound(
    graph: CSRGraph, ops: Sequence[EdgeOp], radius: int
) -> np.ndarray:
    """The exact survival bound of ego-centred artefacts across an update.

    ``reach[c] = min(D[c] + 1, P[c])``: ``D[c]`` is the hop distance from
    ``c`` to the nearest endpoint of ``ops`` and ``P[c]`` the smallest
    ``max(d(c, u), d(c, v))`` over the ops ``(u, v)``.  A depth-``d``
    extraction centred on ``c`` is byte-identical before and after the update
    — members, visit order, induced rows, ``edges_scanned`` — exactly when
    ``reach[c] > d``: no endpoint strictly inside the ball, no op with both
    ends in it.  Values above ``radius`` only mean "farther".

    Why.  The BFS reads the rows of the nodes strictly inside the ball and an
    update changes only its endpoints' rows, so with ``D[c] >= d`` every
    level, hence the ball, is the same on both topologies.  An endpoint *on*
    the boundary is free: its row is only filtered down to the ball's
    members, so it matters only if the op's other end is one — ``P[c] <= d``.
    Conversely an endpoint strictly inside pulls the other end into the ball
    on the topology that has the edge, so a failed clause does change the
    induced edges (an insert and a delete of one edge in one batch cancel;
    the bound still drops, which is safe).

    ``graph`` may be the old or the new topology — both give the same array:
    a shortest path from ``c`` to a nearest endpoint has no endpoint inside
    it, so it exists on both, and ``D`` and the *set* of nearest endpoints
    agree.  ``P[c] >= D[c]``, with equality exactly when both ends of some op
    are in that set, so the pair term falls out of one multi-source expansion
    in which every node carries the bit-set of its nearest endpoints — work
    proportional to the endpoints' ``radius``-balls, not to ``ops x nodes``.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    indptr, indices = graph.indptr, graph.indices
    reach = np.full(graph.num_nodes, radius + 2, dtype=np.int64)
    for begin in range(0, len(ops), _OPS_PER_PASS):
        # reach is a minimum over ops, so passes over slices of them compose.
        pairs = np.array(
            [(u, v) for _, u, v in ops[begin : begin + _OPS_PER_PASS]],
            dtype=np.int64,
        )
        sources = np.unique(pairs)
        bits = np.uint64(1) << np.arange(sources.size, dtype=np.uint64)
        both = np.bitwise_or.reduce(bits[sources.searchsorted(pairs)], axis=1)
        distances = np.full(graph.num_nodes, radius + 1, dtype=np.int64)
        nearest = np.zeros(graph.num_nodes, dtype=np.uint64)
        distances[sources] = 0
        nearest[sources] = bits
        rings = [sources]
        for level in range(1, radius + 1):
            neighbors, counts = gather_rows(indptr, indices, rings[-1])
            carried = nearest[rings[-1]].repeat(counts)
            unseen = distances[neighbors] > radius
            targets = neighbors[unseen]
            if targets.size == 0:
                break
            order = targets.argsort()
            targets = targets[order]
            is_first = np.empty(targets.size, dtype=bool)
            is_first[0] = True
            np.not_equal(targets[1:], targets[:-1], out=is_first[1:])
            (starts,) = is_first.nonzero()
            ring = targets[starts]
            # A node's nearest endpoints: the union over its parents' sets.
            nearest[ring] = np.bitwise_or.reduceat(carried[unseen][order], starts)
            distances[ring] = level
            rings.append(ring)
        reached = np.concatenate(rings)
        tied = ((nearest[reached][:, None] & both) == both).any(axis=1)
        distances += 1
        distances[reached[tied]] -= 1
        np.minimum(reach, distances, out=reach)
    return reach
