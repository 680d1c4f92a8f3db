"""Synthetic graph generators.

The paper evaluates on six SNAP graphs.  Those datasets cannot be downloaded
in this offline environment, so :mod:`repro.graph.datasets` builds stand-ins
from the generators in this module.  The generators are deterministic given a
seed and produce graphs whose degree distributions match the structural
regimes of the originals:

* citation networks (citeseer, cora, pubmed) — sparse, low average degree,
  mild skew → :func:`citation_graph`;
* co-purchase / co-authorship / social networks (com-amazon, com-dblp,
  com-youtube) — heavy-tailed degree distribution with community structure →
  :func:`community_graph` (power-law cluster style).

Classic generators (Barabási–Albert, Watts–Strogatz, Erdős–Rényi, stochastic
block model) are also provided for tests and examples.

The two stand-in generators draw their scalars through
:class:`~repro.utils.rng.PCG64Draws`, a decoder of the PCG64 raw stream that
returns what the ``Generator`` calls would, and hand their edges to
:class:`GraphBuilder` in one ``add_edges``; the classic ones call the
``Generator`` directly.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.graph.builder import GraphBuilder
from repro.graph.csr import CSRGraph
from repro.utils.rng import DOUBLE_UNIT, MASK32, PCG64Draws, RngLike, ensure_rng
from repro.utils.validation import check_positive_int, check_probability

__all__ = [
    "erdos_renyi_graph",
    "barabasi_albert_graph",
    "watts_strogatz_graph",
    "stochastic_block_model",
    "powerlaw_cluster_graph",
    "citation_graph",
    "community_graph",
]


def _edge_list_graph(num_nodes: int, endpoints: list, name: str) -> CSRGraph:
    """Build a graph from a flat ``[u0, v0, u1, v1, ...]`` list, in one ``add_edges``."""
    builder = GraphBuilder(num_nodes=num_nodes)
    builder.add_edges(np.array(endpoints, dtype=np.int64).reshape(-1, 2))
    return builder.build(name=name)


def erdos_renyi_graph(
    num_nodes: int,
    edge_probability: float,
    rng: RngLike = None,
    name: str = "erdos-renyi",
) -> CSRGraph:
    """G(n, p) random graph.

    Edges are sampled by drawing the expected number of edges and rejecting
    duplicates, which is accurate for the sparse regime used here.
    """
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    edge_probability = check_probability(edge_probability, "edge_probability")
    generator = ensure_rng(rng)
    max_edges = num_nodes * (num_nodes - 1) // 2
    expected = int(round(max_edges * edge_probability))
    builder = GraphBuilder(num_nodes=num_nodes)
    if expected > 0 and num_nodes > 1:
        sources = generator.integers(0, num_nodes, size=2 * expected + 16)
        targets = generator.integers(0, num_nodes, size=2 * expected + 16)
        keep = sources != targets
        edges = np.column_stack([sources[keep], targets[keep]])[:expected]
        builder.add_edges(edges)
    return builder.build(name=name)


def barabasi_albert_graph(
    num_nodes: int,
    attachment: int,
    rng: RngLike = None,
    name: str = "barabasi-albert",
) -> CSRGraph:
    """Barabási–Albert preferential-attachment graph.

    Each new node attaches to ``attachment`` existing nodes chosen with
    probability proportional to their degree (implemented with the standard
    repeated-nodes trick).
    """
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    attachment = check_positive_int(attachment, "attachment")
    if attachment >= num_nodes:
        raise ValueError("attachment must be smaller than num_nodes")
    generator = ensure_rng(rng)
    builder = GraphBuilder(num_nodes=num_nodes)

    # Start from a star over the first `attachment + 1` nodes.
    repeated: list[int] = []
    for node in range(1, attachment + 1):
        builder.add_edge(0, node)
        repeated.extend([0, node])

    for node in range(attachment + 1, num_nodes):
        targets: set[int] = set()
        while len(targets) < attachment:
            pick = repeated[int(generator.integers(0, len(repeated)))]
            targets.add(pick)
        for target in targets:
            builder.add_edge(node, target)
            repeated.extend([node, target])
    return builder.build(name=name)


def watts_strogatz_graph(
    num_nodes: int,
    nearest_neighbors: int,
    rewire_probability: float,
    rng: RngLike = None,
    name: str = "watts-strogatz",
) -> CSRGraph:
    """Watts–Strogatz small-world graph (ring lattice with rewiring)."""
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    nearest_neighbors = check_positive_int(nearest_neighbors, "nearest_neighbors")
    rewire_probability = check_probability(rewire_probability, "rewire_probability")
    if nearest_neighbors >= num_nodes:
        raise ValueError("nearest_neighbors must be smaller than num_nodes")
    generator = ensure_rng(rng)
    builder = GraphBuilder(num_nodes=num_nodes)
    half = max(nearest_neighbors // 2, 1)
    for node in range(num_nodes):
        for offset in range(1, half + 1):
            target = (node + offset) % num_nodes
            if generator.random() < rewire_probability:
                target = int(generator.integers(0, num_nodes))
                if target == node:
                    target = (node + offset) % num_nodes
            builder.add_edge(node, target)
    return builder.build(name=name)


def stochastic_block_model(
    block_sizes: Sequence[int],
    within_probability: float,
    between_probability: float,
    rng: RngLike = None,
    name: str = "sbm",
) -> CSRGraph:
    """Stochastic block model with uniform within/between edge probabilities.

    Node ids are assigned block by block, so the block label of node ``v`` is
    recoverable as ``numpy.repeat(numpy.arange(len(block_sizes)), block_sizes)[v]``.
    """
    if not block_sizes:
        raise ValueError("block_sizes must be non-empty")
    within_probability = check_probability(within_probability, "within_probability")
    between_probability = check_probability(between_probability, "between_probability")
    generator = ensure_rng(rng)
    num_nodes = int(sum(block_sizes))
    builder = GraphBuilder(num_nodes=num_nodes)

    # Sample edges block-pair by block-pair using expected counts.
    offsets = np.concatenate([[0], np.cumsum(block_sizes)])
    for i in range(len(block_sizes)):
        for j in range(i, len(block_sizes)):
            probability = within_probability if i == j else between_probability
            if probability == 0:
                continue
            size_i, size_j = block_sizes[i], block_sizes[j]
            pairs = size_i * size_j if i != j else size_i * (size_i - 1) // 2
            expected = int(round(pairs * probability))
            if expected == 0:
                continue
            sources = offsets[i] + generator.integers(0, size_i, size=expected)
            targets = offsets[j] + generator.integers(0, size_j, size=expected)
            keep = sources != targets
            builder.add_edges(np.column_stack([sources[keep], targets[keep]]))
    return builder.build(name=name)


def powerlaw_cluster_graph(
    num_nodes: int,
    attachment: int,
    triangle_probability: float,
    rng: RngLike = None,
    name: str = "powerlaw-cluster",
) -> CSRGraph:
    """Holme–Kim power-law graph with tunable clustering.

    Like Barabási–Albert, but after each preferential attachment step a
    triangle is closed with probability ``triangle_probability``, giving the
    community-like clustering seen in social and co-purchase networks.
    """
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    attachment = check_positive_int(attachment, "attachment")
    triangle_probability = check_probability(triangle_probability, "triangle_probability")
    if attachment >= num_nodes:
        raise ValueError("attachment must be smaller than num_nodes")
    repeated: list[int] = []  # every edge's endpoints, in the order added
    neighbors: list[list[int]] = [[] for _ in range(num_nodes)]

    def _connect(u: int, v: int) -> None:
        repeated.extend((u, v))
        neighbors[u].append(v)
        neighbors[v].append(u)

    for node in range(1, attachment + 1):
        _connect(0, node)

    with PCG64Draws(rng) as draws:
        random, integers = draws.random, draws.integers
        for node in range(attachment + 1, num_nodes):
            added: set[int] = set()
            target = repeated[integers(0, len(repeated))]
            _connect(node, target)
            added.add(target)
            while len(added) < attachment:
                if neighbors[target] and random() < triangle_probability:
                    candidate = neighbors[target][integers(0, len(neighbors[target]))]
                else:
                    candidate = repeated[integers(0, len(repeated))]
                if candidate == node or candidate in added:
                    candidate = repeated[integers(0, len(repeated))]
                    if candidate == node or candidate in added:
                        continue
                _connect(node, candidate)
                added.add(candidate)
                target = candidate
    return _edge_list_graph(num_nodes, repeated, name)


def citation_graph(
    num_nodes: int,
    average_degree: float,
    rng: RngLike = None,
    name: str = "citation",
) -> CSRGraph:
    """Citation-network-like graph (citeseer / cora / pubmed regime).

    Citation graphs are sparse (average degree 2–5), mildly skewed and contain
    many low-degree leaves.  We model them as a union of a random tree-like
    backbone (every paper cites at least one earlier paper) and extra
    preferential citations, Poisson with mean ``(average_degree - 2) / 2``
    per paper; ``average_degree`` must be below 22, where that mean stays in
    the range :meth:`PCG64Draws.poisson` serves.

    Every draw comes from :class:`~repro.utils.rng.PCG64Draws`, so the graph
    equals the one the same ``Generator.random`` / ``integers`` / ``poisson``
    calls would build.
    """
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    if not 0 < average_degree < 22:
        raise ValueError(f"average_degree must be in (0, 22), got {average_degree}")
    repeated: list[int] = [0]  # node 0, then every edge's endpoints in order
    extra_probability = max(0.0, (average_degree - 2.0) / 2.0)
    poisson_limit = math.exp(-extra_probability)
    # Per node, in this order: random() chooses the backbone's pool,
    # integers() picks its target, poisson(extra_probability) counts the
    # extra citations and one integers() picks each from ``repeated``.
    # PCG64Draws' methods are decoded inline here, saving a method call per
    # draw on the stand-ins' hottest loop; tests hold the graphs to the
    # native calls.
    with PCG64Draws(rng) as draws:
        words, pos, has_half, half = draws.cursor()
        for node in range(1, num_nodes):
            if pos == len(words):
                words, pos = draws.refill(), 0
            # Backbone citation: mostly one of the last 50 papers,
            # occasionally a classic picked preferentially.
            if (words[pos] >> 11) * DOUBLE_UNIT < 0.5:
                low, pool = (node - 50 if node > 50 else 0), None
            else:
                low, pool = 0, repeated
            pos += 1
            extra = -1  # the backbone's pick comes before the Poisson draw
            while True:
                n = node - low if pool is None else len(pool)
                pick = 0
                while n > 1:  # integers(0, n): Lemire on buffered 32-bit halves
                    if has_half:
                        has_half = False
                        product = half * n
                    else:
                        if pos == len(words):
                            words, pos = draws.refill(), 0
                        word = words[pos]
                        pos += 1
                        half = word >> 32
                        has_half = True
                        product = (word & MASK32) * n
                    leftover = product & MASK32
                    if leftover >= n or leftover >= ((1 << 32) - n) % n:
                        pick = product >> 32
                        break
                target = low + pick if pool is None else pool[pick]
                if target != node:  # always true for the backbone's earlier paper
                    repeated += (node, target)
                if extra < 0:
                    # Extra citations with small probability, keeping the
                    # graph sparse: poisson() multiplies uniforms down to
                    # exp(-lam), and poisson(0) draws nothing.
                    extra, product = 0, 1.0
                    while extra_probability:
                        if pos == len(words):
                            words, pos = draws.refill(), 0
                        product *= (words[pos] >> 11) * DOUBLE_UNIT
                        pos += 1
                        if product <= poisson_limit:
                            break
                        extra += 1
                    low, pool = 0, repeated
                if not extra:
                    break
                extra -= 1
        draws.seek(pos, has_half, half)
    del repeated[0]  # node 0's entry, not an edge
    return _edge_list_graph(num_nodes, repeated, name)


def community_graph(
    num_nodes: int,
    average_degree: float,
    triangle_probability: float = 0.6,
    rng: RngLike = None,
    name: str = "community",
) -> CSRGraph:
    """Social / co-purchase style graph (com-amazon, com-dblp, com-youtube).

    A Holme–Kim power-law cluster graph whose attachment parameter is derived
    from the requested average degree.  Produces heavy-tailed degrees with
    local clustering, the regime where the paper observes the largest memory
    savings.
    """
    attachment = max(1, int(round(average_degree / 2.0)))
    return powerlaw_cluster_graph(
        num_nodes=num_nodes,
        attachment=attachment,
        triangle_probability=triangle_probability,
        rng=rng,
        name=name,
    )
