"""Input generators: everything a workload feeds the program comes from here.

Each generator is a pure function of ``--seed`` (plus the frozen sizes in
:mod:`spec`), so the same seed gives the same inputs; the program under test
only ever sees the generated query lists, arrival schedule and update
script.  :func:`digest` stamps them into the result.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Set, Tuple

import numpy as np

from . import spec

__all__ = [
    "digest",
    "hot_seeds",
    "zipf_stream",
    "cold_draw",
    "uniform_seeds",
    "update_script",
    "arrival_schedule",
]

# One sub-stream per purpose, so adding a generator never shifts another.
_STREAMS = {"hot": 1, "zipf": 2, "cold": 3, "updates": 4, "arrivals": 5, "tail": 6,
            "uniform": 7}


def _rng(seed: int, purpose: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), _STREAMS[purpose]])


def digest(inputs: object) -> str:
    """SHA-256 of the canonical JSON form of generated inputs."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _eligible(degrees: np.ndarray) -> np.ndarray:
    # A PPR query from an isolated node is trivially its own answer.
    (eligible,) = np.nonzero(np.asarray(degrees) >= 1)
    return eligible


def hot_seeds(degrees: np.ndarray, count: int = spec.HOT_SEEDS) -> List[int]:
    """The ``count`` hot seeds, in popularity-rank order.

    Frozen: drawn with a constant, not with ``--seed``.  The head of a
    Zipf(1.1) ranking carries a third of the traffic in three seeds, and a
    G1 answer costs anything from a fifth to twice the mean to compute and
    to encode, so a hot set redrawn per seed moved ``qps`` by +-20 % between
    seeds while the same seed repeated within 7 %.  ``--seed`` draws the
    stream over this set instead.
    """
    eligible = _eligible(degrees)
    picks = _rng(spec.DEFAULT_SEED, "hot").choice(
        eligible, size=min(count, eligible.size), replace=False
    )
    return [int(node) for node in picks]


def zipf_stream(
    degrees: np.ndarray,
    seed: int,
    length: int = spec.STREAM_LENGTH,
    skew: float = spec.ZIPF_SKEW,
) -> List[int]:
    """A Zipf(``skew``) stream of ``length`` draws over the hot seeds."""
    hot = hot_seeds(degrees)
    weights = np.arange(1, len(hot) + 1, dtype=np.float64) ** -float(skew)
    weights /= weights.sum()
    picks = _rng(seed, "zipf").choice(len(hot), size=length, p=weights)
    return [hot[int(pick)] for pick in picks]


def uniform_seeds(degrees: np.ndarray, seed: int, count: int) -> List[int]:
    """``count`` distinct uniformly drawn seeds (smoke scale, backend rows)."""
    eligible = _eligible(degrees)
    picks = _rng(seed, "uniform").choice(eligible, size=min(count, eligible.size), replace=False)
    return [int(node) for node in picks]


# ----------------------------------------------------------------------
# cold_wide: a stratified draw from the frozen G3 panel
# ----------------------------------------------------------------------
def load_cold_pool() -> Dict[str, object]:
    """The frozen panel: uniformly sampled G3 nodes with their exact
    score-table eviction counts at the paper's defaults (see README.md)."""
    path = os.path.join(os.path.dirname(__file__), "cold_pool.json")
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def cold_draw(pool: Dict[str, object], seed: int) -> List[Tuple[int, int]]:
    """One ``(node, evictions)`` per frozen eviction level, drawn by ``seed``.

    A query's cost is set by how often the bounded table evicts, and over
    uniformly drawn seeds that count spans three orders of magnitude, so a
    plain sample of a dozen seeds would make run time depend on the seed
    more than on the code.  Each level instead names a narrow band of
    eviction counts; the seed picks which panel node of that band is
    queried.  Every seed therefore issues different queries with the same
    cost profile.
    """
    rng = _rng(seed, "cold")
    drawn: List[Tuple[int, int]] = []
    used: Set[int] = set()
    for low, high in pool["bands"]:
        members = [
            (int(node), int(evictions))
            for node, evictions in pool["nodes"]
            if low <= evictions <= high and int(node) not in used
        ]
        if not members:
            raise ValueError(f"cold pool has no unused node in band [{low}, {high}]")
        node, evictions = members[int(rng.integers(0, len(members)))]
        used.add(node)
        drawn.append((node, evictions))
    return drawn


# ----------------------------------------------------------------------
# churn_mixed: the update script
# ----------------------------------------------------------------------
def update_script(
    num_nodes: int,
    edges: Set[Tuple[int, int]],
    num_queries: int = spec.STREAM_LENGTH,
    every: int = spec.UPDATE_EVERY,
    inserts: int = spec.UPDATE_INSERTS,
) -> List[List[Tuple[str, int, int]]]:
    """One op batch per ``every`` queries; applying them all is a no-op.

    Update ``i`` inserts ``inserts`` fresh non-edges and deletes the ones
    update ``i - 1`` inserted, so ``|E|`` is stationary; a final batch
    deletes the last inserts, which returns the graph to its base topology
    and lets a pass be repeated.  ``edges`` is the base graph's edge set as
    ``(u < v)`` pairs.

    Frozen like the hot set, and for the same reason: whether an inserted
    edge lands within three hops of a top-ranked hot seed decides how much of
    the cache an update drops, and redrawing the script per seed moved
    ``qps`` by +-14 %.  ``--seed`` draws which queries fall between updates.
    """
    rng = _rng(spec.DEFAULT_SEED, "updates")
    steps = max(1, (num_queries - 1) // every)
    script: List[List[Tuple[str, int, int]]] = []
    previous: List[Tuple[int, int]] = []
    for _ in range(steps):
        fresh: List[Tuple[int, int]] = []
        while len(fresh) < inserts:
            u, v = (int(x) for x in rng.integers(0, num_nodes, size=2))
            pair = (min(u, v), max(u, v))
            if u == v or pair in edges or pair in fresh or pair in previous:
                continue
            fresh.append(pair)
        batch = [("insert", u, v) for u, v in fresh]
        batch += [("delete", u, v) for u, v in previous]
        script.append(batch)
        previous = fresh
    script.append([("delete", u, v) for u, v in previous])
    return script


# ----------------------------------------------------------------------
# open_routed: the arrival schedule
# ----------------------------------------------------------------------
def arrival_schedule(
    degrees: np.ndarray,
    seed: int,
    rate_qps: float,
    seconds: float,
    cold_share: float = spec.COLD_SHARE,
) -> List[Tuple[float, int]]:
    """Poisson arrivals ``(due_seconds, seed)`` at ``rate_qps`` over ``seconds``.

    Exactly ``rate_qps * seconds`` arrivals, at sorted uniform times: a
    Poisson process given its count, so every seed offers the same load with
    different bursts.  Each arrival is a Zipf hot seed with probability
    ``1 - cold_share`` and otherwise a never-repeated seed from outside the
    hot set.
    """
    count = max(1, int(round(rate_qps * seconds)))
    rng = _rng(seed, "arrivals")
    due = np.sort(rng.random(count)) * float(seconds)
    hot = hot_seeds(degrees)
    weights = np.arange(1, len(hot) + 1, dtype=np.float64) ** -float(spec.ZIPF_SKEW)
    weights /= weights.sum()
    hot_picks = rng.choice(len(hot), size=count, p=weights)
    # Exactly the stated share is cold; the seed decides which arrivals.
    is_cold = np.zeros(count, dtype=bool)
    is_cold[rng.permutation(count)[: int(round(cold_share * count))]] = True
    hot_set = set(hot)
    tail = [int(n) for n in _eligible(degrees) if int(n) not in hot_set]
    tail_order = _rng(seed, "tail").permutation(len(tail))
    schedule: List[Tuple[float, int]] = []
    next_cold = 0
    for index in range(count):
        if is_cold[index] and next_cold < len(tail):
            node = tail[int(tail_order[next_cold])]
            next_cold += 1
        else:
            node = hot[int(hot_picks[index])]
        schedule.append((float(due[index]), node))
    return schedule


def edge_set(graph) -> Set[Tuple[int, int]]:
    """A graph's undirected edge set as canonical ``(u < v)`` pairs."""
    sources = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), graph.degrees())
    targets = graph.indices.astype(np.int64)
    mask = sources < targets
    return set(zip(sources[mask].tolist(), targets[mask].tolist()))
