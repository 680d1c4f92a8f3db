"""Workload definitions shared by all experiments.

The paper evaluates every experiment with ``k = 200``, ``L = 6`` and
``l1 = l2 = 3``, averaging over randomly chosen seed nodes (1000 seeds for
Fig. 6, 500 for Fig. 7).  This module centralises those choices, the seed
sampling, and the per-graph workload records so every benchmark uses exactly
the same queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_dataset
from repro.ppr.base import PPRQuery
from repro.utils.rng import RngLike, ensure_rng

__all__ = [
    "PAPER_K",
    "PAPER_LENGTH",
    "PAPER_STAGE_SPLIT",
    "Workload",
    "OpenLoopWorkload",
    "make_workload",
    "make_repeated_seed_workload",
    "make_poisson_arrivals",
    "make_open_loop_workload",
]

#: k, L and the stage split fixed for all of the paper's experiments (Sec. VI).
PAPER_K = 200
PAPER_LENGTH = 6
PAPER_STAGE_SPLIT: Tuple[int, int] = (3, 3)
PAPER_ALPHA = 0.85


@dataclass(frozen=True)
class Workload:
    """A graph plus the set of queries an experiment runs on it.

    Attributes
    ----------
    dataset:
        Dataset key or name the graph was loaded from.
    graph:
        The loaded (stand-in) graph.
    queries:
        The PPR queries, one per sampled seed node.
    """

    dataset: str
    graph: CSRGraph
    queries: Tuple[PPRQuery, ...]

    @property
    def num_queries(self) -> int:
        """Number of queries in the workload."""
        return len(self.queries)


def sample_seeds(
    graph: CSRGraph,
    num_seeds: int,
    rng: RngLike = None,
    min_degree: int = 1,
) -> np.ndarray:
    """Sample ``num_seeds`` distinct seed nodes with degree >= ``min_degree``.

    Degree-0 nodes are excluded because a PPR query from an isolated node is
    trivially its own answer (and the paper's graphs have none).
    """
    if num_seeds <= 0:
        raise ValueError(f"num_seeds must be > 0, got {num_seeds}")
    generator = ensure_rng(rng)
    degrees = graph.degrees()
    (eligible,) = np.nonzero(degrees >= min_degree)
    if eligible.size == 0:
        raise ValueError("graph has no node satisfying the degree constraint")
    count = min(num_seeds, eligible.size)
    return generator.choice(eligible, size=count, replace=False)


def make_workload(
    dataset: str,
    num_seeds: int = 20,
    k: int = PAPER_K,
    length: int = PAPER_LENGTH,
    alpha: float = PAPER_ALPHA,
    rng: RngLike = None,
    scale: Optional[float] = None,
    graph: Optional[CSRGraph] = None,
) -> Workload:
    """Build a workload for one paper dataset (or a user-provided graph).

    Parameters
    ----------
    dataset:
        Dataset key (``"G1"``..) or name; ignored when ``graph`` is given
        except as a label.
    num_seeds:
        Number of random seed nodes to query.  The paper uses 500–1000; the
        default is lower so test/bench runs stay fast — pass the full count to
        reproduce the paper's averaging exactly.
    k, length, alpha:
        Query parameters (paper defaults).
    rng:
        Seed sampling randomness (deterministic by default).
    scale:
        Optional dataset down-scaling factor.
    graph:
        Optional pre-loaded graph (skips :func:`load_dataset`).
    """
    loaded = graph if graph is not None else load_dataset(dataset, scale=scale)
    seeds = sample_seeds(loaded, num_seeds, rng=rng)
    queries = tuple(
        PPRQuery(seed=int(seed), k=k, alpha=alpha, length=length) for seed in seeds
    )
    return Workload(dataset=dataset, graph=loaded, queries=queries)


def make_repeated_seed_workload(
    dataset: str,
    num_seeds: int,
    repeat_factor: int,
    k: int,
    rng: RngLike = None,
) -> Tuple[CSRGraph, List[PPRQuery]]:
    """Hot-seed serving workload: each sampled seed queried ``repeat_factor``
    times, shuffled the way real repeated traffic arrives (not seed-sorted
    blocks).  ``bench_tracing`` times its traced and untraced passes on
    it.
    """
    workload = make_workload(
        dataset,
        num_seeds=num_seeds,
        k=k,
        length=PAPER_LENGTH,
        alpha=PAPER_ALPHA,
        rng=rng,
    )
    queries = [query for query in workload.queries for _ in range(repeat_factor)]
    generator = ensure_rng(rng)
    order = generator.permutation(len(queries))
    return workload.graph, [queries[index] for index in order]


@dataclass(frozen=True)
class OpenLoopWorkload:
    """An arrival-timed workload for online (latency-under-load) studies.

    Unlike the closed-loop batches above, an open-loop source submits query
    ``i`` at ``arrival_seconds[i]`` regardless of whether earlier queries
    have finished — which is what makes overload (and admission control)
    observable.  Arrival times are stored at **unit rate** (1 query/s on
    average); dividing them by an offered rate replays the identical query
    sequence at that rate, so every rate in a sweep sees the same stream.
    """

    dataset: str
    graph: CSRGraph
    queries: Tuple[PPRQuery, ...]
    arrival_seconds: Tuple[float, ...]


def make_poisson_arrivals(
    num_arrivals: int, rate_qps: float = 1.0, rng: RngLike = None
) -> np.ndarray:
    """Arrival times of a Poisson process: exponential gaps at ``rate_qps``.

    The memoryless arrival process is the standard open-loop traffic model;
    its bursts (several arrivals inside one mean gap) are exactly what
    micro-batching exploits and admission control must survive.
    """
    if num_arrivals <= 0:
        raise ValueError(f"num_arrivals must be > 0, got {num_arrivals}")
    if rate_qps <= 0:
        raise ValueError(f"rate_qps must be > 0, got {rate_qps}")
    generator = ensure_rng(rng)
    gaps = generator.exponential(scale=1.0 / rate_qps, size=num_arrivals)
    return np.cumsum(gaps)


def make_open_loop_workload(
    dataset: str,
    num_seeds: int,
    num_arrivals: int,
    k: int = PAPER_K,
    rng: RngLike = None,
    graph: Optional[CSRGraph] = None,
) -> OpenLoopWorkload:
    """Build a Poisson-timed hot-seed workload for the online serving studies.

    Each arrival queries a seed drawn (with replacement) from a pool of
    ``num_seeds`` hot seeds, so repeats occur the way production traffic
    repeats — which gives the frontend's dedup and the engine's caches
    something to work with.  Arrival times are unit-rate Poisson.
    """
    workload = make_workload(
        dataset,
        num_seeds=num_seeds,
        k=k,
        length=PAPER_LENGTH,
        alpha=PAPER_ALPHA,
        rng=rng,
        graph=graph,
    )
    generator = ensure_rng(rng)
    picks = generator.integers(0, len(workload.queries), size=num_arrivals)
    queries = tuple(workload.queries[int(pick)] for pick in picks)
    arrivals = make_poisson_arrivals(num_arrivals, rate_qps=1.0, rng=generator)
    return OpenLoopWorkload(
        dataset=dataset,
        graph=workload.graph,
        queries=queries,
        arrival_seconds=tuple(float(time) for time in arrivals),
    )
