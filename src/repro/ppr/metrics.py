"""Quality metrics for approximate PPR results.

The paper's headline quality metric is *precision* (Sec. II, "Measurement"):

    ``Prec(s, k) = |{v : v in T_hat(s, k) and v in T(s, k)}| / k``

where ``T(s, k)`` is the accurate top-k node set and ``T_hat`` the
approximation.
"""

from __future__ import annotations

from typing import Iterable

from repro.ppr.base import PPRResult

__all__ = ["precision_at_k", "result_precision"]


def precision_at_k(approximate: Iterable[int], exact: Iterable[int], k: int) -> float:
    """Top-k precision between an approximate and an exact node ranking.

    Parameters
    ----------
    approximate, exact:
        Node id sequences ranked by descending score; only their first ``k``
        entries are considered.
    k:
        The ``k`` of the query.
    """
    if k <= 0:
        raise ValueError(f"k must be > 0, got {k}")
    approx_set = set(list(approximate)[:k])
    exact_set = set(list(exact)[:k])
    if not exact_set:
        return 1.0 if not approx_set else 0.0
    return len(approx_set & exact_set) / float(k)


def result_precision(approximate: PPRResult, exact: PPRResult, k: int | None = None) -> float:
    """Precision between two :class:`PPRResult` objects (defaults to query ``k``)."""
    if k is None:
        k = approximate.query.k
    return precision_at_k(approximate.top_k_nodes(k), exact.top_k_nodes(k), k)
