"""Deterministic random-number handling.

Every stochastic component of the library (graph generators, seed sampling,
Monte Carlo walks) accepts either an integer seed, an existing
``numpy.random.Generator`` or ``None``.  :func:`ensure_rng` normalises the
three forms so call sites never touch global NumPy state.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]

#: Seed used when the caller passes ``None``.  Fixed so that "no seed" still
#: produces reproducible experiments, which the benchmark harness relies on.
DEFAULT_SEED = 20210421


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for any accepted seed form.

    Parameters
    ----------
    rng:
        ``None`` (use :data:`DEFAULT_SEED`), an integer seed, or an existing
        generator (returned unchanged).
    """
    if rng is None:
        return np.random.default_rng(DEFAULT_SEED)
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        return np.random.default_rng(int(rng))
    raise TypeError(
        "rng must be None, an int seed or a numpy.random.Generator, "
        f"got {type(rng).__name__}"
    )

