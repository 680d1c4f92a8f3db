"""Small argument-validation helpers shared across the library.

These helpers raise ``ValueError``/``TypeError`` with consistent messages so
that every public entry point reports bad arguments the same way.  They are
deliberately tiny: validation failures should read like plain English.
"""

from __future__ import annotations

import numbers
from typing import Any


def check_non_negative(value: Any, name: str) -> float:
    """Return ``value`` if it is a non-negative real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return float(value)


def check_probability(value: Any, name: str) -> float:
    """Return ``value`` if it lies in the closed interval ``[0, 1]``."""
    value = check_non_negative(value, name)
    if value > 1:
        raise ValueError(f"{name} must be <= 1, got {value!r}")
    return value


def check_node_id(node: Any, num_nodes: int, name: str = "node") -> int:
    """Return ``node`` as an ``int`` if it is a valid node index.

    Node indices are contiguous integers in ``[0, num_nodes)``.
    """
    if isinstance(node, bool) or not isinstance(node, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(node).__name__}")
    node = int(node)
    if node < 0 or node >= num_nodes:
        raise ValueError(
            f"{name} {node} is out of range for a graph with {num_nodes} nodes"
        )
    return node


def check_positive_int(value: Any, name: str) -> int:
    """Return ``value`` if it is a strictly positive integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return int(value)


def check_non_negative_int(value: Any, name: str) -> int:
    """Return ``value`` if it is a non-negative integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return int(value)
