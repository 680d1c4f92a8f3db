"""Shared utilities: validation helpers, RNG handling, timing."""

from repro.utils.rng import ensure_rng
from repro.utils.timing import TimingBreakdown
from repro.utils.validation import (
    check_node_id,
    check_non_negative,
    check_probability,
)

__all__ = [
    "ensure_rng",
    "TimingBreakdown",
    "check_node_id",
    "check_non_negative",
    "check_probability",
]
