"""Seed counts and dataset subsets for the experiment harness's two profiles.

Kept apart from :mod:`repro.experiments.harness` so the package can re-export
them without importing the harness, which also runs as
``python -m repro.experiments.harness``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["ExperimentProfile", "QUICK_PROFILE", "PAPER_PROFILE"]


@dataclass(frozen=True)
class ExperimentProfile:
    """Seed counts and dataset subsets used by :func:`repro.experiments.harness.main`.

    Attributes
    ----------
    name:
        Profile name (``"quick"`` or ``"paper"``).
    num_seeds_small, num_seeds_large:
        Seed counts for the small (G1–G3) and large (G4–G6) graphs.
    memory_datasets, tradeoff_datasets:
        Dataset keys used by the Table II and Fig. 7 sweeps.
    """

    name: str
    num_seeds_small: int
    num_seeds_large: int
    memory_datasets: Tuple[str, ...]
    tradeoff_datasets: Tuple[str, ...]


QUICK_PROFILE = ExperimentProfile(
    name="quick",
    num_seeds_small=5,
    num_seeds_large=3,
    memory_datasets=("G1", "G2", "G3", "G4", "G5", "G6"),
    tradeoff_datasets=("G1", "G2", "G3", "G4", "G5", "G6"),
)

PAPER_PROFILE = ExperimentProfile(
    name="paper",
    num_seeds_small=50,
    num_seeds_large=20,
    memory_datasets=("G1", "G2", "G3", "G4", "G5", "G6"),
    tradeoff_datasets=("G1", "G2", "G3", "G4", "G5", "G6"),
)
