"""Stand-ins for the six SNAP graphs used in the paper (Table II).

The paper evaluates on:

=====  ============  =========  =========
Id     Name          |V|        |E|
=====  ============  =========  =========
G1     citeseer      3,327      4,676
G2     cora          2,708      5,278
G3     pubmed        19,717     44,327
G4     com-amazon    334,863    925,872
G5     com-dblp      317,080    1,049,866
G6     com-youtube   1,134,890  2,987,624
=====  ============  =========  =========

SNAP downloads are unavailable offline, so this module generates synthetic
stand-ins with the same node counts and average degrees for G1–G3 and scaled
versions of G4–G6 (the full graphs would make the Python test suite take
hours; the *shape* of every reported trend depends on average degree and
degree-tail behaviour, which the scaled stand-ins preserve).  The scale factor
can be overridden per call for users who want the full sizes.

Every stand-in is deterministic: the generator seed is derived from the
dataset name (``crc32`` of it), and the generators read every draw from that
seed's PCG64 raw stream through :class:`~repro.utils.rng.PCG64Draws`, which
decodes the values NumPy's scalar ``random`` / ``integers`` / ``poisson``
would return.  NEP 19 keeps raw streams stable across NumPy versions, so the
graphs are too; ``tests/test_graph_datasets.py`` pins each one's fingerprint.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Optional

from repro.graph.csr import CSRGraph
from repro.graph.generators import citation_graph, community_graph

__all__ = [
    "DatasetSpec",
    "PAPER_DATASETS",
    "load_dataset",
    "load_paper_suite",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one paper dataset and how its stand-in is generated.

    Attributes
    ----------
    key:
        Short id used in the paper (``"G1"`` .. ``"G6"``).
    name:
        Dataset name (``"citeseer"`` etc.).
    num_nodes, num_edges:
        The sizes reported in Table II of the paper.
    family:
        ``"citation"`` or ``"community"``; selects the generator.
    default_scale:
        Default down-scaling factor applied to ``num_nodes`` when the stand-in
        is generated (1.0 keeps the paper's size).
    """

    key: str
    name: str
    num_nodes: int
    num_edges: int
    family: str
    default_scale: float = 1.0

    @property
    def average_degree(self) -> float:
        """Average degree ``2|E| / |V|`` of the original dataset."""
        return 2.0 * self.num_edges / self.num_nodes

    def scaled_num_nodes(self, scale: Optional[float] = None) -> int:
        """Node count of the stand-in for a given (or the default) scale."""
        factor = self.default_scale if scale is None else scale
        if factor <= 0 or factor > 1:
            raise ValueError(f"scale must be in (0, 1], got {factor}")
        return max(64, int(round(self.num_nodes * factor)))


#: The six datasets of Table II, in paper order.  G4–G6 default to scaled
#: stand-ins (see module docstring).
PAPER_DATASETS: Dict[str, DatasetSpec] = {
    "G1": DatasetSpec("G1", "citeseer", 3_327, 4_676, "citation", 1.0),
    "G2": DatasetSpec("G2", "cora", 2_708, 5_278, "citation", 1.0),
    "G3": DatasetSpec("G3", "pubmed", 19_717, 44_327, "citation", 1.0),
    "G4": DatasetSpec("G4", "com-amazon", 334_863, 925_872, "community", 0.06),
    "G5": DatasetSpec("G5", "com-dblp", 317_080, 1_049_866, "community", 0.06),
    "G6": DatasetSpec("G6", "com-youtube", 1_134_890, 2_987_624, "community", 0.02),
}

#: Lookup by dataset name as well as by key.
_BY_NAME = {spec.name: spec for spec in PAPER_DATASETS.values()}


def _seed_for(name: str) -> int:
    """Stable per-dataset seed derived from the dataset name."""
    return zlib.crc32(name.encode("utf-8")) & 0x7FFFFFFF


def get_spec(dataset: str) -> DatasetSpec:
    """Return the :class:`DatasetSpec` for a key (``"G1"``) or name (``"cora"``)."""
    if dataset in PAPER_DATASETS:
        return PAPER_DATASETS[dataset]
    if dataset in _BY_NAME:
        return _BY_NAME[dataset]
    raise KeyError(
        f"unknown dataset {dataset!r}; expected one of "
        f"{sorted(PAPER_DATASETS) + sorted(_BY_NAME)}"
    )


def load_dataset(dataset: str, scale: Optional[float] = None) -> CSRGraph:
    """Generate the stand-in graph for one paper dataset.

    Parameters
    ----------
    dataset:
        Dataset key (``"G1"``..``"G6"``) or name (``"citeseer"`` etc.).
    scale:
        Optional down-scaling factor in ``(0, 1]`` applied to the node count.
        Defaults to the spec's ``default_scale``.

    Returns
    -------
    CSRGraph
        A deterministic synthetic graph named after the dataset.
    """
    spec = get_spec(dataset)
    num_nodes = spec.scaled_num_nodes(scale)
    seed = _seed_for(spec.name)
    if spec.family == "citation":
        graph = citation_graph(
            num_nodes=num_nodes,
            average_degree=spec.average_degree,
            rng=seed,
            name=spec.name,
        )
    else:
        graph = community_graph(
            num_nodes=num_nodes,
            average_degree=spec.average_degree,
            rng=seed,
            name=spec.name,
        )
    return graph


def load_paper_suite(
    scale: Optional[float] = None, small_only: bool = False
) -> Dict[str, CSRGraph]:
    """Load the whole Table II suite as ``{key: graph}``.

    Parameters
    ----------
    scale:
        Optional override applied to every dataset.  ``None`` keeps each
        dataset's default scale.
    small_only:
        When true, only G1–G3 (the graphs used in Fig. 5 and Fig. 6) are
        loaded, which keeps quick experiments fast.
    """
    keys = ["G1", "G2", "G3"] if small_only else list(PAPER_DATASETS)
    return {key: load_dataset(key, scale=scale) for key in keys}
