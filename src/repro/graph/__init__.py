"""Graph substrate: CSR graphs, builders, generators, datasets, BFS, sub-graphs."""

from repro.graph.bfs import (
    BFSResult,
    EgoWave,
    bfs_levels,
    expand_frontier,
    extract_ego_subgraph,
    extract_wave,
)
from repro.graph.builder import GraphBuilder
from repro.graph.csr import CSRGraph
from repro.graph.datasets import (
    PAPER_DATASETS,
    DatasetSpec,
    get_spec,
    load_dataset,
    load_paper_suite,
)
from repro.graph.generators import (
    barabasi_albert_graph,
    citation_graph,
    community_graph,
    erdos_renyi_graph,
    powerlaw_cluster_graph,
    stochastic_block_model,
    watts_strogatz_graph,
)
from repro.graph.delta import (
    DeltaGraph,
    min_hop_distances,
    normalize_edge_ops,
    update_distance_bound,
    update_reach_bound,
)
from repro.graph.subgraph import Subgraph

__all__ = [
    "BFSResult",
    "EgoWave",
    "bfs_levels",
    "expand_frontier",
    "extract_ego_subgraph",
    "extract_wave",
    "GraphBuilder",
    "CSRGraph",
    "PAPER_DATASETS",
    "DatasetSpec",
    "get_spec",
    "load_dataset",
    "load_paper_suite",
    "barabasi_albert_graph",
    "citation_graph",
    "community_graph",
    "erdos_renyi_graph",
    "powerlaw_cluster_graph",
    "stochastic_block_model",
    "watts_strogatz_graph",
    "DeltaGraph",
    "min_hop_distances",
    "normalize_edge_ops",
    "update_distance_bound",
    "update_reach_bound",
    "Subgraph",
]
