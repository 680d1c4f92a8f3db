"""Graph substrate: CSR graphs, builders, generators, datasets, BFS, sub-graphs."""

from repro.graph.bfs import (
    BFSResult,
    bfs_frontier_sizes,
    bfs_levels,
    expand_frontier,
    extract_ego_subgraph,
    extract_ego_subgraphs,
)
from repro.graph.builder import GraphBuilder
from repro.graph.csr import CSRGraph
from repro.graph.datasets import (
    PAPER_DATASETS,
    DatasetSpec,
    dataset_names,
    get_spec,
    load_dataset,
    load_paper_suite,
)
from repro.graph.generators import (
    barabasi_albert_graph,
    citation_graph,
    community_graph,
    configuration_model_graph,
    erdos_renyi_graph,
    powerlaw_cluster_graph,
    stochastic_block_model,
    watts_strogatz_graph,
)
from repro.graph.delta import (
    DEFAULT_REGION_SIZE,
    DeltaGraph,
    min_hop_distances,
    normalize_edge_ops,
    update_distance_bound,
    update_reach_bound,
)
from repro.graph.io import read_edge_list, read_snap_graph, write_edge_list
from repro.graph.partition import (
    DEFAULT_HALO_DEPTH,
    PARTITIONERS,
    GraphPartition,
    GraphShard,
    degree_balanced_partition,
    hash_partition,
    partition_graph,
    patch_partition,
    range_partition,
)
from repro.graph.stats import GraphStats, compute_stats, degree_histogram
from repro.graph.subgraph import Subgraph

__all__ = [
    "BFSResult",
    "bfs_frontier_sizes",
    "bfs_levels",
    "expand_frontier",
    "extract_ego_subgraph",
    "extract_ego_subgraphs",
    "GraphBuilder",
    "CSRGraph",
    "PAPER_DATASETS",
    "DatasetSpec",
    "dataset_names",
    "get_spec",
    "load_dataset",
    "load_paper_suite",
    "barabasi_albert_graph",
    "citation_graph",
    "community_graph",
    "configuration_model_graph",
    "erdos_renyi_graph",
    "powerlaw_cluster_graph",
    "stochastic_block_model",
    "watts_strogatz_graph",
    "DEFAULT_REGION_SIZE",
    "DeltaGraph",
    "min_hop_distances",
    "normalize_edge_ops",
    "update_distance_bound",
    "update_reach_bound",
    "read_edge_list",
    "read_snap_graph",
    "write_edge_list",
    "DEFAULT_HALO_DEPTH",
    "PARTITIONERS",
    "GraphPartition",
    "GraphShard",
    "degree_balanced_partition",
    "hash_partition",
    "partition_graph",
    "patch_partition",
    "range_partition",
    "GraphStats",
    "compute_stats",
    "degree_histogram",
    "Subgraph",
]
