"""Edge-list I/O in the SNAP text format.

The paper's datasets are distributed by SNAP as whitespace-separated edge
lists with ``#`` comment lines.  These functions read and write that format so
that users with the real datasets can drop them straight into the
reproduction.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.graph.builder import GraphBuilder
from repro.graph.csr import CSRGraph

__all__ = ["read_edge_list", "write_edge_list", "read_snap_graph"]

PathLike = Union[str, Path]


def _open_text(path: Path, mode: str):
    """Open ``path`` as text, transparently handling ``.gz`` files."""
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t")
    return open(path, mode)


def read_edge_list(
    path: PathLike,
    comment: str = "#",
    relabel: bool = True,
    name: Optional[str] = None,
) -> CSRGraph:
    """Read an undirected graph from a whitespace-separated edge list.

    Parameters
    ----------
    path:
        File path; ``.gz`` files are decompressed on the fly.
    comment:
        Lines starting with this prefix are skipped.
    relabel:
        When true (default), arbitrary integer node ids are relabelled to the
        contiguous range ``0..n-1`` by ascending original id (the smallest id
        becomes 0) — SNAP files use sparse ids.  When false, ids are used
        as-is and must already be contiguous.
    name:
        Graph name; defaults to the file stem.

    Returns
    -------
    CSRGraph
    """
    path = Path(path)
    sources: list[int] = []
    targets: list[int] = []
    with _open_text(path, "r") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith(comment):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"malformed edge line in {path}: {line!r}")
            sources.append(int(parts[0]))
            targets.append(int(parts[1]))

    graph_name = name if name is not None else path.stem.replace(".txt", "")
    if not sources:
        return GraphBuilder(num_nodes=0).build(name=graph_name)

    sources_array = np.asarray(sources, dtype=np.int64)
    targets_array = np.asarray(targets, dtype=np.int64)
    if relabel:
        ids = np.concatenate([sources_array, targets_array])
        unique, inverse = np.unique(ids, return_inverse=True)
        sources_array = inverse[: sources_array.size]
        targets_array = inverse[sources_array.size :]
        num_nodes = int(unique.size)
    else:
        num_nodes = int(max(sources_array.max(), targets_array.max()) + 1)

    builder = GraphBuilder(num_nodes=num_nodes)
    builder.add_edges(np.column_stack([sources_array, targets_array]))
    return builder.build(name=graph_name)


#: Alias with the SNAP-centric name used in the documentation.
read_snap_graph = read_edge_list


def write_edge_list(graph: CSRGraph, path: PathLike, header: bool = True) -> None:
    """Write ``graph`` as a SNAP-style edge list (each undirected edge once).

    Parameters
    ----------
    graph:
        The graph to serialise.
    path:
        Output file; ``.gz`` suffix enables compression.
    header:
        Whether to emit the usual SNAP comment header.
    """
    path = Path(path)
    with _open_text(path, "w") as handle:
        if header:
            handle.write(f"# Undirected graph: {graph.name}\n")
            handle.write(f"# Nodes: {graph.num_nodes} Edges: {graph.num_edges}\n")
            handle.write("# FromNodeId\tToNodeId\n")
        for u, v in graph.iter_edges():
            handle.write(f"{u}\t{v}\n")
