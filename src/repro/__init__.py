"""repro — a reproduction of MeLoPPR (DAC 2021).

MeLoPPR is a memory-efficient, low-latency personalised-PageRank (PPR)
software/hardware co-design.  This package provides:

* :mod:`repro.graph` — the graph substrate (CSR graphs, generators, the six
  paper-dataset stand-ins, BFS sub-graph extraction);
* :mod:`repro.diffusion` — the graph-diffusion kernel ``GD(l)(S0)``;
* :mod:`repro.ppr` — PPR solver interfaces, baselines and quality metrics;
* :mod:`repro.meloppr` — the MeLoPPR algorithm (stage/linear decomposition,
  sparsity-driven selection, bounded score aggregation, fixed-point model);
* :mod:`repro.hardware` — the FPGA accelerator model and CPU+FPGA co-sim;
* :mod:`repro.memory` — memory measurement (tracemalloc) and reporting;
* :mod:`repro.experiments` — one module per paper table/figure.

Quickstart
----------
>>> from repro.graph import load_dataset
>>> from repro.meloppr import MeLoPPRSolver, MeLoPPRConfig
>>> from repro.ppr import PPRQuery
>>> graph = load_dataset("G1")                      # citeseer stand-in
>>> solver = MeLoPPRSolver(graph, MeLoPPRConfig.paper_default())
>>> result = solver.solve(PPRQuery(seed=0, k=20))
>>> len(result.top_k_nodes(5))
5
"""

from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery, PPRResult
from repro.serving.cache import SubgraphCache
from repro.serving.engine import QueryEngine

__version__ = "0.1.0"

__all__ = [
    "MeLoPPRConfig",
    "MeLoPPRSolver",
    "PPRQuery",
    "PPRResult",
    "QueryEngine",
    "SubgraphCache",
    "__version__",
]
