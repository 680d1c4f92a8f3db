"""The modules a stage wave runs through call no NumPy dispatch wrapper.

``np.cumsum(a)``, ``np.flatnonzero(m)``, ``np.repeat(a, c)``,
``np.searchsorted(a, v)``, ``np.argsort(a)`` and ``np.diff(a)`` are Python
functions in front of an ndarray method (``diff`` and ``flatnonzero`` in front
of several calls).  Each costs 0.5–2 µs more than ``a.cumsum()``,
``m.nonzero()[0]``, ``a.repeat(c)``, ``a.searchsorted(v)``, ``a.argsort()``
or ``a[1:] - a[:-1]``, and on small ego balls a wave's cost is a count of
such calls, not of edges.  This test reads the modules with :mod:`ast` and
fails on any such call, so the saving cannot drift back.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Tuple

import pytest

SRC = Path(__file__).parents[1] / "src" / "repro"

MODULES = (
    "graph/bfs.py",
    "graph/csr.py",
    "diffusion/diffusion.py",
    "meloppr/aggregation.py",
    "serving/cache.py",
)

WRAPPERS = frozenset({"cumsum", "flatnonzero", "repeat", "searchsorted", "argsort", "diff"})


def wrapper_calls(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of every call to a wrapper in ``source``, through a
    ``numpy`` module alias or a name imported from ``numpy``."""
    tree = ast.parse(source)
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "numpy"}
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            names |= {alias.asname or alias.name for alias in node.names if alias.name in WRAPPERS}
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in WRAPPERS
            and isinstance(func.value, ast.Name)
            and func.value.id in modules
        ):
            calls.append((node.lineno, func.attr))
        elif isinstance(func, ast.Name) and func.id in names:
            calls.append((node.lineno, func.id))
    return sorted(calls)


@pytest.mark.parametrize("module", MODULES)
def test_the_module_calls_no_wrapper(module):
    assert wrapper_calls((SRC / module).read_text()) == [], module


def test_the_check_sees_every_spelling():
    source = (
        "import numpy as np\n"
        "import numpy\n"
        "from numpy import repeat as rep\n"
        "a.cumsum(); m.nonzero(); a.repeat(c); np.add.reduce(a)\n"
        "np.cumsum(a); numpy.diff(a); rep(a, c); np.argsort(a, kind='stable')\n"
    )
    assert wrapper_calls(source) == [(5, "argsort"), (5, "cumsum"), (5, "diff"), (5, "rep")]
