"""Every public method of the engine, the caches and the stats producers
has a caller.

A public method or property of :class:`~repro.serving.engine.QueryEngine`,
:class:`~repro.serving.cache.SubgraphCache` or
:class:`~repro.serving.result_cache.ScoreTableCache` (the caches' shared base
included), :class:`~repro.serving.tracing.Tracer`,
:class:`~repro.serving.telemetry.LatencyHistogram`,
:class:`~repro.serving.frontend.admission.AdmissionController` or
:class:`~repro.serving.frontend.batcher.MicroBatcher` must be named as an
attribute somewhere in ``src/``, ``benchmarks/`` or ``examples/`` outside its
own definition; tests do not count.  A door only tests use is a second way to
do what production does one way.  ``ALLOWED`` names the few that stay without
a caller, each with why.

The check is by name: a method whose name some other class's attribute also
carries (a second ``put``, ``clear`` or ``stats``) passes on that caller.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).parents[1]
SERVING = ROOT / "src" / "repro" / "serving"
CLASSES = {
    "engine.py": ["QueryEngine"],
    "cache.py": ["_LRUCache", "SubgraphCache"],
    "result_cache.py": ["ScoreTableCache"],
    "tracing.py": ["Tracer"],
    "telemetry.py": ["LatencyHistogram"],
    "frontend/admission.py": ["AdmissionController"],
    "frontend/batcher.py": ["MicroBatcher"],
}
ALLOWED = {
    "validate": "the invariant check the stress and differential tests run",
    "ttl_seconds": "a read-back of the constructor's TTL, as max_bytes is of the budget",
}


def public_methods():
    """``(name, file, first line, last line)`` of every public def."""
    for filename, classes in CLASSES.items():
        path = SERVING / filename
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name in classes:
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item.name, path, item.lineno, item.end_lineno


def attribute_uses():
    """Attribute name -> ``(file, line)`` of every access to it."""
    uses = defaultdict(list)
    for folder in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute):
                    uses[node.attr].append((path, node.lineno))
    return uses


def test_every_public_serving_method_has_a_caller():
    uses = attribute_uses()
    unused = sorted(
        name
        for name, path, first, last in public_methods()
        if name not in ALLOWED
        and not any(
            not (where == path and first <= line <= last) for where, line in uses[name]
        )
    )
    assert unused == [], f"public methods with no caller outside tests: {unused}"


def test_the_allow_list_names_only_public_methods():
    # A deleted method leaves no stale excuse behind.
    assert set(ALLOWED) <= {name for name, *_ in public_methods()}
