"""What an operator can observe, pinned: ``/metrics`` and ``/stats`` shapes.

One scripted scenario runs through an :class:`HttpQueryServer` over a cached
``serial`` engine with a tracer: a computed query, its replay from the
result cache (the event-loop fast path), a query traced by an inbound
``traceparent``, and one query shed while the only admission slot is held.
Then a :class:`ReplicaRouter` over that one in-process replica forwards two
more.  ``tests/golden/observability.json`` pins, for the door and for the
router, every ``/metrics`` family (name, type, HELP, label keys), every
sample key (name and labels), and every key path of ``/stats``.  Values are
not pinned, bar the conservation laws the README states, which are checked
on every stats document the scenario reads.

The file was written once and is never regenerated to make a change pass: a
difference is a change in what dashboards and scrapers can read.  To write it
afresh (only for a deliberate change of that contract):
``PYTHONPATH=src python tests/test_golden_observability.py --write``.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path
from typing import Dict, List

from repro.graph.datasets import load_dataset
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.solver import MeLoPPRSolver
from repro.serving.cache import SubgraphCache
from repro.serving.engine import QueryEngine
from repro.serving.frontend import (
    AdmissionController,
    HttpQueryServer,
    MicroBatcher,
    ReplicaRouter,
    parse_prometheus_text,
)
from repro.serving.frontend.http import HttpClientPool
from repro.serving.result_cache import ScoreTableCache
from repro.serving.tracing import Tracer

GOLDEN = Path(__file__).parent / "golden" / "observability.json"
K = 20
TRACEPARENT = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"


def exposition_shape(text: str) -> Dict[str, List[str]]:
    """Every family (``name type [label keys] HELP``) and every sample key
    (``name{label=value,...}``) of a scrape."""
    scrape = parse_prometheus_text(text)
    helps = {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            helps[name] = help_text
    labels: Dict[str, set] = {name: set() for name in scrape.types}
    for name, items in scrape.samples:
        family = name if name in scrape.types else name.rsplit("_", 1)[0]
        labels[family].update(key for key, _ in items)
    return {
        "families": sorted(
            f"{name} {kind} [{','.join(sorted(labels[name]))}] {helps[name]}"
            for name, kind in scrape.types.items()
        ),
        "samples": sorted(
            name + "{" + ",".join(f"{key}={value}" for key, value in items) + "}"
            for name, items in scrape.samples
        ),
    }


def key_paths(document: object, prefix: str = "") -> List[str]:
    """Every leaf of a JSON document as a dotted path."""
    if not isinstance(document, dict):
        return [prefix]
    paths: List[str] = []
    for key, value in document.items():
        paths += key_paths(value, f"{prefix}.{key}" if prefix else key)
    return paths


def check_conservation(stats: Dict[str, object]) -> None:
    """The README's ledger laws on one door's ``/stats`` document."""
    admission = stats["admission"]
    assert admission["completed"] == stats["batched_queries"] + stats["fast_path_hits"]
    assert admission["admitted"] == (
        admission["completed"] + admission["expired"] + admission["failed"]
        + admission["cancelled"] + admission["pending"]
    )


async def scenario() -> Dict[str, object]:
    engine = QueryEngine(
        MeLoPPRSolver(load_dataset("G1"), MeLoPPRConfig(track_memory=False)),
        cache=SubgraphCache(),
        result_cache=ScoreTableCache(),
        tracer=Tracer(sample_rate=0.0),
    )
    admission = AdmissionController(max_pending=1)
    recorded: Dict[str, object] = {}
    with engine:
        async with MicroBatcher(engine, admission=admission) as batcher:
            async with HttpQueryServer(batcher) as door:
                async with HttpClientPool(*door.address, size=1) as pool:
                    for seed, headers in ((3, None), (3, None), (5, {"traceparent": TRACEPARENT})):
                        status, answer = await pool.request_json(
                            "POST", "/query", {"seed": seed, "k": K}, headers
                        )
                        assert status == 200 and answer["ok"], answer
                    assert admission.try_admit()  # hold the only slot
                    status, answer = await pool.request_json("POST", "/query", {"seed": 7, "k": K})
                    assert status == 429 and answer["error"] == "shed", answer
                    admission.cancel()
                    _, stats = await pool.request_json("GET", "/stats")
                    _, _, metrics = await pool.request("GET", "/metrics")
                check_conservation(stats)
                assert stats["fast_path_hits"] == 1
                assert stats["admission"]["shed"] == 1
                assert stats["engine"]["tracing"]["sampled"] == 1
                recorded["door"] = {
                    **exposition_shape(metrics.decode()),
                    "stats": key_paths(stats),
                }

                async with ReplicaRouter([door.address], health_interval_s=0) as router:
                    async with HttpClientPool(*router.address, size=1) as pool:
                        for seed in (3, 9):
                            status, answer = await pool.request_json(
                                "POST", "/query", {"seed": seed, "k": K}
                            )
                            assert status == 200 and answer["ok"], answer
                        _, stats = await pool.request_json("GET", "/stats")
                        _, _, metrics = await pool.request("GET", "/metrics")
                routed = stats["router"]
                assert sum(routed["forwards"].values()) == (
                    sum(routed["answers"].values()) + sum(routed["forward_errors"].values())
                )
                assert routed["queries"] == 2
                check_conservation(stats["replicas"]["replica-0"])
                recorded["router"] = {
                    **exposition_shape(metrics.decode()),
                    "stats": key_paths(stats),
                }
    return recorded


def test_observable_surface_is_what_it_was():
    expected = json.loads(GOLDEN.read_text())
    observed = asyncio.run(scenario())
    for door in ("door", "router"):
        for part in ("families", "samples", "stats"):
            got, pinned = set(observed[door][part]), set(expected[door][part])
            assert got == pinned, (
                f"{door} {part}: added {sorted(got - pinned)}, lost {sorted(pinned - got)}"
            )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    recorded = asyncio.run(scenario())
    for door in recorded.values():
        door["stats"] = sorted(door["stats"])
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
