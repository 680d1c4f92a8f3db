"""One serving configuration, one builder, every entry point.

The TCP and HTTP server mains grew the same ~20 CLI flags and the same
engine-assembly logic in parallel; the replica supervisor would have been a
third copy — worse, one that re-assembled ``argv`` strings to spawn its
replicas.  This module is the single source of truth instead:

* :class:`ServingConfig` — a frozen dataclass carrying everything a serving
  process needs (dataset, backend, batching, admission, caches, tracing,
  logging, ready-file).  Each field *is* a CLI flag: its default, type and
  help are declared once, on the field, and the CLI surface is
  derived from the fields: :meth:`ServingConfig.from_args` reads a parsed
  namespace, :meth:`ServingConfig.to_argv` emits the equivalent flag list —
  which is exactly how :class:`~repro.serving.replica.ReplicaSet` spawns
  replica subprocesses from a config object.
* :func:`add_serving_arguments` — installs one flag per field on a parser;
  both server CLIs call it, so the flag surface cannot drift between
  transports again.
* :func:`build_frontend` — the one builder turning a config into the
  ``(engine, policy, admission)`` triple both servers serve.
"""

from __future__ import annotations

import argparse
import dataclasses
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.serving.backends import make_backend

__all__ = [
    "ServingConfig",
    "add_serving_arguments",
    "build_serving_parser",
    "build_frontend",
]


def _flag(default: object, help: str, **options: object) -> Any:
    """A config field and the CLI flag that sets it, declared together.

    ``options`` go to ``add_argument`` as given (a non-string field
    defaulting to ``None`` names its ``type``); ``flag`` overrides the name
    derived from the field's (``--no-dedup`` for ``dedup``).
    """
    return dataclasses.field(default=default, metadata={"help": help, **options})


def _flag_name(field: dataclasses.Field) -> str:
    return field.metadata.get("flag", "--" + field.name.replace("_", "-"))


@dataclass(frozen=True)
class ServingConfig:
    """Everything one serving process needs, as data.

    ``ServingConfig()`` is what ``parse_args([])`` produces (modulo the
    per-CLI ``port`` default), and :meth:`to_argv` round-trips through
    :meth:`from_args` exactly.  A ``bool`` field is a switch that flips its
    default; a field defaulting to ``None`` is unset until given.
    """

    dataset: str = _flag("G1", "dataset key to serve")
    host: str = _flag("127.0.0.1", "bind address")
    port: int = _flag(7071, "listen port (0 picks a free one)")
    backend: str = _flag(
        "serial", "engine backend spec: serial or thread[:N]"
    )
    max_batch: int = _flag(8, "most queued queries coalesced into one engine batch")
    dedup: bool = _flag(True, "disable in-flight dedup", flag="--no-dedup")
    max_pending: int = _flag(256, "admission bound")
    no_cache: bool = _flag(
        False,
        "disable caching: the sub-graph cache and (unless --result-cache-bytes "
        "explicitly enables it) the cross-query result cache",
    )
    result_cache_bytes: Optional[int] = _flag(
        None,
        "byte budget of the cross-query stage-one result cache (hot seeds "
        "skip straight to stage two; 0 disables, the default enables it at "
        "the library default budget)",
        type=int,
    )
    result_cache_ttl: Optional[float] = _flag(
        None,
        "optional TTL (seconds) on cached stage-one tables (<= 0: none)",
        type=float,
    )
    trace_sample: float = _flag(
        0.0,
        "fraction of queries recording a full span tree (0 disables tracing "
        "entirely; an inbound sampled-flagged traceparent always traces); "
        "hot-reloadable via the 'trace_sample' reload key",
    )
    trace_ring: int = _flag(
        512, "finished traces kept in memory for /debug/traces (ring buffer)"
    )
    slow_ms: float = _flag(
        250.0,
        "slow-query threshold: sampled traces at least this slow are counted "
        "(and logged when --slow-log is set)",
    )
    slow_log: Optional[str] = _flag(
        None,
        "append each over-threshold trace as one JSONL span tree to this "
        "file (requires --trace-sample > 0 to sample anything)",
        metavar="PATH",
    )
    log_level: str = _flag(
        "warning",
        "request-log verbosity: info and below emit one line per answered "
        "query (trace id, status, latency, cache outcome)",
        choices=("critical", "error", "warning", "info", "debug"),
    )
    log_json: bool = _flag(
        False, "emit request-log lines as JSONL instead of key=value text"
    )
    ready_file: Optional[str] = _flag(
        None,
        "after binding, write a JSON readiness record (host, port, pid, "
        "protocol version) to this path — how the replica supervisor learns "
        "a spawned server is up without parsing stdout",
        metavar="PATH",
    )

    def __post_init__(self) -> None:
        # A spawned replica's stderr goes nowhere, so whatever build_frontend
        # would refuse at startup is refused here, where the caller sees it
        # (building a backend starts nothing: the thread pool is lazy; the
        # registry lookup builds no graph).
        from repro.graph.datasets import get_spec

        try:
            get_spec(self.dataset)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        make_backend(self.backend).close()
        for name in ("max_batch", "max_pending"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        sample = self.trace_sample or 0.0  # as build_frontend reads it
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"trace_sample must be within [0, 1], got {sample}")
        if sample > 0.0 and self.trace_ring < 1:
            raise ValueError(f"trace_ring must be >= 1 when tracing, got {self.trace_ring}")

    # ------------------------------------------------------------------
    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "ServingConfig":
        """Build a config from a parsed namespace (missing attrs = defaults).

        Tolerating missing attributes keeps hand-built ``Namespace`` objects
        (tests, studies) valid.
        """
        return cls(
            **{
                field.name: getattr(args, field.name, field.default)
                for field in dataclasses.fields(cls)
            }
        )

    def replace(self, **overrides: object) -> "ServingConfig":
        """A copy with ``overrides`` applied (frozen-dataclass idiom)."""
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]

    def to_argv(self) -> List[str]:
        """The CLI flag list reproducing this config through the parser.

        This is how the replica supervisor spawns server subprocesses: build
        the replica's config, call ``to_argv()``, exec the server module.
        Round-trip is exact: ``from_args(parser.parse_args(cfg.to_argv()))
        == cfg``.  A switch appears when it differs from its default, any
        other field unless it is ``None``.
        """
        argv: List[str] = []
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(field.default, bool):
                if value != field.default:
                    argv.append(_flag_name(field))
            elif value is not None:
                argv += [_flag_name(field), str(value)]
        return argv


def add_serving_arguments(
    parser: argparse.ArgumentParser, default_port: int = ServingConfig.port
) -> argparse.ArgumentParser:
    """Install one flag per :class:`ServingConfig` field on ``parser``."""
    for field in dataclasses.fields(ServingConfig):
        options = {
            key: value for key, value in field.metadata.items() if key != "flag"
        }
        if isinstance(field.default, bool):
            options["action"] = "store_false" if field.default else "store_true"
        elif field.default is not None:
            options["type"] = type(field.default)
        default = default_port if field.name == "port" else field.default
        parser.add_argument(
            _flag_name(field), dest=field.name, default=default, **options
        )
    return parser


def build_serving_parser(
    description: Optional[str] = None, default_port: int = ServingConfig.port
) -> argparse.ArgumentParser:
    """A fresh parser carrying exactly the shared serving flags."""
    return add_serving_arguments(
        argparse.ArgumentParser(description=description), default_port
    )


def build_frontend(config: ServingConfig) -> Tuple[object, object, object]:
    """Construct the ``(engine, policy, admission)`` triple a server serves.

    The one assembly path shared by the TCP CLI, the HTTP CLI and the
    replica supervisor.  Accepts a :class:`ServingConfig`; the transport
    mains adapt their parsed namespaces via :meth:`ServingConfig.from_args`.
    """
    # Imported here, not at module top: the frontend package must stay
    # importable without pulling the dataset/solver layers in.
    from repro.graph.datasets import load_dataset
    from repro.meloppr.config import MeLoPPRConfig
    from repro.meloppr.solver import MeLoPPRSolver
    from repro.serving.cache import SubgraphCache
    from repro.serving.engine import QueryEngine
    from repro.serving.frontend.admission import AdmissionController
    from repro.serving.frontend.batcher import BatchPolicy
    from repro.serving.result_cache import (
        DEFAULT_RESULT_CACHE_BYTES,
        ScoreTableCache,
    )
    from repro.serving.tracing import Tracer

    graph = load_dataset(config.dataset)
    backend = make_backend(config.backend)
    cache = None if config.no_cache else SubgraphCache()

    # The stage-one result cache: 0 switches it off, and --no-cache means
    # *all* caching off (it is how operators measure the uncached path — a
    # silently surviving result cache would invalidate that baseline by 2x+)
    # unless an explicit --result-cache-bytes overrides it.
    result_cache_bytes = config.result_cache_bytes
    result_cache_ttl = config.result_cache_ttl
    if result_cache_ttl is not None and result_cache_ttl <= 0:
        # Same 0-disables convention as --result-cache-bytes: a non-positive
        # TTL means "no TTL", not a startup crash.
        result_cache_ttl = None
    if result_cache_bytes is None and config.no_cache:
        effective_result_bytes: Optional[int] = None
    elif result_cache_bytes is not None and result_cache_bytes <= 0:
        effective_result_bytes = None
    elif result_cache_bytes is not None:
        effective_result_bytes = result_cache_bytes
    else:
        effective_result_bytes = DEFAULT_RESULT_CACHE_BYTES

    result_cache = None
    if effective_result_bytes is not None:
        result_cache = ScoreTableCache(
            effective_result_bytes, ttl_seconds=result_cache_ttl
        )

    # A tracer exists iff sampling can ever fire: a zero rate builds none,
    # so the hot path stays a bare `tracer is None` check per request; any
    # other rate meets the Tracer's own range check.
    trace_sample = config.trace_sample or 0.0
    tracer = None
    if trace_sample != 0.0:
        tracer = Tracer(
            sample_rate=trace_sample,
            ring_size=config.trace_ring,
            slow_threshold_ms=config.slow_ms,
            slow_log_path=config.slow_log,
        )
    # No wire field carries a measured peak, and tracemalloc would dominate
    # every computing query: servers report the modelled working set.
    engine = QueryEngine(
        MeLoPPRSolver(graph, MeLoPPRConfig(track_memory=False)),
        backend=backend,
        cache=cache,
        result_cache=result_cache,
        tracer=tracer,
    )
    policy = BatchPolicy(max_batch_size=config.max_batch, dedup=config.dedup)
    admission = AdmissionController(max_pending=config.max_pending)
    return engine, policy, admission
