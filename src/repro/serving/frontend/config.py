"""One serving configuration, one builder, every entry point.

The TCP and HTTP server mains grew the same ~20 CLI flags and the same
engine-assembly logic in parallel; the replica supervisor would have been a
third copy — worse, one that re-assembled ``argv`` strings to spawn its
replicas.  This module is the single source of truth instead:

* :class:`ServingConfig` — a frozen dataclass carrying everything a serving
  process needs (dataset, backend, batching, admission, caches, kernel,
  sharding, tracing, logging, ready-file).  It converts losslessly to and
  from the CLI surface: :meth:`ServingConfig.from_args` reads a parsed
  namespace, :meth:`ServingConfig.to_argv` emits the equivalent flag list —
  which is exactly how :class:`~repro.serving.replica.ReplicaSet` spawns
  replica subprocesses from a config object.
* :func:`add_serving_arguments` — installs the shared flags on a parser;
  both server CLIs call it, so the flag surface cannot drift between
  transports again.
* :func:`build_frontend` — the one builder turning a config into the
  ``(engine, policy, admission)`` triple both servers serve.  Sharded
  configs (``num_shards > 0``) build a
  :class:`~repro.serving.sharding.ShardRouter` over the deterministic
  partition, which is what gives a replica its shard set while keeping it
  host-graph-capable for failover traffic.
"""

from __future__ import annotations

import argparse
import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.graph.partition import DEFAULT_HALO_DEPTH, PARTITIONERS

__all__ = [
    "ServingConfig",
    "add_serving_arguments",
    "build_serving_parser",
    "build_frontend",
]


@dataclass(frozen=True)
class ServingConfig:
    """Everything one serving process needs, as data.

    Field defaults mirror the CLI defaults exactly — ``ServingConfig()`` is
    what ``parse_args([])`` produces (modulo the per-CLI ``port`` default),
    and :meth:`to_argv` round-trips through :meth:`from_args` losslessly.
    ``max_wait_ms`` is deprecated: the work-conserving batcher ignores it
    (see :class:`~repro.serving.frontend.batcher.BatchPolicy`); it is kept,
    validated and round-tripped so existing configs keep loading.
    """

    dataset: str = "G1"
    host: str = "127.0.0.1"
    port: int = 7071
    backend: str = "async:4"
    max_batch: int = 8
    max_wait_ms: float = 2.0
    dedup: bool = True
    max_pending: int = 256
    no_cache: bool = False
    result_cache_bytes: Optional[int] = None
    result_cache_ttl: Optional[float] = None
    kernel: Optional[str] = None
    # Sharding: 0 = unsharded.  A sharded config serves the full dataset
    # through a ShardRouter over `num_shards` shards — shard-local for
    # depths within the halo, host-graph fallback beyond it — which is what
    # lets a replica own a shard subset yet answer any seed correctly.
    num_shards: int = 0
    partition: str = "hash"
    halo_depth: int = DEFAULT_HALO_DEPTH
    record: Optional[str] = None
    trace_sample: float = 0.0
    trace_ring: int = 512
    slow_ms: float = 250.0
    slow_log: Optional[str] = None
    log_level: str = "warning"
    log_json: bool = False
    ready_file: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_shards < 0:
            raise ValueError(f"num_shards must be >= 0, got {self.num_shards}")
        if self.num_shards and self.partition not in PARTITIONERS:
            raise ValueError(
                f"unknown partition strategy {self.partition!r}; expected one "
                f"of {sorted(PARTITIONERS)}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "ServingConfig":
        """Build a config from a parsed namespace (missing attrs = defaults).

        Tolerating missing attributes keeps hand-built ``Namespace`` objects
        (tests, studies) valid, same as the old ``build_frontend`` did.
        """
        fields = {}
        for field in dataclasses.fields(cls):
            if field.name == "dedup":
                # The CLI expresses dedup negatively (--no-dedup).
                fields["dedup"] = not getattr(args, "no_dedup", False)
            else:
                value = getattr(args, field.name, field.default)
                fields[field.name] = value
        return cls(**fields)

    def replace(self, **overrides: object) -> "ServingConfig":
        """A copy with ``overrides`` applied (frozen-dataclass idiom)."""
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]

    def to_argv(self) -> List[str]:
        """The CLI flag list reproducing this config through the parser.

        This is how the replica supervisor spawns server subprocesses: build
        the replica's config, call ``to_argv()``, exec the server module.
        Round-trip is exact: ``from_args(parser.parse_args(cfg.to_argv()))
        == cfg``.
        """
        argv: List[str] = [
            "--dataset", self.dataset,
            "--host", self.host,
            "--port", str(self.port),
            "--backend", self.backend,
            "--max-batch", str(self.max_batch),
            "--max-wait-ms", repr(self.max_wait_ms),
            "--max-pending", str(self.max_pending),
            "--trace-sample", repr(self.trace_sample),
            "--trace-ring", str(self.trace_ring),
            "--slow-ms", repr(self.slow_ms),
            "--log-level", self.log_level,
        ]
        if not self.dedup:
            argv.append("--no-dedup")
        if self.no_cache:
            argv.append("--no-cache")
        if self.result_cache_bytes is not None:
            argv += ["--result-cache-bytes", str(self.result_cache_bytes)]
        if self.result_cache_ttl is not None:
            argv += ["--result-cache-ttl", repr(self.result_cache_ttl)]
        if self.kernel is not None:
            argv += ["--kernel", self.kernel]
        if self.num_shards:
            argv += [
                "--num-shards", str(self.num_shards),
                "--partition", self.partition,
                "--halo-depth", str(self.halo_depth),
            ]
        if self.record is not None:
            argv += ["--record", self.record]
        if self.slow_log is not None:
            argv += ["--slow-log", self.slow_log]
        if self.log_json:
            argv.append("--log-json")
        if self.ready_file is not None:
            argv += ["--ready-file", self.ready_file]
        return argv


def add_serving_arguments(
    parser: argparse.ArgumentParser, default_port: int = 7071
) -> argparse.ArgumentParser:
    """Install the shared serving flags on ``parser`` (both server CLIs)."""
    parser.add_argument("--dataset", default="G1", help="dataset key to serve")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=default_port)
    parser.add_argument(
        "--backend",
        default="async:4",
        help="engine backend spec: serial, thread[:N], async[:N] or process[:N]",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=8,
        help="most queued queries coalesced into one engine batch",
    )
    parser.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help=(
            "deprecated and ignored: a batch closes when it is full or the "
            "queue is empty, never on a timer (still validated and reported)"
        ),
    )
    parser.add_argument(
        "--no-dedup", action="store_true", help="disable in-flight dedup"
    )
    parser.add_argument(
        "--max-pending", type=int, default=256, help="admission bound"
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=(
            "disable caching: the sub-graph cache and (unless "
            "--result-cache-bytes explicitly enables it) the cross-query "
            "result cache"
        ),
    )
    parser.add_argument(
        "--result-cache-bytes",
        type=int,
        default=None,
        help=(
            "byte budget of the cross-query stage-one result cache "
            "(hot seeds skip straight to stage two; 0 disables, the "
            "default enables it at the library default budget)"
        ),
    )
    parser.add_argument(
        "--result-cache-ttl",
        type=float,
        default=None,
        help="optional TTL (seconds) on cached stage-one tables (<= 0: none)",
    )
    parser.add_argument(
        "--kernel",
        default=None,
        help=(
            "diffusion kernel: reference, csr, frontier or auto "
            "(default: the REPRO_DIFFUSION_KERNEL environment variable, "
            "else auto); every kernel returns bit-identical scores"
        ),
    )
    parser.add_argument(
        "--num-shards",
        type=int,
        default=0,
        help=(
            "serve through a ShardRouter over this many shards (0 = "
            "unsharded); replicas of a fleet share one shard count so the "
            "front router's seed hashing matches shard ownership"
        ),
    )
    parser.add_argument(
        "--partition",
        default="hash",
        choices=sorted(PARTITIONERS),
        help="partition strategy when --num-shards > 0",
    )
    parser.add_argument(
        "--halo-depth",
        type=int,
        default=DEFAULT_HALO_DEPTH,
        help="halo hop radius of each shard sub-graph (--num-shards > 0)",
    )
    parser.add_argument(
        "--record",
        default=None,
        metavar="PATH",
        help=(
            "record every accepted query (with arrival offsets) to this "
            "JSONL trace on shutdown, for replay as a repeatable benchmark "
            "(repro.serving.frontend.recorder)"
        ),
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=0.0,
        help=(
            "fraction of queries recording a full span tree (0 disables "
            "tracing entirely; an inbound sampled-flagged traceparent always "
            "traces); hot-reloadable via the 'trace_sample' reload key"
        ),
    )
    parser.add_argument(
        "--trace-ring",
        type=int,
        default=512,
        help="finished traces kept in memory for /debug/traces (ring buffer)",
    )
    parser.add_argument(
        "--slow-ms",
        type=float,
        default=250.0,
        help=(
            "slow-query threshold: sampled traces at least this slow are "
            "counted (and logged when --slow-log is set)"
        ),
    )
    parser.add_argument(
        "--slow-log",
        default=None,
        metavar="PATH",
        help=(
            "append each over-threshold trace as one JSONL span tree to "
            "this file (requires --trace-sample > 0 to sample anything)"
        ),
    )
    parser.add_argument(
        "--log-level",
        default="warning",
        choices=("critical", "error", "warning", "info", "debug"),
        help=(
            "request-log verbosity: info and below emit one line per "
            "answered query (trace id, status, latency, cache outcome)"
        ),
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit request-log lines as JSONL instead of key=value text",
    )
    parser.add_argument(
        "--ready-file",
        default=None,
        metavar="PATH",
        help=(
            "after binding, write a JSON readiness record (host, port, pid, "
            "protocol version) to this path — how the replica supervisor "
            "learns a spawned server is up without parsing stdout"
        ),
    )
    return parser


def build_serving_parser(
    description: Optional[str] = None, default_port: int = 7071
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
    from repro.graph.partition import partition_graph
    from repro.meloppr.config import MeLoPPRConfig
    from repro.meloppr.solver import MeLoPPRSolver
    from repro.serving.backends import ProcessPoolBackend, make_backend
    from repro.serving.cache import DEFAULT_CACHE_BYTES, SubgraphCache
    from repro.serving.engine import QueryEngine
    from repro.serving.frontend.admission import AdmissionController
    from repro.serving.frontend.batcher import BatchPolicy
    from repro.serving.result_cache import (
        DEFAULT_RESULT_CACHE_BYTES,
        ScoreTableCache,
    )
    from repro.serving.sharding import ShardRouter
    from repro.serving.tracing import Tracer

    graph = load_dataset(config.dataset)
    backend = make_backend(config.backend)
    stage_task_backend = getattr(backend, "executes_stage_tasks", False)
    if stage_task_backend:
        # Stage-task workers cache extractions themselves; an engine-level
        # cache would never be consulted (the engine rejects it).  --no-cache
        # therefore maps to the worker-side cache switch here.
        cache = None
        if config.no_cache and isinstance(backend, ProcessPoolBackend):
            # Rebuild with *every* constructor argument preserved: dropping
            # mp_context or kernel here would silently serve with a different
            # start method / diffusion kernel than the operator asked for.
            backend = ProcessPoolBackend(
                num_workers=backend.num_workers,
                mp_context=backend.mp_context,
                cache_bytes=None,
                kernel=backend.kernel,
            )
    else:
        cache = None if config.no_cache else SubgraphCache()

    # The stage-one result cache is parent-side for every backend (workers
    # only ever see the stage-two tasks of a cached query), so the flag maps
    # uniformly; 0 switches it off, and --no-cache means *all* caching off
    # (it is how operators measure the uncached path — a silently surviving
    # result cache would invalidate that baseline by 2x+) unless an explicit
    # --result-cache-bytes overrides it.
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

    router = None
    result_cache = None
    if config.num_shards:
        # Sharded serving: the router owns one sub-graph cache and one
        # stage-one result cache per shard; the engine-level equivalents
        # must stay None (the engine enforces the exclusivity).
        router = ShardRouter(
            partition_graph(
                graph,
                config.num_shards,
                strategy=config.partition,
                halo_depth=config.halo_depth,
            ),
            cache_bytes=None if config.no_cache else DEFAULT_CACHE_BYTES,
            result_cache_bytes=effective_result_bytes,
            result_cache_ttl_seconds=result_cache_ttl,
        )
        cache = None
    elif effective_result_bytes is not None:
        result_cache = ScoreTableCache(
            effective_result_bytes, ttl_seconds=result_cache_ttl
        )

    # A tracer exists iff sampling can ever fire: a zero rate builds none,
    # so the hot path stays a bare `tracer is None` check per request.
    trace_sample = config.trace_sample or 0.0
    tracer = None
    if trace_sample > 0.0:
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
        router=router,
        result_cache=result_cache,
        kernel=config.kernel,
        tracer=tracer,
    )
    policy = BatchPolicy(
        max_batch_size=config.max_batch,
        max_wait_ms=config.max_wait_ms,
        dedup=config.dedup,
    )
    admission = AdmissionController(max_pending=config.max_pending)
    return engine, policy, admission
