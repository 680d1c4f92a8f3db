"""Front-door replica router: consistent-hash routing with failover.

``ReplicaRouter`` is a :class:`BaseHttpServer` that owns no batcher of
its own — every ``/query`` is forwarded over an
:class:`~repro.serving.frontend.http.HttpClientPool` to one of N
replica servers.  The router parses the request, and only for its ``seed``;
the body goes to the replica as the bytes the client sent, and the replica's
status and body come back as the bytes it sent (``relay_query``) — an answer
is encoded once, in the replica, and from there on only moved.  The seed is
mapped to a replica by a deterministic
:class:`~repro.serving.replica.ConsistentHashRing`.

Correctness under failover is free by construction: every replica
loads the full graph, so any replica answers any seed bit-identically.
The ring only concentrates each seed's working set on one replica's
caches; when a replica dies, its seeds walk the ring's preference list
and land on the next replica — warm or not, the answer is the same.

Failure taxonomy, the client's (:mod:`repro.serving.frontend.protocol`);
the router owns every retry, the client makes none:

* transport failures (connection refused, mid-response disconnect,
  crash) raise ``ClientConnectionError`` → retried with exponential
  backoff on the next replica in the preference list, bounded by
  ``retries``;
* protocol rejections (``shed``/``deadline``/``bad_request``) are
  *answers* — forwarded to the caller verbatim, never retried;
* a ``ProtocolMismatchError`` (mixed-version fleet; read from the
  ``X-Repro-Proto`` header of every relayed response and from ``proto`` in
  ``/healthz``) quarantines the replica as ``incompatible`` — it stops
  receiving traffic and the aggregated ``/metrics`` makes the skew visible.
  A ``/healthz`` body that does not parse is the same mismatch
  (``MalformedResponseError``); in ``/stats``, ``/debug/traces`` and
  ``/metrics`` such a replica reports an error or is left out, like an
  unreachable one.

Replica states: ``healthy`` and ``suspect`` are routable; ``draining``
(operator removed it via ``POST /admin/drain?replica=i``), ``dead``
(health checks cannot connect) and ``incompatible`` are not.  The
health loop resurrects a ``dead`` replica when ``/healthz`` answers
200 again (e.g. after the supervisor restarts it); a ``draining``
replica is only re-admitted through that same death-and-rebirth path,
so an operator's drain cannot be raced away by a health probe.
"""

from __future__ import annotations

import argparse
import asyncio
import copy
import json
import math
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs

from repro.serving.frontend.config import ServingConfig
from repro.serving.frontend.http import (
    DEFAULT_MAX_BODY_BYTES,
    BaseHttpServer,
    HttpClientPool,
)
from repro.serving.frontend.metrics import (
    PrometheusScrape,
    _Writer,
    parse_prometheus_text,
)
from repro.serving.frontend.protocol import (
    PROTOCOL_VERSION,
    ClientConnectionError,
    MalformedResponseError,
    ProtocolMismatchError,
    ServerError,
    check_protocol_version,
    raise_for_response,
)
from repro.serving.frontend.shell import install_drain_signal_handler
from repro.serving.replica import DEFAULT_VNODES, ConsistentHashRing
from repro.serving.tracing import Tracer, format_traceparent

__all__ = [
    "HEALTHY",
    "SUSPECT",
    "DRAINING",
    "DEAD",
    "INCOMPATIBLE",
    "ReplicaHandle",
    "ReplicaRouter",
    "build_router_parser",
    "main",
]

HEALTHY = "healthy"
SUSPECT = "suspect"
DRAINING = "draining"
DEAD = "dead"
INCOMPATIBLE = "incompatible"

#: States a replica may receive traffic in.  ``suspect`` stays routable:
#: one failed probe should degrade to a retry, not an outage.
ROUTABLE_STATES = frozenset({HEALTHY, SUSPECT})

_JSON_TYPE = "application/json"
_PROM_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _NoReplicaAvailable(Exception):
    """Every routable replica failed (or none were routable)."""


#: What one replica call may fail with and still leave the router serving.
_REPLICA_ERRORS = (ClientConnectionError, ServerError, ProtocolMismatchError)

#: The router's counters, each once: ``(/stats key, attribute, /metrics
#: family, HELP)``.  An attribute holds a count, replica name -> count
#: (exported with a ``replica`` label), or replica name -> outcome -> count
#: (``replica`` and ``outcome`` labels).  A family with no sample yet is left
#: out of ``/metrics``.
_COUNTERS = (
    ("queries", "_queries", "repro_router_queries_total",
     "Queries accepted by the router front door."),
    ("unavailable", "_unavailable", "repro_router_unavailable_total",
     "Queries that exhausted every replica and were refused."),
    ("forwards", "_forwards", "repro_router_forwards_total",
     "Forward attempts per replica (including retries)."),
    ("retries", "_retries_by_replica", "repro_router_retries_total",
     "Forward attempts after the first, per target replica."),
    ("answers", "_answers", "repro_router_answers_total",
     "Responses successfully relayed, per answering replica."),
    ("forward_errors", "_forward_errors", "repro_router_forward_errors_total",
     "Forward attempts that failed at the transport, per replica."),
    ("failovers", "_failovers", "repro_router_failovers_total",
     "Queries answered away from their owning replica, labelled by the owner that missed them."),
    ("health_checks", "_health_checks", "repro_router_health_checks_total",
     "Health probes by replica and outcome."),
)


class ReplicaHandle:
    """One replica as the router sees it: endpoint, client, and state."""

    def __init__(self, name: str, host: str, port: int) -> None:
        self.name = name
        self.host = host
        self.port = port
        # Until the first health check or forward succeeds the replica is
        # merely *suspected* healthy — routable, but not yet proven.
        self.state = SUSPECT
        # Connects on first use and is kept across failed connects.
        self.client = HttpClientPool(host, port)
        self.consecutive_failures = 0
        self.last_error: Optional[str] = None
        self.proto: Optional[int] = None

    @property
    def routable(self) -> bool:
        return self.state in ROUTABLE_STATES

    async def close(self) -> None:
        await self.client.close()

    def describe(self) -> Dict[str, object]:
        return {
            "host": self.host,
            "port": self.port,
            "state": self.state,
            "proto": self.proto,
            "consecutive_failures": self.consecutive_failures,
            "last_error": self.last_error,
        }


class ReplicaRouter(BaseHttpServer):
    """Consistent-hash front door over a fleet of HTTP replicas.

    ``replicas`` is a sequence of ``(host, port)`` endpoints, named
    ``replica-0..N-1`` in order — the same names ``ReplicaSet`` puts on
    its ring, so a router built from a set's specs agrees with the
    set's seed assignment exactly (the ring hash is deterministic).
    """

    def __init__(
        self,
        replicas: Sequence[Tuple[str, int]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        retries: int = 3,
        retry_backoff_ms: float = 25.0,
        health_interval_s: float = 0.5,
        dead_after: int = 2,
        vnodes: int = DEFAULT_VNODES,
        tracer: Optional[Tracer] = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ) -> None:
        if not replicas:
            raise ValueError("need at least one replica endpoint")
        self.check_options(retries, retry_backoff_ms, health_interval_s)
        super().__init__(host, port, max_body_bytes)
        self._retries = retries
        self._retry_backoff_ms = retry_backoff_ms
        self._health_interval_s = health_interval_s
        self._dead_after = dead_after
        self._tracer = tracer
        self._handles: Dict[str, ReplicaHandle] = {}
        for index, (replica_host, replica_port) in enumerate(replicas):
            name = f"replica-{index}"
            self._handles[name] = ReplicaHandle(name, replica_host, replica_port)
        self.ring = ConsistentHashRing(list(self._handles), vnodes=vnodes)
        self._health_task: Optional["asyncio.Task[None]"] = None
        # Every counter below is part of the /metrics contract (listed in
        # _COUNTERS): the sum of answers + failed forwards must equal
        # forwards, and forwards minus queries equals retries — no attempt
        # goes unaccounted.
        self._queries = 0
        self._unavailable = 0
        self._forwards = {name: 0 for name in self._handles}
        self._retries_by_replica = {name: 0 for name in self._handles}
        self._answers = {name: 0 for name in self._handles}
        self._forward_errors = {name: 0 for name in self._handles}
        self._failovers = {name: 0 for name in self._handles}
        self._health_checks: Dict[str, Dict[str, int]] = {name: {} for name in self._handles}

    @staticmethod
    def check_options(
        retries: int, retry_backoff_ms: float, health_interval_s: float
    ) -> None:
        """Raise ``ValueError`` for a retry or health option the router
        refuses — what the CLI checks before it spawns a fleet."""
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        # A NaN or infinite backoff would sleep forever on the first retry,
        # and a NaN interval would silently turn the health loop off.
        for name, value in (
            ("retry_backoff_ms", retry_backoff_ms),
            ("health_interval_s", health_interval_s),
        ):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    @classmethod
    def for_replica_set(cls, replica_set, **kwargs) -> "ReplicaRouter":
        """A router over a :class:`~repro.serving.replica.ReplicaSet`."""
        return cls(
            [spec.address for spec in replica_set.replicas], **kwargs
        )

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        address = await super().start()
        if self._health_interval_s > 0:
            self._health_task = asyncio.ensure_future(self._health_loop())
        return address

    async def stop(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        await super().stop()
        for handle in self._handles.values():
            await handle.close()

    # -- health --------------------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self._health_interval_s)
            await self.check_health()

    async def check_health(self) -> Dict[str, str]:
        """Probe every replica's ``/healthz`` once; returns name -> state.

        Exposed publicly so tests (and operators via a future endpoint)
        can force a probe instead of waiting out the interval.
        """
        await asyncio.gather(
            *(self._check_one(handle) for handle in self._handles.values())
        )
        return {name: handle.state for name, handle in self._handles.items()}

    async def _check_one(self, handle: ReplicaHandle) -> None:
        try:
            status, payload = await handle.client.request_json("GET", "/healthz")
            # The router *requires* the version field: a replica too old
            # to stamp it must not silently join the fleet.
            handle.proto = check_protocol_version(
                payload.get("proto"), handle.client.source, required=True
            )
        except ProtocolMismatchError as exc:
            handle.state = INCOMPATIBLE
            handle.last_error = str(exc)
            self._count_health(handle.name, "incompatible")
            return
        except ClientConnectionError as exc:
            handle.consecutive_failures += 1
            handle.last_error = str(exc)
            if handle.state != DRAINING:
                handle.state = (
                    DEAD
                    if handle.consecutive_failures >= self._dead_after
                    else SUSPECT
                )
            self._count_health(handle.name, "unreachable")
            return
        handle.consecutive_failures = 0
        if status == 200:
            if handle.state == DRAINING:
                # Sticky: an operator drain out-races the replica actually
                # flipping to draining; re-admission goes through restart
                # (dead -> healthy), never through a lucky probe.
                self._count_health(handle.name, "draining")
            else:
                handle.state = HEALTHY
                handle.last_error = None
                self._count_health(handle.name, "ok")
        elif payload.get("status") == "draining":
            handle.state = DRAINING
            self._count_health(handle.name, "draining")
        else:
            if handle.state != DRAINING:
                handle.state = SUSPECT
            handle.last_error = f"healthz answered {status}"
            self._count_health(handle.name, "error")

    def _count_health(self, name: str, outcome: str) -> None:
        outcomes = self._health_checks[name]
        outcomes[outcome] = outcomes.get(outcome, 0) + 1

    # -- routing -------------------------------------------------------

    def replica_states(self) -> Dict[str, str]:
        return {name: handle.state for name, handle in self._handles.items()}

    async def _forward_query(
        self, body: bytes, headers: Dict[str, str]
    ) -> Tuple[int, object]:
        """Route one ``/query``: parsed for its ``seed``, relayed as bytes."""
        try:
            payload = json.loads(body.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
            seed = payload.get("seed")
            if isinstance(seed, bool) or not isinstance(seed, int):
                raise ValueError(f"seed must be a JSON integer, got {seed!r}")
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"ok": False, "error": "bad_request", "message": str(exc)}

        self._queries += 1
        incoming = headers.get("traceparent")
        ctx = (
            self._tracer.start_trace("router.query", traceparent=incoming, seed=seed)
            if self._tracer is not None
            else None
        )
        traceparent = incoming
        if ctx is not None:
            traceparent = format_traceparent(ctx.trace_id, ctx.current_span_id())
        try:
            status, response, replica = await self._try_replicas(
                seed, body, traceparent, ctx
            )
        except _NoReplicaAvailable as exc:
            self._unavailable += 1
            if ctx is not None:
                ctx.finish(status="unavailable")
            return (
                503,
                {"ok": False, "error": "unavailable", "message": str(exc)},
            )
        if ctx is not None:
            # Only a refusal is parsed, and only to name it on the trace.
            error = "ok" if status == 200 else json.loads(response).get("error")
            ctx.finish(status=str(error), replica=replica)
        return status, response

    async def _try_replicas(
        self,
        seed: int,
        body: bytes,
        traceparent: Optional[str],
        ctx,
    ) -> Tuple[int, bytes, str]:
        owner = self.ring.owner(seed)
        preference = [
            name for name in self.ring.preference(seed)
            if self._handles[name].routable
        ]
        if not preference:
            raise _NoReplicaAvailable(
                f"no routable replica for seed {seed} "
                f"(states: {self.replica_states()})"
            )
        last_error: Optional[Exception] = None
        for attempt in range(self._retries + 1):
            # Walk the preference list; wrap around so a transient full
            # outage still gets the whole retry budget (a replica may be
            # back by the second pass).
            name = preference[attempt % len(preference)]
            handle = self._handles[name]
            if attempt > 0:
                self._retries_by_replica[name] += 1
                await asyncio.sleep(
                    self._retry_backoff_ms * (2 ** (attempt - 1)) / 1e3
                )
            self._forwards[name] += 1
            span = (
                ctx.begin_span("router.forward", replica=name, attempt=attempt)
                if ctx is not None
                else None
            )
            try:
                status, response = await handle.client.relay_query(
                    body, traceparent
                )
            except ClientConnectionError as exc:
                self._forward_errors[name] += 1
                handle.consecutive_failures += 1
                handle.last_error = str(exc)
                if handle.state != DRAINING:
                    handle.state = (
                        DEAD
                        if handle.consecutive_failures >= self._dead_after
                        else SUSPECT
                    )
                last_error = exc
                if span is not None:
                    ctx.end_span(span, outcome="connection_error")
                continue
            except ProtocolMismatchError as exc:
                self._forward_errors[name] += 1
                handle.state = INCOMPATIBLE
                handle.last_error = str(exc)
                last_error = exc
                if span is not None:
                    ctx.end_span(span, outcome="protocol_mismatch")
                continue
            if span is not None:
                ctx.end_span(span, outcome="answered")
            self._answers[name] += 1
            handle.consecutive_failures = 0
            if handle.state in (SUSPECT, DEAD):
                handle.state = HEALTHY
            if name != owner:
                self._failovers[owner] += 1
            return status, response, name
        raise _NoReplicaAvailable(
            f"all forwards failed for seed {seed} after "
            f"{self._retries + 1} attempts: {last_error}"
        )

    # -- aggregation ---------------------------------------------------

    def _router_stats(self) -> Dict[str, object]:
        stats: Dict[str, object] = {}
        for key, attribute, _, _ in _COUNTERS:
            stats[key] = copy.deepcopy(getattr(self, attribute))
        stats["replicas"] = {
            name: handle.describe() for name, handle in self._handles.items()
        }
        stats["proto"] = PROTOCOL_VERSION
        return stats

    async def _fan_out(self, fetch, *args) -> Dict[str, object]:
        """``await fetch(client, *args)`` on every replica at once: name ->
        its result, or ``{"error": ...}`` where the replica could not be
        reached, refused, or answered what does not parse."""

        async def one(handle: ReplicaHandle) -> Tuple[str, object]:
            try:
                return handle.name, await fetch(handle.client, *args)
            except _REPLICA_ERRORS as exc:
                return handle.name, {"error": str(exc)}

        return dict(
            await asyncio.gather(*(one(h) for h in self._handles.values()))
        )

    async def _aggregate_metrics(self) -> str:
        writer = _Writer()
        names = sorted(self._handles)
        writer.family(
            "repro_router_info", "gauge", "Replica router identity."
        )
        writer.sample(
            "repro_router_info",
            1.0,
            {
                "proto": str(PROTOCOL_VERSION),
                "replicas": str(len(names)),
            },
        )
        writer.family(
            "repro_router_replica_up",
            "gauge",
            "1 when the replica is routable (healthy/suspect), else 0.",
        )
        for name in names:
            handle = self._handles[name]
            writer.sample(
                "repro_router_replica_up",
                1.0 if handle.routable else 0.0,
                {"replica": name, "state": handle.state},
            )
        for _, attribute, family, help_text in _COUNTERS:
            value = getattr(self, attribute)
            if not isinstance(value, dict):
                samples = [(value, {})]
            elif all(isinstance(value[name], dict) for name in names):
                samples = [
                    (count, {"replica": name, "outcome": outcome})
                    for name in names
                    for outcome, count in sorted(value[name].items())
                ]
            else:
                samples = [(value[name], {"replica": name}) for name in names]
            if samples:
                writer.family(family, "counter", help_text)
            for count, labels in samples:
                writer.sample(family, float(count), labels)
        await self._append_replica_metrics(writer)
        return writer.render()

    async def _append_replica_metrics(self, writer: _Writer) -> None:
        """Re-export every replica's scrape with a ``replica=`` label.

        Families are merged across replicas first so each HELP/TYPE pair
        (the first replica's, HELP text as the replica wrote it) is emitted
        exactly once — the strict parser rejects duplicates.
        Unreachable replicas, and those whose scrape does not parse, are
        simply absent from the re-export (their ``repro_router_replica_up``
        gauge already tells the story).
        """
        scrapes = await self._fan_out(_scrape)
        types: Dict[str, str] = {}
        helps: Dict[str, str] = {}
        samples: List[Tuple[str, str, Dict[str, str], float]] = []
        for name, scrape in sorted(scrapes.items()):
            if not isinstance(scrape, PrometheusScrape):
                continue
            for family, kind in scrape.types.items():
                types.setdefault(family, kind)
                helps.setdefault(family, scrape.helps.get(family, ""))
            for (sample_name, label_items), value in scrape.samples.items():
                labels = dict(label_items)
                labels["replica"] = name
                samples.append((sample_name, name, labels, value))
        for family in sorted(types):
            writer.family(family, types[family], helps[family])
        # Samples belong to a family by name prefix (_sum/_count/quantile
        # ride under the summary family); emission order groups by family
        # name so the exposition stays parseable.
        for sample_name, _, labels, value in sorted(
            samples, key=lambda item: (item[0], item[1])
        ):
            writer.sample(sample_name, value, labels)

    # -- HTTP ----------------------------------------------------------

    _ROUTES = {
        "/query": "POST",
        "/healthz": "GET",
        "/stats": "GET",
        "/metrics": "GET",
        "/admin/drain": "POST",
        "/debug/traces": "GET",
    }

    async def _route(
        self,
        method: str,
        target: str,
        body: bytes,
        received: float,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, object, str]:
        path, _, query_string = target.partition("?")
        if path == "/query":
            status, response = await self._forward_query(body, headers or {})
            return status, response, _JSON_TYPE
        if path == "/healthz":
            states = self.replica_states()
            routable = sum(
                1 for handle in self._handles.values() if handle.routable
            )
            if self.draining:
                return (
                    503,
                    {"ok": False, "status": "draining", "replicas": states},
                    _JSON_TYPE,
                )
            status = 200 if routable else 503
            return (
                status,
                {
                    "ok": bool(routable),
                    "status": "serving" if routable else "no_replicas",
                    "replicas": states,
                },
                _JSON_TYPE,
            )
        if path == "/stats":
            return (
                200,
                {
                    "router": self._router_stats(),
                    "replicas": await self._fan_out(_get_json, "/stats"),
                },
                _JSON_TYPE,
            )
        if path == "/metrics":
            return 200, await self._aggregate_metrics(), _PROM_TYPE
        if path == "/debug/traces":
            own = None
            if self._tracer is not None:
                own = {
                    "stats": self._tracer.stats().as_dict(),
                    "traces": self._tracer.traces(),
                }
            return (
                200,
                {
                    "ok": True,
                    "router": own,
                    "replicas": await self._fan_out(_get_json, "/debug/traces"),
                },
                _JSON_TYPE,
            )
        # path == "/admin/drain"
        return await self._admin_drain(query_string)

    def _resolve_replica(self, value: str) -> Optional[str]:
        """Accept both ``replica-1`` and the bare index ``1``."""
        if value in self._handles:
            return value
        name = f"replica-{value}"
        if name in self._handles:
            return name
        return None

    async def _admin_drain(self, query_string: str) -> Tuple[int, object, str]:
        params = parse_qs(query_string)
        values = params.get("replica", [])
        if not values:
            # No target: drain the router itself (ack first — awaiting
            # drain() here would wait on this very connection).
            asyncio.ensure_future(self.drain())
            return 202, {"ok": True, "draining": True}, _JSON_TYPE
        name = self._resolve_replica(values[0])
        if name is None:
            return (
                400,
                {
                    "ok": False,
                    "error": "bad_request",
                    "message": f"unknown replica {values[0]!r}",
                },
                _JSON_TYPE,
            )
        handle = self._handles[name]
        # Mark before forwarding: no new queries route there even if the
        # drain request itself fails.
        handle.state = DRAINING
        forwarded = True
        message = None
        try:
            _, payload = await handle.client.request_json("POST", "/admin/drain")
            raise_for_response(payload)
        except _REPLICA_ERRORS as exc:
            forwarded = False
            message = str(exc)
        body = {"ok": True, "draining": name, "forwarded": forwarded}
        if message is not None:
            body["message"] = message
        return 202, body, _JSON_TYPE


async def _get_json(client: HttpClientPool, path: str) -> Dict[str, object]:
    """A fan-out fetch: ``GET path``'s JSON document without the ok-envelope
    (``ok``, ``proto``), raising :class:`ServerError` on any other status
    than 200."""
    status, payload = await client.request_json("GET", path)
    if status != 200:
        raise ServerError(
            str(payload.get("error", "unknown")),
            str(payload.get("message", "")),
        )
    return {k: v for k, v in payload.items() if k not in ("ok", "proto")}


async def _scrape(client: HttpClientPool) -> PrometheusScrape:
    """A fan-out fetch: the replica's parsed ``/metrics``."""
    status, _, body = await client.request("GET", "/metrics")
    if status != 200:
        raise ServerError("metrics", f"GET /metrics answered {status}")
    try:
        return parse_prometheus_text(body.decode("utf-8"))
    except ValueError as exc:
        raise MalformedResponseError(client.source, str(exc)) from exc


def build_router_parser() -> argparse.ArgumentParser:
    """The router CLI's parser; a spawned fleet's defaults are
    :class:`ServingConfig`'s."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7090)
    parser.add_argument(
        "--replica",
        action="append",
        default=[],
        metavar="HOST:PORT",
        help="attach to an existing replica (repeatable)",
    )
    parser.add_argument(
        "--spawn",
        type=int,
        default=0,
        metavar="N",
        help="spawn N local replica subprocesses instead of attaching",
    )
    parser.add_argument("--dataset", default=ServingConfig.dataset)
    parser.add_argument("--backend", default=ServingConfig.backend)
    parser.add_argument("--retries", type=int, default=3)
    parser.add_argument("--retry-backoff-ms", type=float, default=25.0)
    parser.add_argument("--health-interval-s", type=float, default=0.5)
    return parser


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover - CLI
    """Serve a replica router, attaching to or spawning a fleet."""
    parser = build_router_parser()
    args = parser.parse_args(argv)
    if bool(args.replica) == bool(args.spawn):
        parser.error("exactly one of --replica or --spawn is required")

    from repro.serving.replica import ReplicaSet

    # Every refusal is a usage error, raised before a replica starts.
    try:
        ReplicaRouter.check_options(
            args.retries, args.retry_backoff_ms, args.health_interval_s
        )
        if args.spawn:
            fleet = ReplicaSet(
                ServingConfig(dataset=args.dataset, backend=args.backend),
                args.spawn,
            )
    except ValueError as exc:
        parser.error(str(exc))

    async def serve(endpoints: List[Tuple[str, int]]) -> None:
        router = ReplicaRouter(
            endpoints,
            host=args.host,
            port=args.port,
            retries=args.retries,
            retry_backoff_ms=args.retry_backoff_ms,
            health_interval_s=args.health_interval_s,
        )
        host, port = await router.start()
        # SIGTERM drains like SIGINT interrupts: serve_forever returns, so a
        # spawned fleet is stopped on the way out of ``with ReplicaSet``.
        install_drain_signal_handler(router)
        print(
            f"routing {len(endpoints)} replicas on http://{host}:{port} "
            f"(retries {args.retries})"
        )
        try:
            await router.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await router.drain()
            await router.stop()

    if args.spawn:
        with fleet:
            endpoints = [spec.address for spec in fleet.replicas]
            try:
                asyncio.run(serve(endpoints))
            except KeyboardInterrupt:
                print("interrupted; stopping fleet")
    else:
        endpoints = []
        for item in args.replica:
            host, _, port = item.rpartition(":")
            endpoints.append((host or "127.0.0.1", int(port)))
        try:
            asyncio.run(serve(endpoints))
        except KeyboardInterrupt:
            print("interrupted; shutting down")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI only
    raise SystemExit(main())
