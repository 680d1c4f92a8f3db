"""The async serving frontend: the request path on top of the compute path.

PR 1/2 built the compute path — a batched :class:`~repro.serving.engine.QueryEngine`
with pluggable backends and sub-graph caches.  This package is
the request-facing layer that turns a stream of individual online queries
into the well-formed batches that engine is optimised for:

* :class:`MicroBatcher` — coalesces ``await submit(query)`` calls into engine
  batches under a :class:`BatchPolicy`, deduplicates identical in-flight
  queries, and enforces per-query deadlines.
* :class:`AdmissionController` — a bounded in-flight queue with explicit
  shedding (:class:`QueryShedError`) and p50/p95/p99 latency telemetry.
* Two clients sharing one failure taxonomy (:class:`ClientConnectionError`,
  :class:`ProtocolMismatchError`, :func:`raise_for_response`) and no retries
  — the replica router owns those: :class:`HttpClientPool`, the HTTP client,
  and :class:`TcpQueryClient`, which goes with the TCP door.
* Two front doors, two codecs on one shell
  (:class:`~repro.serving.frontend.shell.FrontDoor`: listener, connections,
  graceful drain) answering from one op table
  (:data:`~repro.serving.frontend.ops.OPS`):
  :class:`AsyncQueryServer` frames newline-delimited JSON over TCP;
  :class:`HttpQueryServer` frames HTTP/1.1 + JSON and adds a Prometheus
  ``/metrics`` endpoint (:func:`render_prometheus` /
  :func:`parse_prometheus_text`); :class:`HttpClient` is one bare
  connection to it.
* :class:`ReplicaRouter` — the multi-replica front door: consistent-hash
  seed routing over a fleet (see :mod:`repro.serving.replica`), bounded
  retry-with-failover, rolling drain, and aggregated
  ``/stats``/``/metrics``/``/debug/traces``.
* :class:`ServingConfig` / :func:`build_frontend` — the one CLI/config
  surface both server transports (and the replica supervisor) build from;
  one CLI main (``shell.serve_main``) runs either door.
* ``PROTOCOL_VERSION`` — every response (TCP line or HTTP envelope)
  carries a ``proto`` field so mixed-version fleets fail loudly
  (:class:`ProtocolMismatchError`).
* :func:`apply_reload` — hot config reload (admission bound, batch policy,
  cache budgets), one of the shared ops; graceful drain (``drain()``: stop
  accepting, finish every in-flight query) is the shell's.
* :func:`configure_logging` / :func:`log_request` — structured per-request
  logging (``--log-level``/``--log-json`` on both server CLIs), one line
  per answered query carrying the trace id when the query was sampled.
"""

import importlib

from repro.serving.frontend.admission import (
    AdmissionController,
    AdmissionStats,
    DeadlineExceededError,
    QueryRejectedError,
    QueryShedError,
)
from repro.serving.frontend.batcher import BatcherStats, BatchPolicy, MicroBatcher
from repro.serving.frontend.client import TcpQueryClient
from repro.serving.frontend.config import (
    ServingConfig,
    add_serving_arguments,
    build_frontend,
    build_serving_parser,
)
from repro.serving.frontend.metrics import (
    PrometheusScrape,
    parse_prometheus_text,
    render_prometheus,
)
from repro.serving.frontend.ops import (
    RELOADABLE_KEYS,
    apply_graph_update,
    apply_reload,
    frontend_config,
)
from repro.serving.frontend.request_log import (
    REQUEST_LOGGER_NAME,
    configure_logging,
    log_request,
)
from repro.serving.frontend.protocol import (
    CAPABILITIES,
    PROTOCOL_VERSION,
    ClientConnectionError,
    MalformedResponseError,
    ProtocolMismatchError,
    ServerError,
    check_protocol_version,
    raise_for_response,
)
from repro.serving.frontend.shell import write_ready_file

# The door modules are also CLIs (``python -m repro.serving.frontend.http``):
# importing them here would load the running one twice, as a package member
# and as ``__main__``.  Their exports load on first use instead (PEP 562).
_DOORS = {
    "AsyncQueryServer": "server",
    "BaseHttpServer": "http",
    "HttpClient": "http",
    "HttpClientPool": "http",
    "HttpQueryServer": "http",
    "ReplicaRouter": "router",
}


def __getattr__(name: str):
    if name in _DOORS:
        return getattr(importlib.import_module(f"{__name__}.{_DOORS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "AsyncQueryServer",
    "BaseHttpServer",
    "BatchPolicy",
    "BatcherStats",
    "CAPABILITIES",
    "ClientConnectionError",
    "DeadlineExceededError",
    "HttpClient",
    "HttpClientPool",
    "HttpQueryServer",
    "MalformedResponseError",
    "MicroBatcher",
    "PROTOCOL_VERSION",
    "PrometheusScrape",
    "ProtocolMismatchError",
    "QueryRejectedError",
    "QueryShedError",
    "RELOADABLE_KEYS",
    "REQUEST_LOGGER_NAME",
    "ReplicaRouter",
    "ServerError",
    "ServingConfig",
    "TcpQueryClient",
    "add_serving_arguments",
    "apply_graph_update",
    "apply_reload",
    "build_frontend",
    "build_serving_parser",
    "check_protocol_version",
    "configure_logging",
    "frontend_config",
    "log_request",
    "parse_prometheus_text",
    "raise_for_response",
    "render_prometheus",
    "write_ready_file",
]
