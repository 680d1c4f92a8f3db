"""Live operations shared by the TCP and HTTP front doors.

A production server cannot restart to change a cache budget, and it cannot
drop in-flight queries to shut down.  This module implements the first half
of that contract — **hot config reload** — as one transport-agnostic
function: :func:`apply_reload` validates a dict of overrides (the JSON body
of ``POST /admin/reload``, or the ``config`` field of the TCP ``reload``
op), then applies them to the running frontend:

* ``max_pending`` — the admission bound
  (:meth:`~repro.serving.frontend.admission.AdmissionController.set_max_pending`);
* ``max_batch_size`` / ``max_wait_ms`` / ``dedup`` — the batching policy
  (:meth:`~repro.serving.frontend.batcher.MicroBatcher.set_policy`; the
  batch executing finishes under the old policy; ``max_wait_ms`` is
  deprecated — validated and reported, ignored by the scheduler);
* ``cache_bytes`` / ``result_cache_bytes`` — the engine-level cache budgets
  (``resize``: shrinking evicts LRU entries, growing keeps everything warm);
* ``trace_sample`` — the tracer's sampling probability
  (:meth:`~repro.serving.tracing.Tracer.set_sample_rate`), so an operator
  can turn tracing up on a misbehaving server and back down afterwards
  without a restart.

Validation is all-or-nothing: every override is checked before anything is
applied, so a reload with one bad field changes nothing.  No query is ever
dropped by a reload — budgets evict cache entries, never answers.

Graceful drain, the other half, lives on the servers themselves
(:meth:`~repro.serving.frontend.server.AsyncQueryServer.drain`,
:meth:`~repro.serving.frontend.http.HttpQueryServer.drain`) because it is
about connection lifecycles, which only the transport knows.

:func:`answer_query` is the other thing both doors share: everything that
happens to a query once its request has been parsed, ending in the encoded
response.
"""

from __future__ import annotations

import asyncio
import json
import weakref
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.ppr.base import PPRQuery, PPRResult
from repro.serving.frontend.admission import QueryRejectedError
from repro.serving.frontend.batcher import MicroBatcher
from repro.serving.frontend.protocol import PROTOCOL_VERSION
from repro.serving.frontend.request_log import log_request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.serving.frontend.recorder import WorkloadRecorder

__all__ = [
    "RELOADABLE_KEYS",
    "answer_query",
    "apply_graph_update",
    "apply_reload",
    "frontend_config",
]

#: The override keys :func:`apply_reload` understands.
RELOADABLE_KEYS = (
    "max_pending",
    "max_batch_size",
    "max_wait_ms",
    "dedup",
    "cache_bytes",
    "result_cache_bytes",
    "trace_sample",
)


def _strict_int(value: object, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _strict_number(value: object, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    return float(value)


def _strict_bool(value: object, name: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a JSON boolean, got {value!r}")
    return value


def frontend_config(batcher: MicroBatcher) -> Dict[str, object]:
    """The currently effective reloadable configuration, as one dict.

    The shape mirrors what :func:`apply_reload` accepts, so an operator can
    ``GET`` it (it is embedded in reload responses), tweak a field and
    ``POST`` it back.
    """
    engine = batcher.engine
    return {
        "max_pending": batcher.admission.max_pending,
        "max_batch_size": batcher.policy.max_batch_size,
        "max_wait_ms": batcher.policy.max_wait_ms,
        "dedup": batcher.policy.dedup,
        "cache_bytes": None if engine.cache is None else engine.cache.max_bytes,
        "result_cache_bytes": (
            None if engine.result_cache is None else engine.result_cache.max_bytes
        ),
        "trace_sample": (
            None if engine.tracer is None else engine.tracer.sample_rate
        ),
    }


def apply_reload(
    batcher: MicroBatcher, overrides: Dict[str, object]
) -> Dict[str, object]:
    """Validate and apply a hot-reload override dict; returns the outcome.

    Parameters
    ----------
    batcher:
        The running frontend (its admission controller, policy and engine
        caches are the reload targets).
    overrides:
        A dict of :data:`RELOADABLE_KEYS`.  Unknown keys, wrongly typed
        values and out-of-range values all raise ``ValueError`` **before**
        anything is applied.

    Returns
    -------
    dict
        ``{"applied": [keys...], "evicted": {cache: n, ...},
        "config": {effective config after the reload}}``.

    Raises
    ------
    ValueError
        On any invalid override — including resizing a cache the engine
        does not have (``cache_bytes`` with caching off is a config error
        the operator should hear about, not a silent no-op).
    """
    if not isinstance(overrides, dict):
        raise ValueError(
            f"reload config must be a JSON object, got {type(overrides).__name__}"
        )
    unknown = sorted(set(overrides) - set(RELOADABLE_KEYS))
    if unknown:
        raise ValueError(
            f"unknown reload key(s) {unknown}; reloadable keys are "
            f"{sorted(RELOADABLE_KEYS)}"
        )

    engine = batcher.engine

    # ------------------------------------------------------------------
    # Validate everything first: a reload either applies whole or not at all.
    # ------------------------------------------------------------------
    actions: List = []
    applied: List[str] = []
    evicted: Dict[str, int] = {}

    if "max_pending" in overrides:
        max_pending = _strict_int(overrides["max_pending"], "max_pending")
        if max_pending <= 0:
            raise ValueError(f"max_pending must be > 0, got {max_pending}")
        actions.append(
            lambda: batcher.admission.set_max_pending(max_pending)
        )
        applied.append("max_pending")

    policy_fields: Dict[str, object] = {}
    if "max_batch_size" in overrides:
        size = _strict_int(overrides["max_batch_size"], "max_batch_size")
        if size <= 0:
            raise ValueError(f"max_batch_size must be > 0, got {size}")
        policy_fields["max_batch_size"] = size
        applied.append("max_batch_size")
    if "max_wait_ms" in overrides:
        wait = _strict_number(overrides["max_wait_ms"], "max_wait_ms")
        if wait < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {wait}")
        policy_fields["max_wait_ms"] = wait
        applied.append("max_wait_ms")
    if "dedup" in overrides:
        policy_fields["dedup"] = _strict_bool(overrides["dedup"], "dedup")
        applied.append("dedup")
    if policy_fields:
        new_policy = replace(batcher.policy, **policy_fields)
        actions.append(lambda: batcher.set_policy(new_policy))

    if "cache_bytes" in overrides:
        cache_bytes = _strict_int(overrides["cache_bytes"], "cache_bytes")
        if cache_bytes <= 0:
            raise ValueError(f"cache_bytes must be > 0, got {cache_bytes}")
        if engine.cache is None:
            raise ValueError(
                "cache_bytes: this engine has no sub-graph cache to resize "
                "(started with --no-cache, or a stage-task backend owns the "
                "caches worker-side)"
            )
        cache = engine.cache
        actions.append(
            lambda: evicted.__setitem__("cache", cache.resize(cache_bytes))
        )
        applied.append("cache_bytes")

    if "result_cache_bytes" in overrides:
        result_bytes = _strict_int(
            overrides["result_cache_bytes"], "result_cache_bytes"
        )
        if result_bytes <= 0:
            raise ValueError(
                f"result_cache_bytes must be > 0, got {result_bytes}"
            )
        if engine.result_cache is None:
            raise ValueError(
                "result_cache_bytes: this engine has no stage-one result "
                "cache to resize (disabled at startup)"
            )
        result_cache = engine.result_cache
        actions.append(
            lambda: evicted.__setitem__(
                "result_cache", result_cache.resize(result_bytes)
            )
        )
        applied.append("result_cache_bytes")

    if "trace_sample" in overrides:
        rate = _strict_number(overrides["trace_sample"], "trace_sample")
        if not 0.0 <= rate <= 1.0:
            raise ValueError(
                f"trace_sample must be within [0, 1], got {rate}"
            )
        if engine.tracer is None:
            raise ValueError(
                "trace_sample: this engine has no tracer to adjust (start "
                "the server with --trace-sample to attach one)"
            )
        tracer = engine.tracer
        actions.append(lambda: tracer.set_sample_rate(rate))
        applied.append("trace_sample")

    # ------------------------------------------------------------------
    # Apply.  Every action is in-place and non-throwing after validation.
    # ------------------------------------------------------------------
    for action in actions:
        action()

    return {
        "applied": applied,
        "evicted": evicted,
        "config": frontend_config(batcher),
    }


def apply_graph_update(batcher: MicroBatcher, ops: object) -> Dict[str, object]:
    """Apply a streaming edge-update batch through the running frontend.

    The transport-agnostic body of ``POST /admin/update`` and the TCP
    ``update`` op: ``ops`` is the request's edge-op list (dicts like
    ``{"op": "insert", "u": 3, "v": 17}`` straight from JSON), validated and
    applied by :meth:`~repro.serving.engine.QueryEngine.apply_update` under
    the engine's writer barrier.  Invalid batches raise ``ValueError``
    without touching the engine.

    **Blocking**: the writer barrier waits for in-flight batches, so the
    async servers must call this through ``run_in_executor`` — on the event
    loop it would deadlock against the batch the loop is waiting on.
    """
    if not isinstance(ops, list):
        raise ValueError(
            f"update ops must be a JSON array of edge ops, "
            f"got {type(ops).__name__}"
        )
    return batcher.engine.apply_update(ops)


#: ``"top"`` texts of answers that can be served again, by their score
#: vector.  A frozen vector belongs to one cached answer (one query, one
#: ``k``), is shared by all its deliveries and cannot change, so the text is
#: ranked and encoded once for all of them; it is dropped with the vector.
_TOP_TEXTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _top_json(result: PPRResult) -> str:
    """``json.dumps`` of the result's top-k as ``[[node, score], ...]``."""
    text = _TOP_TEXTS.get(result.scores)
    if text is None:
        text = json.dumps(result.top_k())
        if result.scores.frozen:
            _TOP_TEXTS[result.scores] = text
    return text


async def answer_query(
    batcher: MicroBatcher,
    recorder: Optional["WorkloadRecorder"],
    transport: str,
    traceparent: Optional[str],
    request_id: object,
    query: PPRQuery,
    timeout_ms: Optional[float],
    received: float,
) -> Union[Dict[str, object], bytes]:
    """Answer one parsed query request; the same path for both doors.

    Starts the trace (``traceparent`` may force one), records the workload,
    submits to the batcher, finishes the trace and writes the request-log
    line labelled ``transport``.  A refusal (shed, deadline) or an engine
    failure comes back as the protocol's error dict.  An answer comes back
    **encoded**: the bytes ``json.dumps`` would produce for ``{"id", "ok",
    "seed", "k", "top", "latency_ms"[, "trace_id"], "proto"}``, except that
    the ``"top"`` text is spliced in from :func:`_top_json`, which a cached
    answer encodes once for all its deliveries.
    """
    loop = asyncio.get_running_loop()
    tracer = batcher.engine.tracer
    ctx = None
    if tracer is not None:
        ctx = tracer.start_trace(
            "request", traceparent=traceparent, transport=transport, seed=query.seed
        )
    if recorder is not None:
        recorder.record_query(query, timeout_ms=timeout_ms)
    status, message, serving = "ok", "", {}
    try:
        result = await batcher.submit(query, timeout_ms=timeout_ms, trace=ctx)
        serving = result.metadata.get("serving", {})
    except QueryRejectedError as exc:
        status, message = exc.code, str(exc)
    except Exception as exc:  # engine failure: report, keep serving
        status, message = "internal", f"{type(exc).__name__}: {exc}"
    latency_ms = (loop.time() - received) * 1e3
    tail: Dict[str, object] = {"latency_ms": latency_ms}
    if ctx is not None:
        ctx.finish(status=status, latency_ms=latency_ms)
        tail["trace_id"] = ctx.trace_id
    log_request(
        transport,
        status,
        latency_ms=latency_ms,
        request_id=request_id,
        seed=query.seed,
        k=query.k,
        trace_id=tail.get("trace_id"),
        result_cache=serving.get("result_cache"),
        cache_enabled=serving.get("cache_enabled"),
    )
    if status != "ok":
        return {"id": request_id, "ok": False, "error": status, "message": message}
    head = {"id": request_id, "ok": True, "seed": query.seed, "k": query.k}
    tail["proto"] = PROTOCOL_VERSION
    return (
        f'{json.dumps(head)[:-1]}, "top": {_top_json(result)}, '
        f"{json.dumps(tail)[1:]}"
    ).encode("utf-8")
