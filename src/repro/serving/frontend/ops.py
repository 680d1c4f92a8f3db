"""Everything both front doors answer, written once for both.

The TCP door maps a request's ``op``, the HTTP door a path, onto one table,
:data:`OPS` (``stats``, ``drain``, ``reload``, ``update``, ``traces``); each
adds only its envelope — ``id`` / ``op`` on a TCP line, the status over
HTTP.  A query goes through :func:`parse_query_request`, then
:func:`answer_query`, which returns the encoded response.

A production server cannot restart to change a cache budget, so ``reload``
is **hot config reload**: :func:`apply_reload` validates a dict of overrides
(the JSON body of ``POST /admin/reload``, or the ``config`` field of the TCP
``reload`` op), then applies them to the running frontend:

* ``max_pending`` — the admission bound
  (:meth:`~repro.serving.frontend.admission.AdmissionController.set_max_pending`);
* ``max_batch_size`` / ``dedup`` — the batching policy
  (:meth:`~repro.serving.frontend.batcher.MicroBatcher.set_policy`; the
  batch executing finishes under the old policy);
* ``cache_bytes`` / ``result_cache_bytes`` — the engine-level cache budgets
  (``resize``: shrinking evicts LRU entries, growing keeps everything warm);
* ``trace_sample`` — the tracer's sampling probability
  (:meth:`~repro.serving.tracing.Tracer.set_sample_rate`), so an operator
  can turn tracing up on a misbehaving server and back down afterwards
  without a restart.

Validation is all-or-nothing: every override is checked before anything is
applied, so a reload with one bad field changes nothing.  No query is ever
dropped by a reload — budgets evict cache entries, never answers.

The ``drain`` op only starts the drain; the drain itself is about
connection lifecycles, so it lives once, on the shell both doors extend
(:meth:`~repro.serving.frontend.shell.FrontDoor.drain`).
"""

from __future__ import annotations

import asyncio
import json
import math
import weakref
from dataclasses import replace
from typing import (
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.ppr.base import PPRQuery, PPRResult
from repro.serving.frontend.admission import QueryRejectedError
from repro.serving.frontend.batcher import MicroBatcher
from repro.serving.frontend.protocol import PROTOCOL_VERSION, pack_top
from repro.serving.frontend.request_log import log_request
from repro.utils.validation import check_node_id

__all__ = [
    "OPS",
    "RELOADABLE_KEYS",
    "TracingDisabledError",
    "answer_query",
    "apply_graph_update",
    "apply_reload",
    "frontend_config",
    "parse_query_request",
    "refusal",
    "tracer_of",
]

#: The override keys :func:`apply_reload` understands.
RELOADABLE_KEYS = (
    "max_pending",
    "max_batch_size",
    "dedup",
    "cache_bytes",
    "result_cache_bytes",
    "trace_sample",
)


def _strict_int(value: object, name: str) -> int:
    """A strict JSON-integer check (booleans and floats are bad requests)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _strict_number(value: object, name: str) -> float:
    """A strict JSON-number check (booleans are bad requests)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    return float(value)


def _strict_bool(value: object, name: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a JSON boolean, got {value!r}")
    return value


def parse_query_request(
    request: dict, num_nodes: int
) -> Tuple[PPRQuery, Optional[float], bool]:
    """Validate a query-request dict; returns ``(query, timeout_ms, packed)``.

    Integer fields are strict — ``42.9`` is a bad request, not seed 42, and
    JSON booleans are refused; ``timeout_ms`` must be finite (``json.loads``
    reads ``NaN`` and ``Infinity``) and ``packed`` a JSON boolean.  Bad
    fields raise ``ValueError`` and must never poison a batch.
    """
    if not isinstance(request, dict):
        raise ValueError("request must be a JSON object")
    if "seed" not in request:
        raise ValueError("query request must carry a 'seed'")
    seed = check_node_id(_strict_int(request["seed"], "seed"), num_nodes, "seed")
    query = PPRQuery(
        seed=seed,
        k=_strict_int(request.get("k", 200), "k"),
        alpha=_strict_number(request.get("alpha", 0.85), "alpha"),
        length=_strict_int(request.get("length", 6), "length"),
    )
    timeout_ms = request.get("timeout_ms")
    if timeout_ms is not None:
        timeout_ms = _strict_number(timeout_ms, "timeout_ms")
        if not (math.isfinite(timeout_ms) and timeout_ms > 0):
            raise ValueError(f"timeout_ms must be finite and > 0, got {timeout_ms}")
    packed = _strict_bool(request.get("packed", False), "packed")
    return query, timeout_ms, packed


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
                "(started with --no-cache)"
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
    ``update`` op calls this through ``run_in_executor`` — on the event loop
    it would deadlock against the batch the loop is waiting on.
    """
    if not isinstance(ops, list):
        raise ValueError(
            f"update ops must be a JSON array of edge ops, "
            f"got {type(ops).__name__}"
        )
    return batcher.engine.apply_update(ops)


def refusal(
    request_id: object, message: str, error: str = "bad_request"
) -> Dict[str, object]:
    """A request's refusal, in the protocol's error envelope."""
    return {"id": request_id, "ok": False, "error": error, "message": message}


class TracingDisabledError(ValueError):
    """A traces request to a server without a tracer: a bad request over
    TCP, ``404`` over HTTP."""

    def __init__(self) -> None:
        super().__init__(
            "tracing is disabled; start the server with --trace-sample > 0"
        )


def tracer_of(batcher: MicroBatcher):
    """The engine's tracer; raises :class:`TracingDisabledError` if none."""
    tracer = batcher.engine.tracer
    if tracer is None:
        raise TracingDisabledError()
    return tracer


async def _stats(door, args: dict) -> Dict[str, object]:
    return {"stats": door.batcher.stats().as_dict()}


async def _drain(door, args: dict) -> Dict[str, object]:
    # Acknowledge first, drain as a background task: drain() waits for every
    # connection handler — including the one carrying this very request — so
    # awaiting it here would deadlock.
    asyncio.ensure_future(door.drain())
    return {"draining": True}


async def _reload(door, args: dict) -> Dict[str, object]:
    return apply_reload(door.batcher, args)


async def _update(door, args: dict) -> Dict[str, object]:
    return await asyncio.get_running_loop().run_in_executor(
        None, apply_graph_update, door.batcher, args.get("ops", [])
    )


async def _traces(door, args: dict) -> Dict[str, object]:
    tracer = tracer_of(door.batcher)
    return {"stats": tracer.stats().as_dict(), "traces": tracer.traces()}


#: The live operations both doors answer, by name.  Each takes the door (its
#: ``batcher`` and ``drain``) and the op's JSON object — the overrides for
#: ``reload``, an object carrying ``ops`` for ``update`` — and returns the
#: answer's payload; a bad request raises ``ValueError``.  The door adds
#: its envelope.
OPS: Dict[str, Callable[..., Awaitable[Dict[str, object]]]] = {
    "stats": _stats,
    "drain": _drain,
    "reload": _reload,
    "update": _update,
    "traces": _traces,
}


#: The top-k texts of every answer, by its score vector: ``[json, packed]``,
#: each built on first use.  A vector belongs to one answer (one query, one
#: ``k``), is shared by all its deliveries — a cached answer's replays
#: included — and cannot change, so each form is ranked and encoded once for
#: all of them; both are dropped with the vector.
_TOP_TEXTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _top_json(result: PPRResult, packed: bool = False) -> str:
    """The JSON text of the result's top-k: ``[[node, score], ...]``, or
    with ``packed`` the :func:`~repro.serving.frontend.protocol.pack_top`
    string."""
    texts = _TOP_TEXTS.get(result.scores)
    if texts is None:
        texts = _TOP_TEXTS[result.scores] = [None, None]
    if texts[packed] is None:
        pairs = result.top_k()
        texts[packed] = f'"{pack_top(pairs)}"' if packed else json.dumps(pairs)
    return texts[packed]


async def answer_query(
    batcher: MicroBatcher,
    transport: str,
    traceparent: Optional[str],
    request_id: object,
    query: PPRQuery,
    timeout_ms: Optional[float],
    received: float,
    packed: bool,
) -> Union[Dict[str, object], bytes]:
    """Answer one parsed query request; the same path for both doors.

    Starts the trace (``traceparent`` may force one), submits to the
    batcher, finishes the trace and writes the request-log line labelled
    ``transport``.  A refusal (shed, deadline) or an engine
    failure comes back as the protocol's error dict.  An answer comes back
    **encoded**: the bytes ``json.dumps`` would produce for ``{"id", "ok",
    "seed", "k", "top", "latency_ms"[, "trace_id"], "proto"}``, except that
    the ``"top"`` text is spliced in from :func:`_top_json`, which a cached
    answer encodes once for all its deliveries.  With ``packed`` the field is
    ``"top_packed"`` and its text the packed form.
    """
    loop = asyncio.get_running_loop()
    tracer = batcher.engine.tracer
    ctx = None
    if tracer is not None:
        ctx = tracer.start_trace(
            "request", traceparent=traceparent, transport=transport, seed=query.seed
        )
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
        return refusal(request_id, message, status)
    head = {"id": request_id, "ok": True, "seed": query.seed, "k": query.k}
    tail["proto"] = PROTOCOL_VERSION
    field = "top_packed" if packed else "top"
    return (
        f'{json.dumps(head)[:-1]}, "{field}": {_top_json(result, packed)}, '
        f"{json.dumps(tail)[1:]}"
    ).encode("utf-8")
