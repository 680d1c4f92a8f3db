"""Protocol versioning shared by every transport and client.

A replicated fleet is upgraded one process at a time, so a router *will* at
some point talk to a replica speaking a different wire protocol.  Without a
version field that shows up as silent mis-parsing (a missing key, a shifted
status code) attributed to anything but its real cause.  With one, it shows
up as a :class:`ProtocolMismatchError` naming both versions and the peer.

Every server stamps its responses:

* TCP responses carry ``"proto": PROTOCOL_VERSION`` on each JSON line;
* HTTP responses carry an ``X-Repro-Proto`` header — what the replica
  router checks on every ``/query`` it relays, whose body it never parses —
  ``GET /healthz`` also carries ``proto`` in its body, and the
  ``repro_server_info`` metric a ``proto`` label.

Clients (and the replica router's health checks) validate the field with
:func:`check_protocol_version`: a *different* version fails loudly, while an
*absent* field is tolerated by the clients (a pre-versioning peer) but
rejected by the replica router, whose replicas it spawned itself and which
therefore must all carry the field.

Both clients share one failure taxonomy, defined here:
:class:`ClientConnectionError` for the transport,
:class:`ProtocolMismatchError` (and its :class:`MalformedResponseError`) for
a peer that does not speak this protocol, and :func:`raise_for_response`
mapping a refusal onto the frontend's typed errors.

An answer's ranking is JSON ``"top": [[node, score], ...]`` by default.  A
query carrying ``"packed": true`` gets ``"top_packed"`` instead, which
decodes in about half the time: base64 of little-endian ``(int64 node,
float64 score)`` records in rank order, so the record count is the byte
length over 16 (:func:`pack_top`, :func:`unpack_top`).
"""

from __future__ import annotations

import base64
import struct
from typing import List, Optional, Sequence, Tuple

from repro.serving.frontend.admission import (
    DeadlineExceededError,
    QueryShedError,
)

__all__ = [
    "PROTOCOL_VERSION",
    "CAPABILITIES",
    "ClientConnectionError",
    "MalformedResponseError",
    "ProtocolMismatchError",
    "ServerError",
    "check_protocol_version",
    "pack_top",
    "raise_for_response",
    "unpack_top",
]

#: Version of the query wire protocol (TCP JSON-lines and HTTP JSON bodies
#: share one taxonomy, so they share one version).  Bump on any change a
#: deployed client could mis-parse.
PROTOCOL_VERSION = 1

#: Capabilities of this build, advertised through ``/healthz`` and the
#: ready file so supervisors can check features without probing endpoints.
CAPABILITIES: Tuple[str, ...] = ("query", "drain", "reload", "traces")

#: One ``"top_packed"`` record: ``(node, score)``.
_TOP_RECORD = struct.Struct("<qd")


def pack_top(pairs: Sequence[Tuple[int, float]]) -> str:
    """The ``"top_packed"`` text of ranked ``(node, score)`` pairs."""
    raw = b"".join(_TOP_RECORD.pack(node, score) for node, score in pairs)
    return base64.b64encode(raw).decode("ascii")


def unpack_top(text: str) -> List[list]:
    """The ``[[node, score], ...]`` lists a ``"top_packed"`` text encodes:
    equal, pair for pair and bit for bit, to ``json.loads`` of ``"top"``.

    Raises ``ValueError`` for text that is not base64 or whose bytes are
    not whole records.
    """
    raw = base64.b64decode(text, validate=True)
    if len(raw) % _TOP_RECORD.size:
        raise ValueError(f"{len(raw)} bytes are not whole 16-byte records")
    return list(map(list, _TOP_RECORD.iter_unpack(raw)))


class ProtocolMismatchError(RuntimeError):
    """A peer answered with an incompatible protocol version."""

    def __init__(
        self, peer_version: object, source: str, expected: int = PROTOCOL_VERSION
    ) -> None:
        super().__init__(
            f"{source} speaks protocol version {peer_version!r}, this client "
            f"speaks {expected}; refusing to mis-parse a mixed-version fleet"
        )
        self.peer_version = peer_version
        self.expected = expected
        self.source = source


class MalformedResponseError(ProtocolMismatchError):
    """A peer answered a body that does not parse as this protocol's.

    A mismatch like any other — a replica router quarantines the peer —
    raised instead of a bare decode error from deep inside a client.
    """

    def __init__(self, source: str, detail: str) -> None:
        super().__init__(None, source)
        self.args = (f"{source} answered a body that does not parse: {detail}",)


class ServerError(RuntimeError):
    """The server answered ``ok: false`` with a non-rejection error."""

    def __init__(self, error: str, message: str) -> None:
        super().__init__(f"{error}: {message}")
        self.error = error
        self.message = message


class ClientConnectionError(ConnectionError):
    """The transport failed before a complete response arrived.

    Raised uniformly for connection refusal, a peer closing mid-response,
    and writes on a closed client — the failure shapes a replica router
    treats identically (queries are pure reads, so one may be retried
    elsewhere).  Subclasses :class:`ConnectionError`, so ``except
    ConnectionError`` call sites catch it.
    """


def raise_for_response(response: dict) -> dict:
    """Map a protocol response onto the frontend's typed errors.

    Returns the response unchanged when ``ok`` is true; otherwise raises the
    same exception the in-process frontend would have raised
    (:class:`QueryShedError`, :class:`DeadlineExceededError` or
    :class:`ServerError`).
    """
    if response.get("ok"):
        return response
    error = response.get("error", "unknown")
    message = response.get("message", "")
    if error == "shed":
        raise QueryShedError(message=message or "query shed by server")
    if error == "deadline":
        raise DeadlineExceededError(message)
    raise ServerError(error, message)


def check_protocol_version(
    value: object,
    source: str,
    required: bool = False,
) -> Optional[int]:
    """Validate a peer's advertised protocol version.

    Returns the version when compatible.  ``None`` means the peer did not
    advertise one — tolerated unless ``required`` (the replica router
    requires it: it spawned its replicas, so a missing field is itself a
    version skew).  Raises :class:`ProtocolMismatchError` on any other
    version or a malformed value.
    """
    if value is None:
        if required:
            raise ProtocolMismatchError(None, source)
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolMismatchError(value, source)
    if value != PROTOCOL_VERSION:
        raise ProtocolMismatchError(value, source)
    return value
