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
"""

from __future__ import annotations

from typing import Optional, Tuple

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
    "raise_for_response",
]

#: Version of the query wire protocol (TCP JSON-lines and HTTP JSON bodies
#: share one taxonomy, so they share one version).  Bump on any change a
#: deployed client could mis-parse.
PROTOCOL_VERSION = 1

#: Capabilities of this build, advertised through ``/healthz`` and the
#: ready file so supervisors can check features without probing endpoints.
CAPABILITIES: Tuple[str, ...] = ("query", "drain", "reload", "traces")


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
