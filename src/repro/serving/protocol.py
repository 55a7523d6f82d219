"""The serving-tier wire protocol: request/response kinds over shared frames.

The model server speaks the same length-prefixed frames as the shard worker
(:mod:`repro.distributed.codec`), so a message is always ``(kind, meta,
arrays)`` and arrays round-trip bit-exactly — which is what makes a loopback
``ServingClient.predict`` bit-identical to calling ``predict`` on the model
in process.  Every body has the one layout of
:func:`~repro.distributed.codec.pack_message`; any other (such as the
``.npz`` archives older builds sent) is refused, a ``hello`` with an
``error`` frame.

Session shape (one TCP connection):

========== =============================== ================================
request    payload                         response
========== =============================== ================================
``hello``  ``protocol``, ``service``       ``welcome`` (server info meta)
``predict````codes`` int64 array           ``labels`` (+ ``n``)
``ingest`` ``codes`` int64 array           ``labels`` (+ ``n``,
                                           ``snapshot_taken``)
``info``   —                               ``info`` (server info meta)
``snapshot`` —                             ``snapshot`` (``path``)
``reload`` ``path`` (optional)             ``reloaded`` (``path``, ``n_clusters``)
``replicate`` ``seq``                      ``sync`` (model archive bytes +
                                           ``seq``), then a ``delta`` stream
``shutdown`` —                             ``ok``; the server then drains
========== =============================== ================================

**Pipelining (protocol 2).**  A request may carry an integer ``tag`` in its
meta; the response to a tagged request carries the same ``tag`` back, and
tagged responses may arrive in ANY order relative to other tagged requests
on the session.  This lets a client keep many predicts in flight on one
connection (``ServingClient.predict_async`` / ``gather``) while the server
coalesces them into kernel-sized batches.  Untagged requests keep the strict
request/response alternation of protocol 1, so the two styles can be mixed:
an untagged request's reply is the next *untagged* frame on the wire.
Ordering caveat: tagged predicts already in flight when an ``ingest`` is
issued on the same session may be answered from the pre- or post-ingest
state (each individual reply is always an exact post-batch state); call
``gather()`` before ingesting when before/after matters.

**Replication.**  ``replicate`` turns the session into a one-way state
stream: the server answers with a ``sync`` frame carrying the full model
archive (the ``.npz`` snapshot is the shippable unit) and its current ingest
sequence number, then pushes one ``delta`` frame per ingest batch —
``seq``, the raw batch ``codes`` and the ``labels`` the primary assigned.
Replaying a delta (count the coerced codes under the primary's labels,
exact-merge into the ``EngineState``) reproduces the primary's post-batch
state bit-identically, so a replica's reads are exact.

**Durability facts.**  The ``welcome`` and ``info`` metas carry the
server's write-ahead-log state alongside the model facts: ``wal`` (bool),
``wal_sync`` (``"always"``/``"batch"``/``"none"``, ``None`` when off),
``wal_path``, ``wal_records``/``wal_bytes`` (the log's current extent),
``wal_replayed_batches``/``wal_replayed_objects`` (what startup recovery
replayed), and ``snapshot_failures`` (background snapshot errors reported
out-of-band rather than failing acked ingests).  These are additive meta
keys — protocol 2 clients that ignore them are unaffected.  A router's
``info`` nests the same facts from its primary under ``primary_wal``.

Application-level failures (a batch with the wrong feature count, a snapshot
request with no path configured) come back as ``error`` frames carrying the
exception name, message and server-side traceback (plus the request's
``tag``, if any); the session stays open.  Transport-level failures
(malformed frames, disconnects) end the session.

Like the worker protocol, this is trusted-network plumbing: no
authentication or encryption; serve on cluster-internal interfaces only.
"""

from __future__ import annotations

import traceback
from typing import Any, Dict, Optional

from repro.distributed.codec import pack_message
from repro.distributed.transport import TransportError

__all__ = [
    "SERVING_PROTOCOL_VERSION",
    "SERVICE_NAME",
    "REQUEST_KINDS",
    "hello_body",
    "error_body",
    "request_tag",
    "raise_remote_error",
    "check_welcome",
]

#: Version 2 adds tagged (pipelined, out-of-order) requests and the
#: ``replicate`` stream.
SERVING_PROTOCOL_VERSION = 2

#: Distinguishes a model server from a shard worker in the handshake, so a
#: client pointed at the wrong port fails with a message instead of a stall.
SERVICE_NAME = "repro-serving"

REQUEST_KINDS = (
    "predict", "ingest", "info", "snapshot", "reload", "replicate", "shutdown"
)


def hello_body() -> bytes:
    """The client's opening frame."""
    return pack_message(
        "hello", {"protocol": SERVING_PROTOCOL_VERSION, "service": SERVICE_NAME}
    )


def request_tag(meta: Dict[str, Any]) -> Optional[int]:
    """The request's pipelining tag, validated (``None`` when untagged).

    A malformed tag (non-integer, negative) raises :class:`TransportError`:
    the client would have no way to match the response, so the session ends
    rather than wedging on an unmatchable reply.
    """
    tag = meta.get("tag")
    if tag is None:
        return None
    if isinstance(tag, bool) or not isinstance(tag, int) or tag < 0:
        raise TransportError(f"request tag must be a non-negative integer, got {tag!r}")
    return tag


def error_body(
    exc: BaseException, include_traceback: bool = True, tag: Optional[int] = None
) -> bytes:
    """An application error as a response frame (session keeps serving)."""
    meta: Dict[str, Any] = {"error": type(exc).__name__, "message": str(exc)}
    if include_traceback:
        meta["traceback"] = traceback.format_exc()
    if tag is not None:
        meta["tag"] = tag
    return pack_message("error", meta)


def raise_remote_error(meta: Dict[str, Any]) -> None:
    """Re-raise a server-reported ``error`` frame on the client."""
    raise TransportError(
        f"model server raised {meta.get('error', 'an exception')}: "
        f"{meta.get('message', '')}"
        + (
            "\n--- server traceback ---\n" + meta["traceback"]
            if meta.get("traceback")
            else ""
        )
    )


def check_welcome(kind: str, meta: Dict[str, Any], address: Optional[str] = None) -> Dict[str, Any]:
    """Validate the server's handshake reply; returns the server-info meta."""
    where = f" at {address}" if address else ""
    if kind == "error":
        raise_remote_error(meta)
    if kind != "welcome" or meta.get("service") != SERVICE_NAME:
        raise TransportError(
            f"handshake with model server{where} failed: got {kind!r} "
            f"(is that port a `repro serve` server, not a `repro worker`?)"
        )
    if meta.get("protocol") != SERVING_PROTOCOL_VERSION:
        raise TransportError(
            f"model server{where} speaks protocol {meta.get('protocol')!r}, "
            f"this client speaks {SERVING_PROTOCOL_VERSION}"
        )
    return meta
