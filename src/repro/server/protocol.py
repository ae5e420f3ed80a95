"""The wire protocol: length-prefixed JSON frames.

Every message on a client connection — request, reply, error, push — is
one *frame*: a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 JSON encoding one object.  Frames never nest
and never span; a reader that knows the prefix can skip messages it
does not understand.  The full message catalogue lives in
``docs/WIRE_PROTOCOL.md``; the shapes in brief:

* **request** (client → server): ``{"id": n, "op": "...", ...params}``.
  ``id`` is a client-chosen integer echoed on the reply; ids must be
  unique among the client's in-flight requests.  Mutating requests may
  additionally carry an **idempotency token** — ``"client"`` (a string
  the client picked for its lifetime) plus ``"seq"`` (a per-client
  monotone integer) — letting the server deduplicate retries; resends
  mark themselves with ``"retry": k``.
* **reply** (server → client): ``{"id": n, "type": "reply",
  "result": {...}}``.  A reply replayed from the server's dedup ledger
  carries ``"deduped": true`` inside ``result``.
* **error** (server → client): ``{"id": n, "type": "error", "code":
  "...", "message": "...", ...detail}`` — ``id`` is ``null`` for
  connection-level failures that answer no particular request.
  ``overloaded`` errors carry ``retry_after`` (seconds); ``bad_frame``
  answers a malformed frame and is the connection's last frame.
* **push** (server → client, unsolicited): ``{"type": "delta", ...}``
  frames carry one view refresh to a subscription; ``{"type": "gap",
  ...}`` announces dropped refreshes before the server disconnects a
  subscriber that chose the strict backpressure policy.  A delta with
  ``"resumed": true`` answers a ``subscribe(from_sequence=...)``
  resume — either a backlog replay or an explicit reset covering the
  missed range (never a silent gap).

The module is dependency-free in both directions (the asyncio server
and the blocking client share it), and the delta payload inside a push
frame is exactly the JSON-ready record list captured by the Apply phase
(:mod:`repro.apply.deep_union`) — no re-serialization on the way out.
Everything in a delta frame after ``subscription`` is the same for every
subscriber of the view, so the server encodes it once per refresh
(:func:`delta_payload`, :func:`shared_tail`) and splices it behind each
subscriber's :func:`delta_head` (:func:`splice_frame`); clients see
ordinary frames and must not depend on key order.
"""

from __future__ import annotations

import json
import struct
from typing import Optional

__all__ = ["FrameDecoder", "MAX_FRAME", "MUTATING_OPS", "PROTOCOL_VERSION",
           "ProtocolError", "dedup_token", "delta_frame", "delta_head",
           "delta_payload", "encode_frame", "error_frame", "gap_frame",
           "reply_frame", "reset_frame", "resume_reset_frame",
           "shared_tail", "splice_frame"]

#: protocol revision announced by ``hello`` and checked by clients.
#: Version 2 (backward compatible with 1) adds idempotency tokens on
#: mutating requests, ``subscribe(from_sequence=...)`` resume,
#: ``deadline_ms`` deadlines and the ``overloaded``/``bad_frame``/
#: ``deadline`` error codes.
PROTOCOL_VERSION = 2

#: the ops that change database state: the server answers exactly these
#: with an ``applied_index`` ticket and deduplicates their idempotency
#: tokens, and a reconnecting client tokens exactly these
MUTATING_OPS = frozenset({"load", "create_view", "drop_view", "execute",
                          "update"})

#: default ceiling for one frame's JSON body (64 MiB); both sides
#: refuse larger frames instead of buffering unboundedly
MAX_FRAME = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")
HEADER_SIZE = _HEADER.size


class ProtocolError(Exception):
    """A malformed or oversized frame (either direction)."""


def encode_frame(message: dict, max_frame: int = MAX_FRAME) -> bytes:
    """One message as its wire bytes (header + JSON body)."""
    body = json.dumps(message, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")
    if len(body) > max_frame:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {max_frame}-byte "
            f"limit")
    return _HEADER.pack(len(body)) + body


class FrameDecoder:
    """Incremental frame decoder: feed bytes, collect decoded messages.

    Carries partial frames across ``feed`` calls, so it works unchanged
    over stream sockets, asyncio transports and byte-at-a-time tests.
    """

    def __init__(self, max_frame: int = MAX_FRAME):
        self.max_frame = max_frame
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[dict]:
        """Absorb ``data``; return every now-complete message in order."""
        self._buffer.extend(data)
        messages: list[dict] = []
        while True:
            if len(self._buffer) < HEADER_SIZE:
                return messages
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > self.max_frame:
                raise ProtocolError(
                    f"incoming frame of {length} bytes exceeds the "
                    f"{self.max_frame}-byte limit")
            end = HEADER_SIZE + length
            if len(self._buffer) < end:
                return messages
            body = bytes(self._buffer[HEADER_SIZE:end])
            del self._buffer[:end]
            try:
                message = json.loads(body)
            except ValueError as exc:
                raise ProtocolError(f"frame body is not JSON: {exc}") \
                    from exc
            if not isinstance(message, dict):
                raise ProtocolError(
                    f"frame body must be a JSON object, got "
                    f"{type(message).__name__}")
            messages.append(message)


# -- message constructors ----------------------------------------------------------------


def reply_frame(request_id, result: dict) -> dict:
    return {"id": request_id, "type": "reply", "result": result}


def error_frame(request_id, code: str, message: str, **detail) -> dict:
    frame = {"id": request_id, "type": "error", "code": code,
             "message": message}
    frame.update(detail)
    return frame


def delta_payload(event) -> dict:
    """The subscriber-independent fields of a delta frame for one
    :class:`~repro.multiview.RefreshEvent` — everything after
    ``subscription``.

    ``mutations`` is the Apply phase's captured record list (or ``null``
    when the refresh recomputed the extent / capture yielded nothing to
    replay); ``reset`` tells the subscriber its mirror is stale and must
    be rebuilt by re-reading the view.
    """
    mutations = event.mutations
    reset = event.reason == "recompute" or mutations is None
    return {"view": event.view,
            "sequence": event.sequence,
            "reason": event.reason,
            "trees": event.trees,
            "delta_tuples": event.delta_tuples,
            "reset": reset,
            "mutations": None if reset else list(mutations)}


def delta_frame(subscription_id: int, event) -> dict:
    """A push frame for one refresh event, as a dict: the subscriber's
    head fields plus :func:`delta_payload`.  The server never builds it
    (it splices, below); it is the reference a spliced frame decodes to.
    """
    return {"type": "delta", "subscription": subscription_id,
            **delta_payload(event)}


# -- encode once, splice per subscriber: decodes to ``delta_frame``'s dict ---------------


def delta_head(subscription_id: int, resumed: bool = False) -> bytes:
    """The per-subscriber opening of a delta frame's JSON body, up to
    and including the comma before the shared payload."""
    return (b'{"type":"delta","subscription":%d,%s'
            % (subscription_id, b'"resumed":true,' if resumed else b""))


def shared_tail(encoded_payload: bytes) -> bytes:
    """What follows any subscriber's :func:`delta_head`: the encoded
    payload frame (``encode_frame(delta_payload(event))``) without its
    length prefix and opening brace."""
    return encoded_payload[HEADER_SIZE + 1:]


def splice_frame(head: bytes, tail: bytes,
                 max_frame: int = MAX_FRAME) -> bytes:
    """One subscriber's wire frame: length prefix ‖ head ‖ tail."""
    size = len(head) + len(tail)
    if size > max_frame:
        raise ProtocolError(
            f"frame of {size} bytes exceeds the {max_frame}-byte limit")
    return _HEADER.pack(size) + head + tail


def gap_frame(subscription_id: int, view: str, after_sequence: int,
              sequence: int, dropped: int) -> dict:
    """The strict policy's parting frame: refreshes
    ``after_sequence+1 .. sequence`` were dropped; the connection closes
    after this frame."""
    return {"type": "gap",
            "subscription": subscription_id,
            "view": view,
            "after_sequence": after_sequence,
            "sequence": sequence,
            "dropped": dropped}


def reset_frame(subscription_id: int, view: str, from_sequence: int,
                sequence: int, reason: str, trees: int = 0,
                delta_tuples: int = 0, resumed: bool = False) -> dict:
    """Every unshared delta frame: one ``coalesced`` reset standing for
    the refreshes ``from_sequence..sequence`` (the client re-reads the
    view).  The backpressure fold builds it from the refreshes it
    merges, the resume fallback from the range a resume missed."""
    frame = {"type": "delta",
             "subscription": subscription_id,
             "view": view,
             "sequence": sequence,
             "reason": reason,
             "trees": trees,
             "delta_tuples": delta_tuples,
             "reset": True,
             "coalesced": True,
             "from_sequence": from_sequence,
             "mutations": None}
    if resumed:
        frame["resumed"] = True
    return frame


def resume_reset_frame(subscription_id: int, view: str,
                       from_sequence: int, sequence: int) -> dict:
    """The resume fallback: the backlog no longer reaches back to the
    subscriber's ``from_sequence``, so one explicit reset frame stands
    for the whole missed range and the client re-reads the view.  Never
    a silent gap: the frame names exactly what it covers."""
    return reset_frame(subscription_id, view,
                       min(from_sequence, sequence), sequence, "resume",
                       resumed=True)


def dedup_token(frame: dict) -> Optional[tuple]:
    """The request's idempotency token ``(client, seq)``, or ``None``
    when the client sent none; raises on a half-present or mistyped
    token (silently ignoring one would break at-most-once)."""
    client = frame.get("client")
    seq = frame.get("seq")
    if client is None and seq is None:
        return None
    if not isinstance(client, str) or isinstance(seq, bool) \
            or not isinstance(seq, int):
        raise ProtocolError(
            "an idempotency token needs a string 'client' and an "
            "integer 'seq'")
    return (client, seq)


def validate_request(frame: dict) -> tuple[int, str]:
    """Check the request envelope; returns ``(id, op)`` or raises."""
    request_id = frame.get("id")
    if not isinstance(request_id, int):
        raise ProtocolError("request is missing an integer 'id'")
    op = frame.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request is missing a string 'op'")
    return request_id, op


_MISSING = object()


def param(frame: dict, name: str, kind, default=_MISSING):
    """One typed request parameter; raises :class:`ProtocolError` naming
    the offending parameter when absent (and no default) or mistyped."""
    value = frame.get(name, _MISSING)
    if value is _MISSING:
        if default is _MISSING:
            raise ProtocolError(f"request needs a {name!r} parameter")
        return default
    if kind is int and isinstance(value, bool):
        raise ProtocolError(f"parameter {name!r} must be an int")
    if not isinstance(value, kind):
        expected = (kind.__name__ if isinstance(kind, type)
                    else "/".join(k.__name__ for k in kind))
        raise ProtocolError(f"parameter {name!r} must be {expected}")
    return value
