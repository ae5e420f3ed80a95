"""The asyncio ``ViewServer``: many sessions, one single-writer database.

Concurrency model — everything interesting happens on one event-loop
thread:

* Every client connection is a :class:`_Session` with a reader task
  (decode frames, dispatch requests) and a writer task (drain the
  session's outbound queue to the socket).
* Every database-touching operation — mutations *and* reads — is a job
  submitted to the **apply loop**, a single task consuming an
  :class:`asyncio.Queue`.  Jobs run one at a time on the loop thread,
  so the engine only ever sees serial access: updates from concurrent
  sessions interleave at batch granularity, and a read observes a full
  snapshot (never a half-applied batch).  Mutating jobs stamp a
  monotone ``applied_index`` returned on the reply, which is the total
  order clients can replay against an oracle.
* Every subscribed view has one **feed** (:class:`_Feed`): the only
  :meth:`Database.subscribe` registration the server holds for that view
  (``deliver_mutations=True``), owning the resume ring and the view's
  subscribers.  Its callback fires synchronously inside the apply job
  that flushed the view, on the loop thread, wraps the refresh in one
  shared :class:`_Push` and enqueues *that same object* onto the session
  queue of each subscriber — so enqueue order equals refresh order
  equals wire order, and a refresh costs O(1) per subscriber.
* The writer task turns queue entries into bytes.  A push's
  subscriber-independent JSON (``"view": … "mutations": […]}``) is
  encoded at most once, at its first dequeue by whichever session gets
  there first; a subscriber's frame is ``length ‖ {"type":"delta",
  "subscription":<id>, ‖ shared bytes`` — a splice, not an encode.  Each
  wake-up drains everything already queued for the session (up to
  :data:`WRITE_BATCH_BYTES`) into one ``write`` and one ``drain()``.

Backpressure: each subscriber carries a bound, ``limit``, on frames
queued but not yet handed to the transport; the transport itself buffers
at most its high-water mark plus one gathered write per session
(:data:`WRITE_BATCH_BYTES` and the frame that crossed it — where it was
one frame when every frame was written alone).  A slow consumer (socket
full, client not reading) makes the writer task block in ``drain()``
while refreshes keep arriving; when a subscriber's ``in_flight`` count
hits its limit the server applies the policy the client chose at
subscribe time:

* ``"coalesce"`` (default) — fold the new refresh into the newest
  still-queued delta entry: the entry stops sharing the view's push and
  becomes a private ``coalesced`` reset frame covering
  ``from_sequence..sequence``; the client re-reads the view.  No frame
  is dropped silently; memory per subscriber stays bounded.
* ``"disconnect"`` — push one ``gap`` frame naming the dropped range,
  then close the connection.  For mirrors that must never miss a
  delta and prefer death to staleness.

Resilience (the serving half of the durability story):

* **Idempotent retries** — mutating requests may carry a
  ``(client, seq)`` token; the server keeps a bounded per-client dedup
  ledger of replies and answers a retried token from the ledger (with
  its *original* ``applied_index``) instead of double-applying.  On a
  durable database the token is stamped into the same WAL record as
  the batch (``DurabilityManager.stamp``) and the ledger rides in
  checkpoints, so dedup survives a ``kill -9`` restart.
* **Subscription resume** — ``subscribe(from_sequence=...)`` replays
  missed refreshes from the feed's bounded ring (the same shared pushes,
  spliced behind a ``resumed`` head; the feed outlives its subscribers),
  or falls back to one explicit reset frame naming the missed range.
  Never a silent gap.
* **Protection** — per-request deadlines enforced at the apply loop's
  dequeue point (an expired job is skipped, never half-run), idle
  sessions reaped, and ``max_sessions``/``max_inflight`` admission
  control that sheds with a typed ``overloaded`` + ``retry_after``
  error instead of queuing unboundedly.

Shutdown is graceful: stop accepting, close sessions, drain the apply
loop, cut a final checkpoint when the database is durable.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Optional

from ..api import Database
from ..updates.errors import UpdateError
from .protocol import MAX_FRAME, MUTATING_OPS, PROTOCOL_VERSION, \
    FrameDecoder, ProtocolError, dedup_token, delta_head, delta_payload, \
    encode_frame, error_frame, gap_frame, param, reply_frame, reset_frame, \
    resume_reset_frame, shared_tail, splice_frame, validate_request

__all__ = ["DeadlineExceeded", "Overloaded", "ServerHandle", "ViewServer",
           "start_in_thread"]

#: default per-subscriber bound on queued-but-unwritten push frames
DEFAULT_SUBSCRIBER_LIMIT = 64

#: default per-view resume backlog (refreshes replayable after reconnect)
DEFAULT_BACKLOG = 256

#: a writer wake-up stops gathering queued frames into its one ``write``
#: once it holds this many bytes, then awaits ``drain()`` — asyncio's
#: default high-water mark
WRITE_BATCH_BYTES = 64 * 1024

#: dedup ledger bounds: replies remembered per client / clients tracked
LEDGER_PER_CLIENT = 128
LEDGER_CLIENTS = 4096

_BACKPRESSURE_MODES = ("coalesce", "disconnect")


class Overloaded(Exception):
    """Admission control shed this request; retry after ``retry_after``."""

    def __init__(self, retry_after: float):
        super().__init__(f"server overloaded; retry after "
                         f"{retry_after:.2f}s")
        self.retry_after = retry_after


class DeadlineExceeded(Exception):
    """The request's deadline expired while it was queued; it was
    **not** executed (safe to retry)."""


@dataclass
class _CachedError:
    """An error reply as data: what :func:`_error_of` maps an exception
    to, and the dedup ledger's value for a failed mutation (so a retry
    replays exactly what the first attempt answered).

    Lives at module level so it pickles into durable checkpoints along
    with the rest of the dedup ledger.
    """

    code: str
    message: str
    detail: dict = field(default_factory=dict)

    def frame(self, request_id, **extra) -> dict:
        return error_frame(request_id, self.code, self.message, **extra,
                           **self.detail)


def _error_of(exc: Exception) -> _CachedError:
    """The one exception → error-code table, for live replies and the
    dedup ledger alike (first match wins: ``UpdateError`` is a
    ``ValueError``)."""
    if isinstance(exc, Overloaded):
        return _CachedError("overloaded", str(exc),
                            {"retry_after": exc.retry_after})
    if isinstance(exc, DeadlineExceeded):
        return _CachedError("deadline", str(exc))
    if isinstance(exc, UpdateError):
        return _CachedError("update", str(exc), {"applied": exc.applied})
    if isinstance(exc, KeyError):
        return _CachedError("not_found",
                            str(exc.args[0]) if exc.args else str(exc))
    if isinstance(exc, (ProtocolError, ValueError, RuntimeError)):
        return _CachedError("bad_request", str(exc))
    return _CachedError("internal", f"{type(exc).__name__}: {exc}")


#: every ``server_*`` metric family: (name after the prefix, kind, help)
_METRIC_FAMILIES = (
    ("sessions", "counter", "Client sessions accepted"),
    ("sessions_live", "gauge", "Currently connected client sessions"),
    ("frames_in", "counter", "Frames read from clients"),
    ("frames_out", "counter", "Frames written to clients"),
    ("queue_depth", "gauge", "Outbound frames queued across live sessions"),
    ("push_lag_seconds", "histogram",
     "Refresh-to-socket latency of push frames"),
    ("push_encodes", "counter",
     "Shared push payloads JSON-encoded (at most one per view refresh)"),
    ("socket_writes", "counter", "Writes handed to client transports"),
    ("bytes_out", "counter", "Bytes handed to client transports"),
    ("pushes_coalesced", "counter",
     "Refreshes folded into a queued frame under backpressure"),
    ("subscribers_dropped", "counter",
     "Subscribers disconnected by the strict backpressure policy"),
    ("requests_retried", "counter",
     "Mutating requests that arrived marked as retries"),
    ("requests_deduped", "counter",
     "Retried requests answered from the dedup ledger"),
    ("sessions_reaped", "counter",
     "Idle sessions disconnected by the reaper"),
    ("shed_total", "counter",
     "Requests/connections shed by admission control"),
    ("reconnects", "counter",
     "Sessions re-established by reconnecting clients"),
    ("deadline_expired", "counter", "Requests expired in the apply queue"),
    ("bad_frames", "counter", "Malformed frames answered with bad_frame"),
)


class _ServerMetrics:
    """The ``server_*`` metric handles, resolved once per server: one
    attribute per :data:`_METRIC_FAMILIES` row.  Creating them also makes
    a fresh scrape show every family at zero instead of omitting it."""

    def __init__(self, registry):
        for name, kind, help_text in _METRIC_FAMILIES:
            setattr(self, name,
                    getattr(registry, kind)(f"server_{name}", help_text))


class _Push:
    """One refresh of one view — the object the feed's ring and every
    subscriber's queue entry share.

    ``payload`` is the subscriber-independent part of the delta frame;
    ``tail`` its wire bytes, absent until the first writer dequeues the
    push (so a refresh nobody is sent costs no encode, and an oversized
    one fails in a write loop, which closes that session, instead of in
    the refresh callback, where the registry would swallow the error
    into a silent gap)."""

    __slots__ = ("payload", "tail")

    def __init__(self, event):
        self.payload = delta_payload(event)
        self.tail: Optional[bytes] = None

    @property
    def sequence(self) -> int:
        return self.payload["sequence"]

    def encode(self, max_frame: int) -> bytes:
        self.tail = shared_tail(encode_frame(self.payload, max_frame))
        # The bytes stand for the records from here on; a later coalesce
        # fold reads only the counters.
        self.payload = dict(self.payload, mutations=None)
        return self.tail


class _Feed:
    """One view's fan-out point: the server's only refresh subscription
    on that view, the bounded ring resumes replay from, and the view's
    subscribers across all sessions (keyed by subscription id)."""

    __slots__ = ("view", "ring", "subscribers", "handle")

    def __init__(self, db: Database, view: str, backlog: int):
        self.view = view
        self.ring: deque = deque(maxlen=backlog)
        self.subscribers: dict[int, _Subscriber] = {}
        self.handle = db.subscribe(view, self.publish,
                                   deliver_mutations=True)

    def publish(self, event) -> None:
        """The refresh callback: runs synchronously inside the apply job
        that flushed the view."""
        push = _Push(event)
        self.ring.append(push)
        if self.subscribers:
            now = time.perf_counter()
            # copied: the strict policy detaches subscribers mid-loop
            for subscriber in list(self.subscribers.values()):
                subscriber.session.deliver(subscriber, push, now)

    def replay(self, from_sequence: int, upto: int) -> Optional[list]:
        """The ring's pushes covering ``from_sequence+1 .. upto``
        contiguously, or None when the ring no longer reaches back that
        far (the caller falls back to an explicit reset)."""
        pushes = [push for push in self.ring
                  if from_sequence < push.sequence <= upto]
        if [push.sequence for push in pushes] != \
                list(range(from_sequence + 1, upto + 1)):
            return None
        return pushes

    def detach_all(self) -> None:
        for subscriber in self.subscribers.values():
            subscriber.dropped = True
        self.subscribers.clear()


class _Subscriber:
    """One ``subscribe`` registration on one session."""

    __slots__ = ("id", "view", "mode", "limit", "in_flight", "newest",
                 "enqueued_sequence", "dropped", "session", "feed", "head")

    def __init__(self, sub_id: int, view: str, mode: str, limit: int,
                 baseline_sequence: int, session: "_Session", feed: _Feed):
        self.id = sub_id
        self.view = view
        self.mode = mode
        self.limit = limit
        self.in_flight = 0          # entries queued, not yet dequeued
        self.newest = None          # newest still-queued _Outbound entry
        self.enqueued_sequence = baseline_sequence
        self.dropped = False
        self.session = session
        self.feed = feed
        self.head = delta_head(sub_id)

    def detach(self) -> None:
        """Stop receiving refreshes (idempotent)."""
        self.dropped = True
        self.feed.subscribers.pop(self.id, None)


class _Outbound:
    """One entry of a session's outbound queue.

    ``item`` is a frame dict (replies, errors, gap and reset frames —
    encoded at dequeue time) or a shared :class:`_Push` (spliced behind
    the subscriber's head).  ``resumed`` marks what a resume queued;
    ``at`` is when it was queued, for the push-lag histogram."""

    __slots__ = ("subscriber", "item", "resumed", "at")

    def __init__(self, subscriber, item, resumed, at):
        self.subscriber = subscriber
        self.item = item
        self.resumed = resumed
        self.at = at


class _Session:
    """One client connection: reader task, writer task, outbound queue."""

    def __init__(self, server: "ViewServer", reader, writer,
                 session_id: int):
        self.server = server
        self.reader = reader
        self.writer = writer
        self.id = session_id
        self.queue: asyncio.Queue = asyncio.Queue()
        self.subscribers: dict[int, _Subscriber] = {}
        self.closing = False
        self.last_active = time.monotonic()
        self._deadline_ts: Optional[float] = None
        self._tasks: list[asyncio.Task] = []

    def start(self) -> None:
        self._tasks = [asyncio.ensure_future(self._read_loop()),
                       asyncio.ensure_future(self._write_loop())]

    # -- outbound ----------------------------------------------------------------------

    def send(self, frame: dict) -> None:
        """Enqueue one reply/error/gap frame (loop thread only; the
        writer task drains)."""
        if self.closing:
            return
        self.queue.put_nowait(_Outbound(None, frame, False, 0.0))
        self.server.stats.queue_depth.inc()

    def push(self, subscriber: _Subscriber, item, sequence: int,
             now: float, resumed: bool = False) -> None:
        """Enqueue one push for ``subscriber``: a shared :class:`_Push`
        or a frame dict, standing for refreshes up to ``sequence``."""
        entry = _Outbound(subscriber, item, resumed, now)
        subscriber.in_flight += 1
        subscriber.newest = entry
        subscriber.enqueued_sequence = sequence
        self.queue.put_nowait(entry)
        self.server.stats.queue_depth.inc()

    def deliver(self, subscriber: _Subscriber, push: _Push,
                now: float) -> None:
        """One refresh for one subscriber — the backpressure seam.

        Runs synchronously inside the apply job that flushed the view.
        """
        if subscriber.dropped or self.closing:
            return
        if subscriber.in_flight < subscriber.limit:
            self.push(subscriber, push, push.sequence, now)
            return
        stats = self.server.stats
        incoming = push.payload
        entry = subscriber.newest
        if subscriber.mode == "coalesce" and entry is not None:
            # Fold into the newest still-queued entry (the first fold
            # stops sharing the view's push).  The writer takes entries
            # off the queue on this same loop thread, so replacing the
            # entry's item is race-free.
            item = entry.item
            folded = item.payload if isinstance(item, _Push) else item
            entry.item = reset_frame(
                subscriber.id, subscriber.view,
                folded.get("from_sequence", folded["sequence"]),
                incoming["sequence"], incoming["reason"],
                folded["trees"] + incoming["trees"],
                folded["delta_tuples"] + incoming["delta_tuples"],
                resumed=entry.resumed)
            subscriber.enqueued_sequence = incoming["sequence"]
            stats.pushes_coalesced.inc()
            return
        # Strict policy (or nothing queued to fold into): announce
        # the gap and cut the connection once the queue drains.
        subscriber.detach()
        after = subscriber.enqueued_sequence
        self.send(gap_frame(subscriber.id, subscriber.view, after,
                            incoming["sequence"],
                            incoming["sequence"] - after))
        stats.subscribers_dropped.inc()

    def _encode(self, entry: _Outbound) -> bytes:
        """One queue entry as wire bytes.  A shared push is encoded by
        whichever session dequeues it first; everyone else splices."""
        item = entry.item
        max_frame = self.server.max_frame
        if not isinstance(item, _Push):
            return encode_frame(item, max_frame)
        tail = item.tail
        if tail is None:
            tail = item.encode(max_frame)
            self.server.stats.push_encodes.inc()
        subscriber = entry.subscriber
        return splice_frame(delta_head(subscriber.id, resumed=True)
                            if entry.resumed else subscriber.head,
                            tail, max_frame)

    async def _write_loop(self) -> None:
        stats = self.server.stats
        queue = self.queue
        last = False    # set by the close sentinel, a gap frame or an
        try:            # unencodable frame: flush, then end the session
            while not last:
                entry = await queue.get()
                # Gather everything already queued into one write.
                chunks, queued_at, size = [], [], 0
                while True:
                    if entry is None:
                        last = True
                        break
                    stats.queue_depth.dec()
                    subscriber = entry.subscriber
                    if subscriber is not None:
                        subscriber.in_flight -= 1
                        if entry is subscriber.newest:
                            subscriber.newest = None
                    try:
                        data = self._encode(entry)
                    except ProtocolError:
                        # An unencodable or oversized frame is never
                        # skipped: what precedes it goes out, then the
                        # session closes (a subscriber resumes from the
                        # last sequence it received).
                        last = True
                        break
                    chunks.append(data)
                    size += len(data)
                    if subscriber is not None:
                        queued_at.append(entry.at)
                    elif entry.item.get("type") == "gap":
                        last = True     # strict policy: the gap frame
                        break           # is the connection's last
                    if size >= WRITE_BATCH_BYTES or queue.empty():
                        break
                    entry = queue.get_nowait()
                if not chunks:
                    break
                # Counted before the transport gets the bytes: a client
                # that already holds its reply may read the counters
                # before this thread runs again.
                stats.socket_writes.inc()
                stats.bytes_out.inc(size)
                self.writer.write(b"".join(chunks))
                await self.writer.drain()
                stats.frames_out.inc(len(chunks))
                now = time.perf_counter()
                for at in queued_at:
                    stats.push_lag_seconds.observe(now - at)
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            await self.close()

    # -- inbound -----------------------------------------------------------------------

    async def _read_loop(self) -> None:
        decoder = FrameDecoder(self.server.max_frame)
        stats = self.server.stats
        drain = False           # True: final frames are queued; let the
        try:                    # writer flush them, then tear down
            while True:
                data = await self.reader.read(65536)
                if not data:
                    break
                self.last_active = time.monotonic()
                try:
                    frames = decoder.feed(data)
                except ProtocolError as exc:
                    # Garbage on the wire (bad length prefix, non-JSON
                    # body, oversized frame): one typed error, then a
                    # clean disconnect — never an unhandled task error.
                    stats.bad_frames.inc()
                    self.send(error_frame(None, "bad_frame", str(exc)))
                    drain = True
                    return
                for frame in frames:
                    stats.frames_in.inc()
                    if not await self._handle(frame):
                        drain = True    # _handle queued the last frames
                        return
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        except Exception as exc:   # noqa: BLE001 — sessions must survive
            self.send(_error_of(exc).frame(None))
            drain = True
        finally:
            if drain and not self.closing:
                self.queue.put_nowait(None)   # writer drains, then closes
            else:
                await self.close()

    async def _handle(self, frame: dict) -> bool:
        """Dispatch one request; returns False when the session ends
        (the close sentinel is already queued behind the final reply)."""
        try:
            request_id, op = validate_request(frame)
        except ProtocolError as exc:
            self.server.stats.bad_frames.inc()
            self.send(error_frame(None, "bad_frame", str(exc)))
            return False
        handler = getattr(self, f"_op_{op}", None)
        self._deadline_ts = self.server.deadline_for(frame)
        try:
            if handler is None:
                raise ProtocolError(f"unknown op {op!r}")
            if op in MUTATING_OPS:
                # a mutating handler parses the request and returns the
                # apply job; _mutate runs it and assigns its ticket
                reply = await self._mutate(request_id, frame,
                                           handler(frame))
            else:
                reply = reply_frame(request_id, await handler(frame))
        except Exception as exc:   # noqa: BLE001 — sessions must survive
            reply = _error_of(exc).frame(request_id)
        finally:
            self._deadline_ts = None
        self.send(reply)
        if op == "bye":
            self.queue.put_nowait(None)   # close after the reply
            return False
        return True

    # -- apply-loop access (deadline + idempotency seams) --------------------------------

    async def run(self, job):
        """Submit ``job`` to the apply loop under this request's
        deadline."""
        return await self.server.run(job, deadline_ts=self._deadline_ts)

    async def _mutate(self, request_id, frame: dict, job) -> dict:
        """Run a mutating ``job`` at most once; its reply frame carries
        the mutation's ``applied_index`` ticket.

        A tokened request first consults the server's dedup ledger — a
        hit replays the remembered reply or error (marked ``deduped``,
        with its *original* ``applied_index``) without touching the
        database.  A miss runs the job with the token stamped into the
        same WAL record as the mutation, then remembers the reply (or
        the error) under the token.  Shed/expired requests were never
        executed, so they leave no ledger entry and stay safely
        retryable.
        """
        server = self.server
        token = dedup_token(frame)
        if token is not None:
            if frame.get("retry"):
                server.stats.requests_retried.inc()
            cached = server.ledger_get(token)
            if cached is not None:
                server.stats.requests_deduped.inc()
                if isinstance(cached, _CachedError):
                    return cached.frame(request_id, deduped=True)
                return reply_frame(request_id, {**cached, "deduped": True})

        def ticketed():
            # Jobs are serialized, so the ticket predicted here for the
            # WAL stamp is the one taken once the job succeeds.
            ticket = server.applied_index + 1
            manager = server.db.durability
            with (manager.stamp({"c": token[0], "s": token[1], "a": ticket})
                  if token is not None and manager is not None
                  else contextlib.nullcontext()):
                result = job()
            server.applied_index = ticket
            result["applied_index"] = ticket
            return result

        try:
            result = await self.run(ticketed)
        except Exception as exc:
            if token is not None \
                    and not isinstance(exc, (Overloaded, DeadlineExceeded)):
                server.ledger_put(token, _error_of(exc))
            raise
        if token is not None:
            server.ledger_put(token, result)
        return reply_frame(request_id, result)

    # -- request handlers --------------------------------------------------------------

    async def _op_hello(self, frame: dict) -> dict:
        param(frame, "client", str, "")  # typed, unused: tokens name theirs
        resume = param(frame, "resume", bool, False)
        if resume:
            self.server.stats.reconnects.inc()
        server = self.server
        db = server.db
        views = await self.run(db.views)
        return {"protocol": PROTOCOL_VERSION, "server": "repro-view-server",
                "session": self.id, "views": views, "durable": db.durable,
                "applied_index": server.applied_index,
                "limits": {"max_sessions": server.max_sessions,
                           "max_inflight": server.max_inflight,
                           "request_timeout": server.request_timeout,
                           "backlog": server.backlog}}

    async def _op_ping(self, frame: dict) -> dict:
        return {}

    async def _op_bye(self, frame: dict) -> dict:
        return {}

    def _op_load(self, frame: dict):
        name = param(frame, "name", str)
        xml = param(frame, "xml", str)

        def job():
            self.server.db.load(name, xml)
            return {"documents": self.server.db.documents()}
        return job

    async def _op_documents(self, frame: dict) -> dict:
        return {"documents":
                await self.run(self.server.db.documents)}

    def _op_create_view(self, frame: dict):
        name = param(frame, "name", str)
        query = param(frame, "query", str)
        policy = param(frame, "policy", (str, int), "immediate")

        def job():
            self.server.db.create_view(name, query, policy)
            return {"view": name}
        return job

    def _op_drop_view(self, frame: dict):
        name = param(frame, "name", str)

        def job():
            self.server._drop_feed(name)
            self.server.db.drop_view(name)
            return {}
        return job

    async def _op_views(self, frame: dict) -> dict:
        db = self.server.db

        def job():
            return [{"name": name,
                     "policy": db.view(name).policy.kind,
                     "pending": db.view(name).pending_trees(),
                     "sequence": db.registry.view(name).refresh_sequence}
                    for name in db.views()]
        return {"views": await self.run(job)}

    async def _op_read(self, frame: dict) -> dict:
        name = param(frame, "view", str)
        db = self.server.db

        def job():
            xml = db.read(name)
            return xml, db.registry.view(name).refresh_sequence
        xml, sequence = await self.run(job)
        return {"view": name, "xml": xml, "sequence": sequence}

    async def _op_query(self, frame: dict) -> dict:
        xquery = param(frame, "xquery", str)
        return {"xml": await self.run(
            lambda: self.server.db.query(xquery))}

    def _op_execute(self, frame: dict):
        statement = param(frame, "statement", str)

        def job():
            self.server.db.execute(statement)
            return {}
        return job

    def _op_update(self, frame: dict):
        statements = param(frame, "statements", list)
        if not all(isinstance(s, str) for s in statements):
            raise ProtocolError(
                "parameter 'statements' must be a list of strings")

        def job():
            with self.server.db.batch():
                for statement in statements:
                    self.server.db.execute(statement)
            return {"statements": len(statements)}
        return job

    async def _op_subscribe(self, frame: dict) -> dict:
        view = param(frame, "view", str)
        mode = param(frame, "mode", str, "coalesce")
        limit = param(frame, "limit", int, DEFAULT_SUBSCRIBER_LIMIT)
        from_sequence = param(frame, "from_sequence", int, -1)
        if mode not in _BACKPRESSURE_MODES:
            raise ProtocolError(
                f"parameter 'mode' must be one of {_BACKPRESSURE_MODES}")
        if limit < 1:
            raise ProtocolError("parameter 'limit' must be >= 1")
        sub_id = self.server.next_subscription_id()
        db = self.server.db
        server = self.server

        def job():
            if self.closing:
                # The connection went away while this was queued: nothing
                # may register, close() already ran and could not undo it.
                return None
            feed = server._ensure_feed(view)
            baseline = db.registry.view(view).refresh_sequence
            subscriber = _Subscriber(sub_id, view, mode, limit, baseline,
                                     self, feed)
            result = {"subscription": sub_id, "view": view, "mode": mode,
                      "limit": limit, "sequence": baseline}
            if from_sequence >= 0:
                # The resume seam: replay the missed refreshes from the
                # feed's ring, or one explicit reset frame covering the
                # whole range — never a silent gap.  A from_sequence
                # *ahead* of the view (the server restarted without
                # durable state, regressing sequences) is a reset too.
                # Enqueued inside the apply job, before the subscriber
                # joins the feed — so replayed frames always precede
                # live pushes on the wire, in sequence order.
                now = time.perf_counter()
                pushes = (feed.replay(from_sequence, baseline)
                          if from_sequence < baseline else None)
                if from_sequence == baseline:
                    resumed, replayed = "current", 0    # nothing missed
                elif pushes is not None and len(pushes) <= limit:
                    resumed, replayed = "replay", len(pushes)
                    for push in pushes:
                        self.push(subscriber, push, push.sequence, now,
                                  resumed=True)
                else:
                    resumed, replayed = "reset", 1
                    self.push(subscriber, resume_reset_frame(
                        sub_id, view, from_sequence + 1, baseline),
                        baseline, now, resumed=True)
                result["resumed"] = resumed
                result["replayed"] = replayed
            # Recorded and attached here, not after the await: a session
            # that closes once this has run finds the subscriber in
            # ``self.subscribers`` and detaches it.
            self.subscribers[sub_id] = subscriber
            feed.subscribers[sub_id] = subscriber
            return result
        return await self.run(job)

    async def _op_unsubscribe(self, frame: dict) -> dict:
        sub_id = param(frame, "subscription", int)
        subscriber = self.subscribers.pop(sub_id, None)
        if subscriber is None:
            raise KeyError(f"no subscription {sub_id} on this session")
        subscriber.detach()
        return {"subscription": sub_id}

    async def _op_explain(self, frame: dict) -> dict:
        view = param(frame, "view", str)
        return {"view": view, "text": await self.run(
            lambda: self.server.db.explain(view))}

    async def _op_metrics(self, frame: dict) -> dict:
        return {"metrics": await self.run(
            self.server.db.metrics)}

    async def _op_checkpoint(self, frame: dict) -> dict:
        return {"lsn": await self.run(
            self.server.db.checkpoint)}

    # -- teardown ----------------------------------------------------------------------

    async def close(self) -> None:
        if self.closing:
            return
        self.closing = True
        for subscriber in self.subscribers.values():
            subscriber.detach()
        self.subscribers.clear()
        depth = self.queue.qsize()
        if depth:
            self.server.stats.queue_depth.inc(-depth)
        current = asyncio.current_task()
        for task in self._tasks:
            if task is not current:
                task.cancel()
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self.server._forget(self)


class ViewServer:
    """The network serving layer over one :class:`~repro.api.Database`.

    ``await server.start()`` binds the sockets; ``await server.stop()``
    shuts down gracefully.  ``port``/``http_port`` of 0 pick free ports
    (read the resolved values off the attributes after ``start``).
    """

    def __init__(self, db: Optional[Database] = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 http_port: Optional[int] = None, own_db: bool = False,
                 max_frame: int = MAX_FRAME, max_sessions: int = 4096,
                 max_inflight: int = 1024,
                 request_timeout: Optional[float] = 30.0,
                 idle_timeout: Optional[float] = None,
                 backlog: int = DEFAULT_BACKLOG,
                 retry_after: float = 0.1):
        if db is None:
            db = Database()
            own_db = True
        self.db = db
        self.host = host
        self.port = port
        self.http_port = http_port
        self.own_db = own_db
        self.max_frame = max_frame
        self.max_sessions = max(1, max_sessions)
        self.max_inflight = max(1, max_inflight)
        self.request_timeout = request_timeout
        self.idle_timeout = idle_timeout
        self.backlog = max(1, backlog)
        self.retry_after = retry_after
        self.applied_index = 0
        self.sessions: set[_Session] = set()
        self._session_ids = 0
        self._subscription_ids = 0
        self._ledger: "OrderedDict[str, OrderedDict[int, object]]" = \
            OrderedDict()
        self._feeds: dict[str, _Feed] = {}
        self._apply_queue: Optional[asyncio.Queue] = None
        self._apply_task: Optional[asyncio.Task] = None
        self._reap_task: Optional[asyncio.Task] = None
        self._tcp_server = None
        self._http_server = None
        self._stopped = False
        self.stats = _ServerMetrics(self.metrics)

    @property
    def metrics(self):
        return self.db.registry.metrics

    # -- the single-writer apply loop --------------------------------------------------

    async def run(self, job, *, deadline_ts: Optional[float] = None):
        """Run ``job()`` serialized through the apply loop; await its
        result.  Every database touch — read or write — goes through
        here, which is the whole consistency story.  Raises
        :class:`Overloaded` (without enqueuing) when the apply queue is
        already ``max_inflight`` deep, and :class:`DeadlineExceeded`
        (without executing) when ``deadline_ts`` passes first."""
        if self._apply_queue.qsize() >= self.max_inflight:
            self.stats.shed_total.inc()
            raise Overloaded(self.retry_after)
        loop = asyncio.get_event_loop()
        future = loop.create_future()
        self._apply_queue.put_nowait((job, future, deadline_ts))
        return await future

    def deadline_for(self, frame: dict) -> Optional[float]:
        """The absolute deadline for one request: the client's
        ``deadline_ms`` capped by the server's ``request_timeout``."""
        timeout = self.request_timeout
        deadline_ms = frame.get("deadline_ms")
        if isinstance(deadline_ms, (int, float)) \
                and not isinstance(deadline_ms, bool) and deadline_ms > 0:
            client_timeout = deadline_ms / 1000.0
            timeout = client_timeout if timeout is None \
                else min(timeout, client_timeout)
        if timeout is None:
            return None
        return time.monotonic() + timeout

    async def _apply_loop(self) -> None:
        while True:
            job, future, deadline_ts = await self._apply_queue.get()
            if job is None:
                break
            if deadline_ts is not None \
                    and time.monotonic() > deadline_ts:
                # Expired while queued: the job is skipped, never
                # half-run, so the client can retry it safely.
                self.stats.deadline_expired.inc()
                if not future.cancelled():
                    future.set_exception(DeadlineExceeded(
                        "deadline expired before the request ran "
                        "(not executed; safe to retry)"))
                continue
            try:
                result = job()
            except Exception as exc:   # noqa: BLE001 — surfaced per-job
                if not future.cancelled():
                    future.set_exception(exc)
            else:
                if not future.cancelled():
                    future.set_result(result)
            # Queue.get returns without yielding while the queue is
            # non-empty; without this a deep backlog would starve the
            # loop's IO (no reads, no replies, no shedding) until
            # it fully drained.
            await asyncio.sleep(0)

    # -- the dedup ledger (idempotent retries) ------------------------------------------

    def ledger_get(self, token: tuple):
        """The remembered reply for ``(client, seq)``, or None."""
        client, seq = token
        per_client = self._ledger.get(client)
        if per_client is None:
            return None
        self._ledger.move_to_end(client)
        return per_client.get(seq)

    def ledger_put(self, token: tuple, reply) -> None:
        """Remember one reply, evicting LRU entries past the bounds."""
        client, seq = token
        per_client = self._ledger.get(client)
        if per_client is None:
            per_client = self._ledger[client] = OrderedDict()
        else:
            self._ledger.move_to_end(client)
        per_client[seq] = reply
        while len(per_client) > LEDGER_PER_CLIENT:
            per_client.popitem(last=False)
        while len(self._ledger) > LEDGER_CLIENTS:
            self._ledger.popitem(last=False)

    def _server_state(self) -> dict:
        """The serving state that rides inside durable checkpoints."""
        return {"applied_index": self.applied_index,
                "ledger": [(client, list(per.items()))
                           for client, per in self._ledger.items()]}

    def _adopt_durable_state(self) -> None:
        """Rebuild applied_index + dedup ledger after durable recovery,
        and register so future checkpoints carry them."""
        manager = self.db.durability
        if manager is None:
            return
        state = manager.recovered_server_state
        if state:
            self.applied_index = state.get("applied_index", 0)
            for client, entries in state.get("ledger", ()):
                for seq, reply in entries:
                    self.ledger_put((client, seq), reply)
        report = manager.last_recovery
        if report is not None:
            # Every successfully replayed WAL record was one mutation
            # ticket in the pre-crash order.
            replayed_ok = report.wal_records_replayed \
                - report.replay_errors
            self.applied_index += replayed_ok
        for meta in manager.recovered_batch_meta:
            # A WAL-tail mutation carried its token in the same record;
            # remember a minimal reply so a post-restart retry dedups
            # instead of double-applying.  The full original reply is
            # gone, but the ticket — the part replays must agree on —
            # survives.
            self.applied_index = max(self.applied_index, meta["a"])
            self.ledger_put((meta["c"], meta["s"]),
                            {"applied_index": meta["a"],
                             "recovered": True})
        manager.server_state_provider = self._server_state

    # -- per-view feeds (push fan-out + subscription resume) -----------------------------

    def _ensure_feed(self, view: str) -> _Feed:
        """The feed of ``view``, created on its first ``subscribe`` and
        kept — capturing refreshes into its ring whether or not anyone
        is subscribed — until the view is dropped (apply-job context)."""
        feed = self._feeds.get(view)
        if feed is not None and feed.handle.active:
            return feed
        # none yet, or the view was dropped behind the server's back
        # (in-process ``db.drop_view``), which cancelled the handle
        self._drop_feed(view)
        feed = self._feeds[view] = _Feed(self.db, view, self.backlog)
        return feed

    def _drop_feed(self, view: str) -> None:
        feed = self._feeds.pop(view, None)
        if feed is not None:
            feed.handle.cancel()
            feed.detach_all()

    # -- idle-session reaping -------------------------------------------------------------

    async def _reap_loop(self) -> None:
        interval = min(1.0, self.idle_timeout / 2)
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for session in list(self.sessions):
                if session.closing or session.subscribers:
                    continue    # subscribers legitimately sit idle
                if now - session.last_active > self.idle_timeout:
                    self.stats.sessions_reaped.inc()
                    session.send(error_frame(
                        None, "idle",
                        f"session idle longer than "
                        f"{self.idle_timeout:g}s"))
                    session.queue.put_nowait(None)   # drain, then close

    # -- lifecycle ---------------------------------------------------------------------

    async def start(self) -> "ViewServer":
        self._adopt_durable_state()
        self._apply_queue = asyncio.Queue()
        self._apply_task = asyncio.ensure_future(self._apply_loop())
        if self.idle_timeout is not None:
            self._reap_task = asyncio.ensure_future(self._reap_loop())
        self._tcp_server = await asyncio.start_server(
            self._on_connection, self.host, self.port)
        self.port = self._tcp_server.sockets[0].getsockname()[1]
        if self.http_port is not None:
            self._http_server = await asyncio.start_server(
                self._on_http, self.host, self.http_port)
            self.http_port = \
                self._http_server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, close sessions, drain the
        apply loop, checkpoint durable state."""
        if self._stopped:
            return
        self._stopped = True
        for listener in (self._tcp_server, self._http_server):
            if listener is not None:
                listener.close()
                await listener.wait_closed()
        if self._reap_task is not None:
            self._reap_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._reap_task
        for session in list(self.sessions):
            await session.close()
        for view in list(self._feeds):
            self._drop_feed(view)
        if self._apply_task is not None:
            self._apply_queue.put_nowait((None, None, None))
            await self._apply_task
        if self.own_db:
            self.db.close()     # durable sessions checkpoint on close
        else:
            if self.db.durable:
                self.db.checkpoint()
            manager = self.db.durability
            if manager is not None \
                    and manager.server_state_provider == self._server_state:
                manager.server_state_provider = None

    def _on_connection(self, reader, writer) -> None:
        if len(self.sessions) >= self.max_sessions:
            # Admission control: shed at the door with a typed error
            # naming how long to back off, instead of queuing work we
            # cannot serve.
            self.stats.shed_total.inc()
            try:
                writer.write(encode_frame(
                    error_frame(None, "overloaded",
                                f"session limit {self.max_sessions} "
                                f"reached",
                                retry_after=self.retry_after),
                    self.max_frame))
                writer.close()
            except (ConnectionError, OSError):
                pass
            return
        self._session_ids += 1
        session = _Session(self, reader, writer, self._session_ids)
        self.sessions.add(session)
        self.stats.sessions.inc()
        self.stats.sessions_live.inc()
        session.start()

    def _forget(self, session: _Session) -> None:
        if session in self.sessions:
            self.sessions.discard(session)
            self.stats.sessions_live.inc(-1)

    def next_subscription_id(self) -> int:
        self._subscription_ids += 1
        return self._subscription_ids

    # -- the HTTP sidecar (Prometheus scrape + health) ---------------------------------

    async def _on_http(self, reader, writer) -> None:
        try:
            request_line = await reader.readline()
            while True:     # drain headers; we only route on the path
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) >= 2 else ""
            if path.startswith("/metrics"):
                body = await self.run(self.db.render_prometheus)
                status, ctype = "200 OK", \
                    "text/plain; version=0.0.4; charset=utf-8"
            elif path.startswith("/healthz"):
                body, status, ctype = "ok\n", "200 OK", "text/plain"
            else:
                body, status, ctype = "not found\n", "404 Not Found", \
                    "text/plain"
            payload = body.encode("utf-8")
            writer.write((f"HTTP/1.1 {status}\r\n"
                          f"Content-Type: {ctype}\r\n"
                          f"Content-Length: {len(payload)}\r\n"
                          f"Connection: close\r\n\r\n").encode("ascii"))
            writer.write(payload)
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


# -- running in a background thread (tests, benchmarks, examples) ----------------------


class ServerHandle:
    """A started server on its own event-loop thread.

    ``host``/``port``/``http_port`` are the bound addresses;
    ``stop()`` shuts the server down and joins the thread.
    """

    def __init__(self, server: ViewServer, loop, thread):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def http_port(self) -> Optional[int]:
        return self.server.http_port

    @property
    def db(self) -> Database:
        return self.server.db

    def stop(self, timeout: float = 10.0) -> None:
        if not self._thread.is_alive():
            return
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop).result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()


def start_in_thread(db: Optional[Database] = None, **kwargs
                    ) -> ServerHandle:
    """Start a :class:`ViewServer` on a fresh event loop in a daemon
    thread and block until its sockets are bound."""
    started = threading.Event()
    holder: dict = {}

    def main():
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = ViewServer(db, **kwargs)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:   # noqa: BLE001 — re-raised below
            holder["error"] = exc
            started.set()
            loop.close()
            return
        holder["loop"] = loop
        holder["server"] = server
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(target=main, daemon=True,
                              name="repro-view-server")
    thread.start()
    if not started.wait(10.0):
        raise RuntimeError("server thread failed to start in time")
    if "error" in holder:
        raise holder["error"]
    return ServerHandle(holder["server"], holder["loop"], thread)
