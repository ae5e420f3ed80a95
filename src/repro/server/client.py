"""The blocking client: request/reply over the wire, push queues.

:class:`ReproClient` holds one socket.  A daemon reader thread decodes
incoming frames and routes them: frames carrying an ``id`` answer a
pending request (the issuing thread is woken), ``delta``/``gap`` push
frames land on the :class:`ClientSubscription` queue they belong to.
Multiple application threads may share one client — writes are locked,
and each in-flight request has its own wait slot — which is exactly how
the stress tests drive concurrent sessions.

Resilience is opt-in via ``reconnect=True``:

* A lost connection is transparently re-established with capped
  exponential backoff; in-flight requests fail over to the retry loop
  instead of surfacing :class:`ConnectionClosed`.
* Every mutating request carries an idempotency token
  ``(client, seq)`` so resends after a timeout or disconnect are safe:
  the server answers a replayed token from its dedup ledger with the
  *original* ``applied_index`` instead of applying twice.
* Live subscriptions resume on the new connection with
  ``subscribe(from_sequence=...)``; the server replays the missed
  refreshes from its backlog or sends one explicit reset frame, and
  the client suppresses any overlap — consumers observe a contiguous
  or explicitly-reset sequence, never a duplicate and never a silent
  gap.
* ``overloaded`` errors honour the server's ``retry_after`` hint, and
  ``deadline`` errors (the request expired unexecuted) retry as well.

Typical use::

    with ReproClient(host, port, reconnect=True) as client:
        client.load("bib.xml", BIB)
        client.create_view("titles", QUERY)
        sub = client.subscribe("titles")
        client.update(['FOR $b IN document("bib.xml")/bib '
                       'UPDATE $b { DELETE book[1] }'])
        frame = sub.get(timeout=5)     # the pushed delta
"""

from __future__ import annotations

import queue
import random
import socket
import threading
import time
import uuid
from typing import Optional

from .protocol import MAX_FRAME, MUTATING_OPS, FrameDecoder, \
    ProtocolError, encode_frame

__all__ = ["ClientSubscription", "ConnectionClosed", "ReproClient",
           "ServerError"]

#: cap on pushes parked for a subscription id we don't know (yet)
_ORPHAN_LIMIT = 256


class ConnectionClosed(ConnectionError):
    """The server went away (EOF, reset, or client-side close)."""


class ServerError(Exception):
    """An error frame answering one of this client's requests."""

    def __init__(self, code: str, message: str, detail: dict):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.detail = detail


class ClientSubscription:
    """Push frames of one subscription, in arrival order.

    ``get`` blocks for the next frame; iteration yields frames until
    the subscription (or connection) closes.  Frames are raw protocol
    dicts: ``type`` is ``"delta"`` or ``"gap"``; a delta with
    ``reset=true`` means the mirror is stale — re-read the view.  On a
    reconnecting client the subscription survives disconnects: resumed
    frames carry ``resumed=true`` and cover the downtime (replay or
    reset — never a silent gap).
    """

    _CLOSED = object()

    def __init__(self, client: "ReproClient", sub_id: int, view: str,
                 baseline_sequence: int, params: Optional[dict] = None):
        self._client = client
        self.id = sub_id
        self.view = view
        self.last_sequence = baseline_sequence
        #: newest sequence placed on the local queue — the resume point
        #: (and the duplicate-suppression watermark) after a reconnect
        self.last_enqueued = baseline_sequence
        self.frames: "queue.Queue" = queue.Queue()
        self.closed = False
        self._params = params or {}

    def get(self, timeout: Optional[float] = None) -> dict:
        """The next push frame; raises :class:`queue.Empty` on timeout,
        :class:`ConnectionClosed` once the stream ends."""
        if self.closed and self.frames.empty():
            raise ConnectionClosed("subscription is closed")
        frame = self.frames.get(timeout=timeout)
        if frame is self._CLOSED:
            # Leave the sentinel in place so every later (or
            # concurrent) caller raises instead of hanging forever.
            self.frames.put(self._CLOSED)
            raise ConnectionClosed("subscription is closed")
        sequence = frame.get("sequence")
        if isinstance(sequence, int):
            self.last_sequence = sequence
        return frame

    def __iter__(self):
        while True:
            try:
                yield self.get()
            except ConnectionClosed:
                return

    def cancel(self) -> None:
        """Unsubscribe server-side and close the local queue.  Safe to
        race an in-flight push and safe to call more than once."""
        if not self.closed:
            try:
                self._client.request("unsubscribe", subscription=self.id)
            except (ConnectionClosed, ServerError, TimeoutError):
                pass
        self._client._forget_subscription(self.id)
        self._close()

    def _close(self) -> None:
        if not self.closed:
            self.closed = True
            self.frames.put(self._CLOSED)


class _Waiter:
    __slots__ = ("event", "frame")

    def __init__(self):
        self.event = threading.Event()
        self.frame = None


def _close_socket(sock) -> None:
    """Force a socket closed so any thread blocked in recv unblocks."""
    if sock is None:
        return
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class ReproClient:
    """A blocking connection to a :class:`~repro.server.ViewServer`.

    ``timeout`` bounds each request/reply round trip and
    ``connect_timeout`` bounds each TCP connect (initial and, with
    ``reconnect=True``, every reconnect attempt).  ``retry_window``
    bounds the total time one :meth:`request` spends retrying across
    disconnects/timeouts/overload before giving up.
    """

    def __init__(self, host: str, port: int, *,
                 timeout: Optional[float] = 30.0,
                 max_frame: int = MAX_FRAME,
                 connect_timeout: float = 10.0, reconnect: bool = False,
                 max_retries: int = 8, backoff: float = 0.05,
                 backoff_cap: float = 2.0,
                 retry_window: Optional[float] = 60.0,
                 client_id: Optional[str] = None,
                 rng: Optional[random.Random] = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_frame = max_frame
        self.connect_timeout = connect_timeout
        self.reconnect = reconnect
        self.max_retries = max(0, max_retries)
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.retry_window = retry_window
        self.client_id = client_id or f"c-{uuid.uuid4().hex[:12]}"
        self._rng = rng if rng is not None else random.Random()
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._next_id = 0
        self._mutation_seq = 0
        self._waiters: dict[int, _Waiter] = {}
        self._subscriptions: dict[int, ClientSubscription] = {}
        self._orphan_pushes: dict[int, list] = {}
        self._closed = False
        self._close_reason: Optional[str] = None
        self._reconnecting = False
        self._connected = threading.Event()
        self._conn_gen = 0
        self._sock = None
        self._reader: Optional[threading.Thread] = None
        self.server_info: dict = {}
        self.reconnects = 0     # completed reconnect round trips
        self._establish(resume=False)

    # -- connection management -----------------------------------------------------------

    def _establish(self, resume: bool) -> None:
        """Connect, start a reader, handshake, resubscribe (on resume),
        then open the gate for waiting requests."""
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.connect_timeout)
        sock.settimeout(None)
        with self._state_lock:
            if self._closed:
                _close_socket(sock)
                raise ConnectionClosed("client is closed")
            self._conn_gen += 1
            generation = self._conn_gen
            self._sock = sock
        reader = threading.Thread(target=self._read_loop,
                                  args=(sock, generation),
                                  daemon=True, name="repro-client")
        self._reader = reader
        reader.start()
        try:
            params = {"client": self.client_id}
            if resume:
                params["resume"] = True
            self.server_info = self._raw_request("hello", **params)
            if resume:
                self._resubscribe()
        except BaseException:
            _close_socket(sock)
            raise
        if resume:
            self.reconnects += 1
        self._connected.set()

    def _resubscribe(self) -> None:
        """Re-register every live subscription on the new connection,
        resuming from its last enqueued sequence."""
        with self._state_lock:
            live = [s for s in self._subscriptions.values()
                    if not s.closed]
        for sub in live:
            params = dict(sub._params, view=sub.view,
                          from_sequence=sub.last_enqueued)
            result = self._raw_request("subscribe", **params)
            new_id = result["subscription"]
            with self._state_lock:
                self._subscriptions.pop(sub.id, None)
                sub.id = new_id
                self._subscriptions[new_id] = sub
                parked = self._orphan_pushes.pop(new_id, [])
            for frame in parked:
                self._enqueue_push(sub, frame)

    def _read_loop(self, sock, generation: int) -> None:
        decoder = FrameDecoder(self.max_frame)
        reason = "connection closed by server"
        try:
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                for frame in decoder.feed(data):
                    self._route(frame)
        except (OSError, ProtocolError) as exc:
            if not self._closed:
                reason = f"connection failed: {exc}"
        finally:
            self._on_connection_lost(generation, reason)

    def _on_connection_lost(self, generation: int, reason: str) -> None:
        with self._state_lock:
            if generation != self._conn_gen:
                return          # a newer connection already took over
            stale = self._sock
        if self._closed or not self.reconnect:
            self._shutdown(reason)
            return
        self._connected.clear()
        self._fail_waiters()
        _close_socket(stale)
        self._spawn_reconnect()

    def _spawn_reconnect(self) -> None:
        with self._state_lock:
            if self._reconnecting or self._closed:
                return
            self._reconnecting = True
        threading.Thread(target=self._reconnect_loop, daemon=True,
                         name="repro-client-reconnect").start()

    def _reconnect_loop(self) -> None:
        delay = max(self.backoff, 0.001)
        try:
            while not self._closed:
                try:
                    self._establish(resume=True)
                    return
                except (OSError, ConnectionClosed, ServerError,
                        TimeoutError, ProtocolError):
                    pass
                # capped exponential backoff with jitter, so a swarm of
                # clients doesn't stampede a recovering server
                time.sleep(min(delay, self.backoff_cap)
                           * (0.5 + self._rng.random()))
                delay = min(delay * 2, self.backoff_cap)
        finally:
            with self._state_lock:
                self._reconnecting = False

    def _fail_waiters(self) -> None:
        with self._state_lock:
            waiters = list(self._waiters.values())
            self._waiters.clear()
        for waiter in waiters:
            waiter.event.set()  # frame stays None -> ConnectionClosed

    # -- the reader thread ---------------------------------------------------------------

    def _route(self, frame: dict) -> None:
        if "id" in frame and frame["id"] is not None:
            with self._state_lock:
                waiter = self._waiters.pop(frame["id"], None)
            if waiter is not None:
                waiter.frame = frame
                waiter.event.set()
            return
        sub_id = frame.get("subscription")
        if isinstance(sub_id, int):
            with self._state_lock:
                subscription = self._subscriptions.get(sub_id)
                if subscription is None:
                    # Push raced ahead of the subscribe() caller
                    # registering its queue — park it (bounded).
                    parked = self._orphan_pushes.setdefault(sub_id, [])
                    if len(parked) < _ORPHAN_LIMIT:
                        parked.append(frame)
                    return
            self._enqueue_push(subscription, frame)
        # id-less error frames (connection-level) surface via _shutdown
        # when the server closes; anything else is ignorable noise.

    def _enqueue_push(self, subscription: ClientSubscription,
                      frame: dict) -> None:
        """Queue one push frame, suppressing resume overlap: a delta at
        or below the watermark is a duplicate of something already
        delivered — unless it is itself a resume frame (which may
        legitimately regress after a non-durable server restart)."""
        if frame.get("type") == "delta":
            sequence = frame.get("sequence")
            if isinstance(sequence, int):
                if frame.get("resumed"):
                    subscription.last_enqueued = sequence
                elif sequence <= subscription.last_enqueued:
                    return
                else:
                    subscription.last_enqueued = sequence
        subscription.frames.put(frame)
        if frame.get("type") == "gap":
            subscription._close()

    def _forget_subscription(self, sub_id: int) -> None:
        with self._state_lock:
            self._subscriptions.pop(sub_id, None)

    def _shutdown(self, reason: str) -> None:
        with self._state_lock:
            if self._close_reason is None:
                self._close_reason = reason
            waiters = list(self._waiters.values())
            self._waiters.clear()
            subscriptions = list(self._subscriptions.values())
            sock = self._sock
        self._connected.set()   # unblock request() gates; they re-check
        for waiter in waiters:
            waiter.event.set()      # frame stays None -> ConnectionClosed
        for subscription in subscriptions:
            subscription._close()
        _close_socket(sock)

    # -- requests ----------------------------------------------------------------------

    def _raw_request(self, op: str, **params) -> dict:
        """One request/reply round trip on the current connection;
        raises :class:`ServerError` / :class:`ConnectionClosed` /
        :class:`TimeoutError` without retrying."""
        with self._state_lock:
            if self._close_reason is not None:
                raise ConnectionClosed(self._close_reason)
            self._next_id += 1
            request_id = self._next_id
            waiter = _Waiter()
            self._waiters[request_id] = waiter
            sock = self._sock
        frame = {"id": request_id, "op": op}
        frame.update(params)
        data = encode_frame(frame, self.max_frame)
        try:
            with self._send_lock:
                sock.sendall(data)
        except OSError as exc:
            with self._state_lock:
                self._waiters.pop(request_id, None)
            raise ConnectionClosed(f"send failed: {exc}") from exc
        if not waiter.event.wait(self.timeout):
            with self._state_lock:
                self._waiters.pop(request_id, None)
            raise TimeoutError(
                f"no reply to {op!r} within {self.timeout}s")
        if waiter.frame is None:
            raise ConnectionClosed(self._close_reason
                                   or "connection lost")
        if waiter.frame.get("type") == "error":
            raise ServerError(waiter.frame.get("code", "unknown"),
                              waiter.frame.get("message", ""),
                              waiter.frame)
        return waiter.frame.get("result", {})

    def request(self, op: str, **params) -> dict:
        """One request; returns the reply's ``result`` or raises
        :class:`ServerError` / :class:`ConnectionClosed`.

        With ``reconnect=True`` this is the resilient path: mutating
        ops get an idempotency token (making resends exactly-once on
        the server), and disconnects, reply timeouts, ``overloaded``
        and ``deadline`` errors retry with exponential backoff + jitter
        until ``max_retries``/``retry_window`` runs out.
        """
        if self._closed:
            raise ConnectionClosed(self._close_reason
                                   or "client is closed")
        if not self.reconnect or op == "bye":
            return self._raw_request(op, **params)
        if op in MUTATING_OPS and "client" not in params:
            with self._state_lock:
                self._mutation_seq += 1
                params = dict(params, client=self.client_id,
                              seq=self._mutation_seq)
        deadline = None if self.retry_window is None \
            else time.monotonic() + self.retry_window
        delay = max(self.backoff, 0.001)
        last_exc: Optional[Exception] = None
        for attempt in range(self.max_retries + 1):
            remaining = None if deadline is None \
                else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                break
            if not self._connected.wait(
                    remaining if remaining is not None else 30.0):
                last_exc = ConnectionClosed(
                    "reconnect did not complete within the retry "
                    "window")
                break
            if self._closed:
                raise ConnectionClosed(self._close_reason
                                       or "client is closed")
            pause = min(delay, self.backoff_cap) \
                * (0.5 + self._rng.random())
            try:
                send = params if attempt == 0 \
                    else dict(params, retry=attempt)
                return self._raw_request(op, **send)
            except ConnectionClosed as exc:
                if self._closed:
                    raise
                last_exc = exc
            except TimeoutError as exc:
                # The reply may be lost or still queued server-side;
                # the token (or read-only semantics) makes the resend
                # safe either way.
                if self._closed:
                    raise
                last_exc = exc
            except ServerError as exc:
                if exc.code == "overloaded":
                    hinted = exc.detail.get("retry_after")
                    if isinstance(hinted, (int, float)) and hinted > 0:
                        pause = max(pause, float(hinted))
                elif exc.code != "deadline":
                    raise   # a real answer — deterministic, don't retry
                last_exc = exc
            time.sleep(pause)
            delay = min(delay * 2, self.backoff_cap)
        assert last_exc is not None
        raise last_exc

    # -- convenience wrappers over the op catalogue ------------------------------------

    def load(self, name: str, xml: str) -> dict:
        return self.request("load", name=name, xml=xml)

    def documents(self) -> list:
        return self.request("documents")["documents"]

    def create_view(self, name: str, query: str,
                    policy="immediate") -> dict:
        return self.request("create_view", name=name, query=query,
                            policy=policy)

    def drop_view(self, name: str) -> dict:
        return self.request("drop_view", name=name)

    def views(self) -> list:
        return self.request("views")["views"]

    def read(self, view: str) -> dict:
        """``{"xml": ..., "sequence": ...}`` — the flushed view."""
        return self.request("read", view=view)

    def query(self, xquery: str) -> str:
        return self.request("query", xquery=xquery)["xml"]

    def execute(self, statement: str) -> dict:
        return self.request("execute", statement=statement)

    def update(self, statements: list) -> dict:
        """Submit a list of XQuery-update strings as one transactional
        batch; the reply carries the server's ``applied_index``."""
        return self.request("update", statements=list(statements))

    def subscribe(self, view: str, *, mode: str = "coalesce",
                  limit: Optional[int] = None) -> ClientSubscription:
        params = {"view": view, "mode": mode}
        if limit is not None:
            params["limit"] = limit
        result = self.request("subscribe", **params)
        sub_id = result["subscription"]
        subscription = ClientSubscription(self, sub_id, view,
                                          result["sequence"],
                                          params=dict(params))
        with self._state_lock:
            self._subscriptions[sub_id] = subscription
            parked = self._orphan_pushes.pop(sub_id, [])
        for frame in parked:
            self._enqueue_push(subscription, frame)
        return subscription

    def explain(self, view: str) -> str:
        return self.request("explain", view=view)["text"]

    def metrics(self) -> dict:
        return self.request("metrics")["metrics"]

    def checkpoint(self) -> int:
        return self.request("checkpoint")["lsn"]

    def ping(self) -> None:
        self.request("ping")

    def close(self) -> None:
        """Say goodbye (best effort) and tear the connection down.
        Idempotent, safe under concurrent callers, and never leaves the
        reader thread stuck: the socket is force-closed (shutdown +
        close) so a blocked ``recv`` always unblocks."""
        with self._state_lock:
            if self._closed:
                already = True
            else:
                already = False
                self._closed = True
        if already:
            return
        if self._connected.is_set():
            try:
                self._raw_request("bye")
            except (ConnectionClosed, ServerError, TimeoutError,
                    OSError, ProtocolError):
                pass
        self._shutdown("closed by client")
        reader = self._reader
        if reader is not None \
                and reader is not threading.current_thread():
            reader.join(timeout=5.0)

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
