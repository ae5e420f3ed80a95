"""ChaosProxy: a fault-injecting TCP proxy for the serving layer.

``tests/faults.py`` injects the classic storage failure modes at the
filesystem seam; this module is its twin at the *network* seam.  A
:class:`ChaosProxy` sits between a real :class:`ReproClient` and a real
:class:`ViewServer` (nothing mocked, real sockets on both sides) and
injects:

* **connection drops** — :meth:`sever_all` cuts every live link at an
  arbitrary moment (mid-frame included), and ``sever_after_chunks``
  cuts each link on its own after N forwarded chunks;
* **frame truncation** — a severed link can first forward a prefix of
  its final chunk (``truncate_on_sever``), so the victim sees a torn
  frame, not just EOF;
* **frame splitting** — ``split_frames`` forwards in small random
  slices, exercising every partial-feed path in ``FrameDecoder``;
* **delays** — ``delay`` sleeps (jittered) before each forward;
* **blackholes** — :meth:`blackhole` swallows traffic silently in both
  directions (connections stay up, bytes vanish), which is what makes
  clients *time out* rather than observe an error;
* **refusal / retargeting** — :meth:`refuse` turns away new
  connections (a dead server), :meth:`retarget` points new connections
  at a different port (a server restarted elsewhere, invisible to the
  client behind its stable proxy address).

Everything random draws from one seeded ``random.Random`` so a failing
schedule replays exactly.
"""

from __future__ import annotations

import contextlib
import random
import socket
import threading
import time

__all__ = ["ChaosProxy"]


class _Link:
    """One proxied connection: two pump threads, one shared teardown."""

    def __init__(self, proxy: "ChaosProxy", client_sock, server_sock):
        self.proxy = proxy
        self.client_sock = client_sock
        self.server_sock = server_sock
        self._closed = False
        self._lock = threading.Lock()
        self._chunks = 0
        self._threads = [
            threading.Thread(target=self._pump,
                             args=(client_sock, server_sock, "c2s"),
                             daemon=True, name="chaos-c2s"),
            threading.Thread(target=self._pump,
                             args=(server_sock, client_sock, "s2c"),
                             daemon=True, name="chaos-s2c"),
        ]

    def start(self) -> None:
        for thread in self._threads:
            thread.start()

    def _pump(self, src, dst, direction) -> None:
        proxy = self.proxy
        try:
            while True:
                data = src.recv(16384)
                if not data:
                    break
                if (proxy.blackhole_c2s if direction == "c2s"
                        else proxy.blackhole_s2c):
                    continue            # bytes vanish; links stay up
                if proxy.delay:
                    time.sleep(proxy.delay
                               * (0.5 + proxy._draw().random()))
                with self._lock:
                    self._chunks += 1
                    cut = (proxy.sever_after_chunks
                           and self._chunks >= proxy.sever_after_chunks)
                if cut:
                    if proxy.truncate_on_sever and len(data) > 1:
                        # a torn frame: forward a prefix, then die
                        keep = 1 + proxy._draw().randrange(len(data) - 1)
                        dst.sendall(data[:keep])
                    proxy.severed += 1
                    break
                if proxy.split_frames:
                    view = memoryview(data)
                    while view:
                        step = 1 + proxy._draw().randrange(
                            min(len(view), 7))
                        dst.sendall(view[:step])
                        view = view[step:]
                else:
                    dst.sendall(data)
                proxy.bytes_forwarded += len(data)
        except OSError:
            pass
        finally:
            self.close()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for sock in (self.client_sock, self.server_sock):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        self.proxy._forget(self)


class ChaosProxy:
    """A TCP proxy in front of one server, with fault knobs.

    Connect clients to ``(proxy.host, proxy.port)``; each accepted
    connection is bridged to the current target.  All knobs apply
    immediately to live links (and to future ones).
    """

    def __init__(self, target_port: int, *,
                 target_host: str = "127.0.0.1", seed: int = 0):
        self.target_host = target_host
        self.target_port = target_port
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        # fault knobs (plain attributes; toggled from the test thread)
        self.delay = 0.0
        self.split_frames = False
        self.blackhole_c2s = False
        self.blackhole_s2c = False
        self.refusing = False
        self.sever_after_chunks = 0
        self.truncate_on_sever = False
        # observability for assertions
        self.accepted = 0
        self.refused = 0
        self.severed = 0
        self.bytes_forwarded = 0
        self._links: set[_Link] = set()
        self._lock = threading.Lock()
        self._closed = False
        self._listener = socket.socket(socket.AF_INET,
                                       socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET,
                                  socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(128)
        self.host, self.port = self._listener.getsockname()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="chaos-accept")
        self._accept_thread.start()

    def _draw(self) -> random.Random:
        # Random is not thread-safe across pumps; hand each draw a
        # child generator seeded deterministically from the parent.
        with self._rng_lock:
            return random.Random(self._rng.getrandbits(32))

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                client_sock, _ = self._listener.accept()
            except OSError:
                return
            if self.refusing or self._closed:
                self.refused += 1
                try:
                    client_sock.close()
                except OSError:
                    pass
                continue
            try:
                server_sock = socket.create_connection(
                    (self.target_host, self.target_port), timeout=5.0)
            except OSError:
                self.refused += 1
                try:
                    client_sock.close()
                except OSError:
                    pass
                continue
            self.accepted += 1
            link = _Link(self, client_sock, server_sock)
            with self._lock:
                self._links.add(link)
            link.start()

    def _forget(self, link: _Link) -> None:
        with self._lock:
            self._links.discard(link)

    # -- controls (called from the test thread) ------------------------------------------

    def sever_all(self) -> int:
        """Cut every live link right now; returns how many died."""
        with self._lock:
            links = list(self._links)
        for link in links:
            self.severed += 1
            link.close()
        return len(links)

    def blackhole(self, on: bool = True,
                  direction: str = "both") -> None:
        """Silently swallow traffic on all links.  ``direction`` is
        ``"c2s"``, ``"s2c"`` or ``"both"`` — an s2c-only blackhole is
        how a request *applies* but its reply is lost, the scenario
        idempotency tokens exist for."""
        if direction in ("c2s", "both"):
            self.blackhole_c2s = on
        if direction in ("s2c", "both"):
            self.blackhole_s2c = on

    def refuse(self, on: bool = True) -> None:
        """Turn away new connections (existing links unaffected)."""
        self.refusing = on

    def retarget(self, port: int, host: str = "127.0.0.1") -> None:
        """Point *new* connections at a different backend — the shape
        of a server restarted on another port behind a stable VIP."""
        self.target_host = host
        self.target_port = port

    @property
    def live_links(self) -> int:
        with self._lock:
            return len(self._links)

    def stop(self) -> None:
        if self._closed:
            return
        self._closed = True
        # close() alone leaves the accept thread blocked in accept();
        # shutdown() wakes it, so stop() joins it instead of timing out
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._listener.close()
        self.sever_all()
        self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()
