"""``served_push``: a ``python -m repro.server`` subprocess under a
one-process, one-thread, two-socket load generator.

Connection A writes (``update`` requests of two statement strings);
connection B holds 16 push subscriptions (8 per view) and only reads.
The **closed loop** sends the next batch when the reply lands; the
**open loop** sends at a frozen rate and times each batch from the
moment it was *due*, so a stall charges every batch queued behind it.
"""

from __future__ import annotations

import os
import random
import re
import selectors
import signal
import socket
import subprocess
import sys
import time

from repro.api import Database
from repro.server.protocol import FrameDecoder, encode_frame
from repro.workloads import xmark

from harness import (CALIBRATE_EVERY, E2E_DIR, SRC_DIR, Budget, Segment,
                     process_cpu_seconds, process_peak_rss_mb)

DOCUMENT = "site.xml"
VIEWS = {"join": xmark.JOIN_QUERY, "sel": xmark.SELECTION_QUERY}

#: frozen constants (see README)
PERSONS = 1000
OPEN_LOOP_RATE = 150.0          # batches/s
SUBSCRIPTIONS_PER_VIEW = 8
SUBSCRIBER_LIMIT = 1_000_000    # large enough that nothing coalesces
OPEN_LOOP_SHARE = 0.6           # of a traced-run leg; the rest is closed loop
OPEN_LOOP_SEGMENTS = 5
CLOSED_LOOP_SEGMENT_BATCHES = 200
WARMUP_BATCHES = 80             # 40 insert/delete cycles
#: auctions with not-yet-existing sellers, inserted once during set-up:
#: inserting person ``newperson<i>`` then *joins* (both views get a real
#: delta) while the batch stays one-sided.  A batch that inserts a person
#: and their auction together makes the join's operator state re-derive
#: both sides (~19 ms instead of ~2.6 ms per batch at 1000 persons), which
#: would bury the server layers this workload exists to expose.
SELLER_POOL = 64

_BANNER = re.compile(r"repro view server on ([\d.]+):(\d+)")
_INSERT_PERSON = ('for $p in document("site.xml")/site/people/person[%d] '
                  'update $p insert %s after $p')
_DELETE_PERSON = ('for $p in document("site.xml")/site/people/person[%d] '
                  'update $p delete $p')
_INSERT_AUCTION = ('for $c in document("site.xml")/site/closed_auctions/'
                   'closed_auction[%d] update $c insert %s after $c')


def served_plan(rng: random.Random, persons: int):
    """Alternate [insert two persons] / [delete both]; every batch
    refreshes both views once."""
    cycle = 0
    while True:
        first, second = sorted(rng.sample(range(1, persons + 1), 2))
        ids = ((2 * cycle) % SELLER_POOL, (2 * cycle + 1) % SELLER_POOL)
        cycle += 1
        yield [_INSERT_PERSON % (first, xmark.new_person_xml(ids[0])),
               _INSERT_PERSON % (second, xmark.new_person_xml(ids[1]))]
        # both inserts resolved against the pre-batch snapshot
        yield [_DELETE_PERSON % (first + 1), _DELETE_PERSON % (second + 2)]


def pool_statements(persons: int) -> list:
    step = max(1, persons // SELLER_POOL)
    return [_INSERT_AUCTION % (1 + (i * step) % persons,
                               xmark.new_closed_auction_xml(i, f"newperson{i}"))
            for i in range(SELLER_POOL)]


class Connection:
    """One client socket speaking the length-prefixed JSON protocol."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = FrameDecoder()
        self.next_id = 0

    def send(self, op: str, **params) -> int:
        self.next_id += 1
        self.sock.sendall(encode_frame({"id": self.next_id, "op": op,
                                        **params}))
        return self.next_id

    def close(self) -> None:
        self.sock.close()


class ServedSession:
    """Server subprocess + load generator; ``setup_seconds`` covers
    generate, boot, connect, create views, subscribe and warm-up."""

    def __init__(self, seed: int, scratch: str, *, persons: int = PERSONS,
                 warmup_batches: int = WARMUP_BATCHES,
                 spans_path: str | None = None):
        self.attempted = 0
        self.failures: list[str] = []
        self.persons = persons
        self.history: list[list] = []       # statement list per batch
        self.due: list[float] = []          # per batch number
        self.reply_at: list[float] = []
        self.push_at: list[float] = []
        self._push_count: list[int] = []
        self.pushed = 0                     # batches whose 16 pushes arrived
        self.replied = 0
        self.lag: list[float] = []          # how late each send ran
        self.decode_seconds = 0.0
        #: server CPU at segment edges: keyed by the batch whose reply
        #: closes a segment, sampled when that reply lands
        self._marks: dict[int, float] = {}
        self._inflight: dict[int, int] = {}  # update request id -> batch
        self._pending: dict[tuple, dict] = {}  # other replies by request
        self._last_sequence: dict[int, int] = {}
        self._baseline: dict[int, int] = {}
        self.process = None
        self.writer = self.subscriber = None
        self.selector = selectors.DefaultSelector()
        started = time.perf_counter()
        try:
            self._boot(seed, scratch, spans_path)
            self.plan = served_plan(random.Random(seed), persons)
            self._setup_views()
            self._send_closed(warmup_batches)
            self._wait(lambda: self.pushed == len(self.due))
        except BaseException:
            self.close()
            raise
        self.setup_seconds = time.perf_counter() - started

    # -- set-up -------------------------------------------------------------------------

    def _boot(self, seed: int, scratch: str, spans_path: str | None) -> None:
        site = os.path.join(scratch, f"site-{seed}-{time.monotonic_ns()}.xml")
        self.site_xml = xmark.generate_site(self.persons, seed=seed)
        with open(site, "w", encoding="utf-8") as handle:
            handle.write(self.site_xml)
        if spans_path is None:
            command = [sys.executable, "-m", "repro.server"]
        else:
            command = [sys.executable,
                       os.path.join(E2E_DIR, "traced_server.py"),
                       "--spans-out", spans_path]
        command += ["--port", "0", "--load", f"{DOCUMENT}={site}"]
        pythonpath = os.pathsep.join(
            p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p)
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": pythonpath})
        banner = self.process.stdout.readline()
        match = _BANNER.search(banner)
        if match is None:
            raise RuntimeError(f"no server banner, got {banner!r}")
        host, port = match.group(1), int(match.group(2))
        self.writer = Connection(host, port)
        self.subscriber = Connection(host, port)
        for connection in (self.writer, self.subscriber):
            self.selector.register(connection.sock, selectors.EVENT_READ,
                                   connection)

    def request(self, connection: Connection, op: str, **params) -> dict:
        """A blocking request/reply (set-up, reads, metrics)."""
        request_id = connection.send(op, **params)
        key = (connection, request_id)
        deadline = time.monotonic() + 60
        while key not in self._pending:
            if time.monotonic() > deadline:
                raise TimeoutError(f"no reply to {op!r} within 60 s")
            self._pump(1.0)
        frame = self._pending.pop(key)
        if frame.get("type") != "reply":
            raise RuntimeError(f"{op} failed: {frame}")
        return frame["result"]

    def _setup_views(self) -> None:
        for name, query in VIEWS.items():
            self.request(self.writer, "create_view", name=name, query=query)
        self.request(self.writer, "update",
                     statements=pool_statements(self.persons))
        self.subscriptions = 0
        for view in VIEWS:
            for _ in range(SUBSCRIPTIONS_PER_VIEW):
                result = self.request(self.subscriber, "subscribe", view=view,
                                      limit=SUBSCRIBER_LIMIT)
                self._baseline[result["subscription"]] = result["sequence"]
                self._last_sequence[result["subscription"]] = \
                    result["sequence"]
                self.subscriptions += 1

    # -- the frame pump -----------------------------------------------------------------

    def _pump(self, timeout: float) -> None:
        for key, _events in self.selector.select(timeout):
            connection = key.data
            data = connection.sock.recv(1 << 18)
            if not data:
                raise ConnectionError("the server closed the connection")
            started = time.perf_counter()
            frames = connection.decoder.feed(data)
            now = time.perf_counter()
            self.decode_seconds += now - started
            for frame in frames:
                self._on_frame(connection, frame, now)

    def _on_frame(self, connection: Connection, frame: dict,
                  now: float) -> None:
        kind = frame.get("type")
        if kind == "delta":
            sub = frame["subscription"]
            sequence = frame["sequence"]
            if sequence != self._last_sequence[sub] + 1:
                self.failures.append(
                    f"push: subscription {sub} jumped "
                    f"{self._last_sequence[sub]} -> {sequence}")
            self._last_sequence[sub] = sequence
            if frame.get("reset") or frame.get("coalesced"):
                self.failures.append(
                    f"push: subscription {sub} got a reset/coalesced frame "
                    f"at {sequence}")
            # each batch refreshes each view exactly once
            batch = sequence - self._baseline[sub] - 1
            self._push_count[batch] += 1
            if self._push_count[batch] == self.subscriptions:
                self.push_at[batch] = now
                self.pushed += 1
        elif kind == "gap":
            self.failures.append(f"push: gap frame {frame}")
        elif connection is self.writer and frame.get("id") in self._inflight:
            batch = self._inflight.pop(frame["id"])
            self.reply_at[batch] = now
            self.replied += 1
            if kind != "reply":
                self.failures.append(f"update {batch}: {frame}")
            if batch in self._marks:
                self._marks[batch] = process_cpu_seconds(self.process.pid)
        else:
            self._pending[(connection, frame.get("id"))] = frame

    def _send_batch(self, statements: list, due: float, now: float) -> None:
        self.attempted += 1
        self.history.append(statements)
        self.due.append(due)
        self.reply_at.append(0.0)
        self.push_at.append(0.0)
        self._push_count.append(0)
        self.lag.append(now - due)
        self._inflight[self.writer.send("update", statements=statements)] = \
            len(self.due) - 1

    def _wait(self, done) -> None:
        deadline = time.monotonic() + 60
        while not done():
            if time.monotonic() > deadline:
                raise TimeoutError("the server stopped answering")
            self._pump(0.5)

    # -- phases -------------------------------------------------------------------------

    def _segments(self, bounds: list, segments: list | None = None
                  ) -> list[Segment]:
        """Slice the per-batch arrays into segments ``[first, last)``
        (filling ``segments`` that already hold calibration samples)."""
        segments = segments or [Segment() for _ in bounds]
        for segment, (first, last) in zip(segments, bounds):
            batches = range(first, last)
            segment.started = self.due[first]
            segment.ended = self.reply_at[last - 1]
            segment.cpu_seconds = (self._marks[last - 1]
                                   - self._marks[first - 1])
            segment.statements = sum(len(self.history[b]) for b in batches)
            segment.series = {
                "batch": [self.reply_at[b] - self.due[b] for b in batches],
                "push": [self.push_at[b] - self.due[b] for b in batches]}
        return segments

    def open_loop(self, seconds: float, batches: int | None) -> list[Segment]:
        """``OPEN_LOOP_RATE`` batches/s on a fixed schedule, whatever the
        server does; five equal segments."""
        rate = OPEN_LOOP_RATE
        per_segment = max(1, (batches if batches is not None
                              else int(rate * seconds)) // OPEN_LOOP_SEGMENTS)
        first = len(self.due)
        total = per_segment * OPEN_LOOP_SEGMENTS
        bounds = [(first + n * per_segment, first + (n + 1) * per_segment)
                  for n in range(OPEN_LOOP_SEGMENTS)]
        self._marks[first - 1] = process_cpu_seconds(self.process.pid)
        for _first, last in bounds:
            self._marks[last - 1] = 0.0     # sampled when that reply lands
        planned = [next(self.plan) for _ in range(total)]
        origin = time.perf_counter() + 0.005
        deadline = time.monotonic() + total / rate + 60
        while self.replied < first + total or self.pushed < first + total:
            if time.monotonic() > deadline:
                raise TimeoutError("open loop: the server fell behind for "
                                   "more than 60 s")
            sent = len(self.due) - first
            if sent >= total:
                self._pump(0.05)
                continue
            due = origin + sent / rate
            now = time.perf_counter()
            if now >= due:
                self._send_batch(planned[sent], due, now)
            else:
                # epoll rounds timeouts up to whole milliseconds: sleep
                # in the selector until ~1 ms before the send, then poll.
                wait = due - now
                self._pump(wait - 0.001 if wait > 0.0015 else 0)
        return self._segments(bounds)

    def _send_closed(self, count: int, segment: Segment | None = None) -> None:
        """``count`` batches, each sent when the last one's reply landed;
        a timed ``segment`` takes its calibration samples in between, once
        the pushes are in too and the server is idle."""
        for n in range(count):
            now = time.perf_counter()
            self._send_batch(next(self.plan), now, now)
            self._wait(lambda: self.replied == len(self.due))
            if segment is not None and \
                    n % CALIBRATE_EVERY == CALIBRATE_EVERY - 1 and \
                    n < count - 1:
                self._wait(lambda: self.pushed == len(self.due))
                segment.calibrate()

    def closed_loop(self, budget: Budget) -> list[Segment]:
        """The next batch leaves as soon as the reply lands; the load
        generator takes the calibration samples (the server shares the
        host's speed)."""
        bounds, segments = [], []
        phase_started = time.perf_counter()
        while True:
            segment = Segment()
            first = len(self.due)
            self._marks[first - 1] = process_cpu_seconds(self.process.pid)
            self._marks[first + budget.segment_batches - 1] = 0.0
            self._send_closed(budget.segment_batches, segment)
            self._wait(lambda: self.pushed == len(self.due))
            bounds.append((first, len(self.due)))
            segments.append(segment)
            if budget.spent(len(bounds),
                            time.perf_counter() - phase_started):
                break
        return self._segments(bounds, segments)

    # -- checks and teardown ------------------------------------------------------------

    def server_metrics(self) -> dict:
        return self.request(self.writer, "metrics")["metrics"]

    def check_oracle(self) -> None:
        """Replay the same statement lists into a fresh in-process
        ``Database`` (no views: nothing to maintain), materialize the
        views there — recomputation by construction — and compare with
        ``read`` over the wire."""
        oracle = Database()
        try:
            oracle.load(DOCUMENT, self.site_xml)
            for statements in [pool_statements(self.persons)] + self.history:
                with oracle.batch():
                    for statement in statements:
                        oracle.execute(statement)
            for name, query in VIEWS.items():
                self.attempted += 1
                expected = oracle.create_view(name, query).read()
                served = self.request(self.writer, "read", view=name)["xml"]
                if served != expected:
                    self.failures.append(
                        f"oracle: served view {name!r} != recompute")
        finally:
            oracle.close()

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def close(self) -> None:
        """Stop the server (SIGTERM, then kill) and wait for it."""
        for connection in (self.writer, self.subscriber):
            if connection is not None:
                connection.close()
        self.selector.close()
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()

