"""Serving resilience under network faults: the ChaosProxy harness.

What ``tests/test_durability_faults.py`` proves at the filesystem seam,
this file proves at the network seam:

* **kill-and-resume differential stress** — threaded clients mutate
  through a :class:`ChaosProxy` that severs connections while the
  server subprocess is ``kill -9``-ed and restarted mid-run; every
  acknowledged mutation must appear exactly once in the
  ``applied_index`` ledger, and the final view XML must match a
  single-session oracle replaying the server's serialized order;
* **idempotent retries** — tokens dedup resends (including across a
  blackhole that eats replies, and across durable restarts);
* **subscription resume** — reconnecting subscribers observe a
  contiguous sequence (backlog replay) or an explicit reset frame
  covering the gap, verified at the wire level — never a silent drop;
* **protection** — admission control sheds a saturating swarm with
  typed ``overloaded`` errors while in-flight work completes, queued
  requests past their deadline are skipped (never half-run), and idle
  sessions are reaped (subscribers exempt).
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import threading
import time

import pytest

from repro.api import Database
from repro.server import ConnectionClosed, ReproClient, ServerError, \
    start_in_thread
from repro.server.protocol import encode_frame
from .helpers import pin
from .netfaults import ChaosProxy

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(TESTS_DIR), "src")

ROWS_XML = "<data><row><name>seed</name><v>0</v></row></data>"
ROWS_QUERY = '<r>{for $x in doc("data.xml")/data/row return $x}</r>'

BANNER = re.compile(r"repro view server on ([\d.]+):(\d+)")


def insert_row(name: str) -> str:
    return ('for $d in document("data.xml")/data update $d '
            f'insert <row><name>{name}</name><v>0</v></row> into $d')


def rows_db() -> Database:
    db = Database()
    db.load("data.xml", ROWS_XML)
    db.create_view("rows", ROWS_QUERY)
    pin(db.registry.view("rows"))
    return db


def rows_server(**kwargs):
    return start_in_thread(rows_db(), own_db=True, **kwargs)


def spawn_server(durable_dir) -> tuple[subprocess.Popen, int]:
    """Boot ``python -m repro.server`` durable + fsync=always (so every
    acknowledged mutation survives SIGKILL) and return (process, port)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--port", "0",
         "--durable", str(durable_dir), "--fsync", "always"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ,
             "PYTHONPATH": SRC_DIR + os.pathsep
             + os.environ.get("PYTHONPATH", "")})
    banner = process.stdout.readline()
    match = BANNER.search(banner)
    assert match, f"no server banner, got: {banner!r}"
    return process, int(match.group(2))


# -- the kill-and-resume differential stress ---------------------------------------------


class TestKillAndResume:
    CLIENTS = 4
    MUTATIONS = 18

    def _drive(self, proxy, thread_id, acked, errors):
        rng = random.Random(1000 + thread_id)
        client = ReproClient(
            proxy.host, proxy.port, reconnect=True, timeout=5.0,
            connect_timeout=5.0, max_retries=40, backoff=0.05,
            backoff_cap=0.5, retry_window=120.0,
            client_id=f"chaos-{thread_id}", rng=rng)
        try:
            for index in range(self.MUTATIONS):
                name = f"c{thread_id}i{index}"
                reply = client.update([insert_row(name)])
                acked.append((reply["applied_index"], name))
        except Exception as exc:   # noqa: BLE001 — surfaced by the test
            errors.append(exc)
        finally:
            client.close()

    def test_acked_mutations_apply_exactly_once_across_kill9(
            self, tmp_path):
        process, port = spawn_server(tmp_path / "srv")
        proxy = ChaosProxy(port, seed=7)
        acked: list = []
        errors: list = []
        watcher_frames: list = []
        try:
            # setup goes straight to the server (not under chaos)
            with ReproClient("127.0.0.1", port) as setup:
                setup.load("data.xml", ROWS_XML)
                setup.create_view("rows", ROWS_QUERY)

            # a subscriber rides through the whole run via the proxy
            watcher = ReproClient(proxy.host, proxy.port,
                                  reconnect=True, timeout=10.0,
                                  max_retries=40, backoff=0.05,
                                  backoff_cap=0.5, retry_window=120.0,
                                  client_id="chaos-watcher")
            subscription = watcher.subscribe("rows")

            threads = [threading.Thread(
                target=self._drive, args=(proxy, t, acked, errors))
                for t in range(self.CLIENTS)]
            for thread in threads:
                thread.start()

            # the chaos schedule: severs, split frames, then kill -9 +
            # restart behind the same proxy address
            time.sleep(0.4)
            proxy.sever_all()
            time.sleep(0.3)
            proxy.split_frames = True
            time.sleep(0.3)
            proxy.split_frames = False
            proxy.truncate_on_sever = True
            proxy.sever_all()
            proxy.truncate_on_sever = False
            time.sleep(0.3)
            proxy.refuse(True)
            proxy.sever_all()
            process.kill()                       # SIGKILL, no checkpoint
            process.wait(timeout=30)
            process, port = spawn_server(tmp_path / "srv")
            proxy.retarget(port)
            proxy.refuse(False)
            time.sleep(0.4)
            proxy.sever_all()

            for thread in threads:
                thread.join(timeout=180)
                assert not thread.is_alive(), "driver thread stuck"
            assert not errors, errors

            # -- exactly-once in the applied_index ledger ------------------
            assert len(acked) == self.CLIENTS * self.MUTATIONS
            indices = [index for index, _ in acked]
            assert len(set(indices)) == len(indices), \
                "an acked mutation shares its applied_index ticket"

            with ReproClient("127.0.0.1", port) as check:
                served = check.read("rows")
                xml = served["xml"]
                for _, name in acked:
                    assert xml.count(f"<name>{name}</name>") == 1, name
                # the served extent matches full recomputation
                assert xml == check.query(ROWS_QUERY)
                final_sequence = served["sequence"]

            # -- differential oracle in the server's serialized order ------
            with Database() as oracle:
                oracle.load("data.xml", ROWS_XML)
                oracle.create_view("rows", ROWS_QUERY)
                for _, name in sorted(acked):
                    oracle.execute(insert_row(name))
                assert oracle.read("rows") == xml

            # -- the subscriber never saw a silent gap ----------------------
            # Drain what the watcher received: every sequence must be
            # covered by a delta directly or by an explicit
            # coalesced/reset range — and never a "gap" frame (the
            # strict-policy death) nor a duplicate after resume.
            watcher.ping()      # one round trip: pushes are flushed
            while True:
                try:
                    watcher_frames.append(
                        subscription.frames.get(timeout=0.5))
                except Exception:   # noqa: BLE001 — queue.Empty
                    break
            watcher.close()
            covered: list = []
            for frame in watcher_frames:
                assert frame is not subscription._CLOSED
                assert frame["type"] == "delta", frame
                start = frame.get("from_sequence", frame["sequence"])
                covered.extend(range(start, frame["sequence"] + 1))
            assert sorted(set(covered)) == \
                list(range(1, final_sequence + 1)), \
                f"silent gap in watcher coverage: {covered}"
            assert len(covered) == len(set(covered)), \
                "duplicate delivery after resume"
        finally:
            proxy.stop()
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)


# -- idempotent retries -------------------------------------------------------------------


class TestIdempotentRetries:
    def test_blackholed_replies_dedup_to_exactly_once(self):
        with rows_server() as handle:
            with ChaosProxy(handle.port, seed=3) as proxy:
                client = ReproClient(
                    proxy.host, proxy.port, reconnect=True,
                    timeout=0.4, max_retries=20, backoff=0.05,
                    backoff_cap=0.2, retry_window=30.0,
                    client_id="bh", rng=random.Random(5))
                timer = threading.Timer(
                    1.2, lambda: proxy.blackhole(False, "s2c"))
                proxy.blackhole(True, "s2c")    # requests land, replies die
                timer.start()
                try:
                    reply = client.update([insert_row("once")])
                finally:
                    timer.cancel()
                    client.close()
            # the first (unanswered) attempt applied; the winning reply
            # is the ledger's replay of that original ticket
            assert reply.get("deduped") is True
            metrics = handle.db.registry.metrics
            assert metrics.counter("server_requests_deduped").value >= 1
            assert metrics.counter("server_requests_retried").value >= 1
            with ReproClient(handle.host, handle.port) as check:
                xml = check.read("rows")["xml"]
                assert xml.count("<name>once</name>") == 1

    def test_dedup_survives_durable_restart(self, tmp_path):
        db = Database(durable_path=tmp_path)
        db.load("data.xml", ROWS_XML)
        db.create_view("rows", ROWS_QUERY)
        with start_in_thread(db, own_db=True) as handle:
            with ReproClient(handle.host, handle.port) as client:
                first = client.request("execute",
                                       statement=insert_row("ckpt"),
                                       client="phoenix", seq=7)
                client.checkpoint()     # the ledger rides the checkpoint
                second = client.request("execute",
                                        statement=insert_row("tail"),
                                        client="phoenix", seq=8)
        # graceful stop checkpointed; reopen and retry both tokens
        with start_in_thread(Database(durable_path=tmp_path),
                             own_db=True) as handle:
            with ReproClient(handle.host, handle.port) as client:
                r7 = client.request("execute",
                                    statement=insert_row("ckpt"),
                                    client="phoenix", seq=7, retry=1)
                r8 = client.request("execute",
                                    statement=insert_row("tail"),
                                    client="phoenix", seq=8, retry=1)
                assert r7["deduped"] is True and r8["deduped"] is True
                assert r7["applied_index"] == first["applied_index"]
                assert r8["applied_index"] == second["applied_index"]
                # fresh mutations never reuse a replayed ticket
                fresh = client.update([insert_row("fresh")])
                assert fresh["applied_index"] > second["applied_index"]
                xml = client.read("rows")["xml"]
                for name in ("ckpt", "tail", "fresh"):
                    assert xml.count(f"<name>{name}</name>") == 1

    def test_replayed_error_matches_the_first_answer(self, tmp_path):
        # A failed tokened mutation is remembered as its error: a retry
        # gets the same code, message and detail, marked deduped — from
        # memory, and from a checkpoint after a restart.
        bad = ('for $d in document("missing.xml")/data update $d '
               'delete $d/row')

        def answer(client, **retry):
            with pytest.raises(ServerError) as caught:
                client.request("execute", statement=bad, client="phoenix",
                               seq=1, **retry)
            error = caught.value
            return (error.code, error.message, error.detail["applied"],
                    error.detail.get("deduped"))

        db = Database(durable_path=tmp_path)
        db.load("data.xml", ROWS_XML)
        with start_in_thread(db, own_db=True) as handle:
            with ReproClient(handle.host, handle.port) as client:
                first = answer(client)
                assert first[0] == "update" and first[3] is None
                assert answer(client, retry=1) == first[:3] + (True,)
                client.checkpoint()     # the ledger rides the checkpoint
        with start_in_thread(Database(durable_path=tmp_path),
                             own_db=True) as handle:
            with ReproClient(handle.host, handle.port) as client:
                assert answer(client, retry=1) == first[:3] + (True,)

    def test_dedup_survives_external_db_closed_after_server(
            self, tmp_path):
        # An external (non-owned) database outlives its server: the
        # server's stop() checkpoints the ledger then detaches its
        # state provider, and db.close() cuts a NEWER, provider-less
        # checkpoint.  That final checkpoint must carry the serving
        # sidecar forward, not silently orphan it.
        db = Database(durable_path=tmp_path)
        db.load("data.xml", ROWS_XML)
        db.create_view("rows", ROWS_QUERY)
        with start_in_thread(db) as handle:
            with ReproClient(handle.host, handle.port) as client:
                first = client.request("execute",
                                       statement=insert_row("orphan"),
                                       client="phoenix", seq=7)
        db.close()      # provider-less final checkpoint
        with start_in_thread(Database(durable_path=tmp_path),
                             own_db=True) as handle:
            with ReproClient(handle.host, handle.port) as client:
                r7 = client.request("execute",
                                    statement=insert_row("orphan"),
                                    client="phoenix", seq=7, retry=1)
                assert r7["deduped"] is True
                assert r7["applied_index"] == first["applied_index"]
                xml = client.read("rows")["xml"]
                assert xml.count("<name>orphan</name>") == 1

    def test_stamped_meta_survives_wal_tail_without_checkpoint(
            self, tmp_path):
        db = Database(durable_path=tmp_path, fsync="always")
        db.load("data.xml", ROWS_XML)
        manager = db.durability
        with manager.stamp({"c": "u1", "s": 3, "a": 9}):
            db.execute(insert_row("stamped"))
        manager.server_state_provider = \
            lambda: {"applied_index": 42, "ledger": []}
        db.checkpoint()
        with manager.stamp({"c": "u1", "s": 4, "a": 43}):
            db.execute(insert_row("after-ckpt"))
        manager.wal.close()     # abandon without a closing checkpoint
        manager.closed = True

        reopened = Database(durable_path=tmp_path)
        recovered = reopened.durability
        # the checkpointed server state came back...
        assert recovered.recovered_server_state == \
            {"applied_index": 42, "ledger": []}
        # ...and only the WAL-tail record's meta (the checkpointed one
        # was truncated away with its segment)
        assert recovered.recovered_batch_meta == \
            [{"c": "u1", "s": 4, "a": 43}]
        recovered_xml = reopened.query(ROWS_QUERY)
        assert "<name>stamped</name>" in recovered_xml
        assert "<name>after-ckpt</name>" in recovered_xml
        reopened.close()


# -- subscription resume --------------------------------------------------------------------


class TestSubscriptionResume:
    def _consume(self, subscription, count, timeout=15.0):
        return [subscription.get(timeout=timeout) for _ in range(count)]

    def test_reconnect_replays_backlog_gap_free(self):
        with rows_server() as handle:
            with ChaosProxy(handle.port, seed=11) as proxy:
                subscriber = ReproClient(
                    proxy.host, proxy.port, reconnect=True,
                    timeout=10.0, max_retries=20, backoff=0.02,
                    backoff_cap=0.2, client_id="resume")
                subscription = subscriber.subscribe("rows")
                with ReproClient(handle.host, handle.port) as writer:
                    writer.update([insert_row("a1")])
                    writer.update([insert_row("a2")])
                    frames = self._consume(subscription, 2)
                    assert [f["sequence"] for f in frames] == [1, 2]
                    # cut the subscriber off and mutate while it's gone
                    proxy.refuse(True)
                    proxy.sever_all()
                    for index in (3, 4, 5):
                        writer.update([insert_row(f"a{index}")])
                    proxy.refuse(False)
                    # the resumed stream replays 3..5 then goes live
                    frames = self._consume(subscription, 3)
                    assert [f["sequence"] for f in frames] == [3, 4, 5]
                    assert all(f.get("resumed") for f in frames)
                    assert all(not f["reset"] for f in frames), \
                        "backlog replay must carry the real deltas"
                    writer.update([insert_row("a6")])
                    (live,) = self._consume(subscription, 1)
                    assert live["sequence"] == 6
                    assert not live.get("resumed")
                assert subscriber.reconnects >= 1
                metrics = handle.db.registry.metrics
                assert metrics.counter("server_reconnects").value >= 1
                subscriber.close()

    def test_resume_past_backlog_gets_explicit_reset(self):
        # backlog=1: the server can never replay a 3-refresh gap
        with rows_server(backlog=1) as handle:
            with ChaosProxy(handle.port, seed=12) as proxy:
                subscriber = ReproClient(
                    proxy.host, proxy.port, reconnect=True,
                    timeout=10.0, max_retries=20, backoff=0.02,
                    backoff_cap=0.2, client_id="reset")
                subscription = subscriber.subscribe("rows")
                with ReproClient(handle.host, handle.port) as writer:
                    writer.update([insert_row("b1")])
                    assert subscription.get(timeout=15)["sequence"] == 1
                    proxy.refuse(True)
                    proxy.sever_all()
                    for index in (2, 3, 4):
                        writer.update([insert_row(f"b{index}")])
                    proxy.refuse(False)
                    frame = subscription.get(timeout=15)
                    # one explicit reset frame covering the whole gap —
                    # never a silent drop
                    assert frame["resumed"] and frame["reset"]
                    assert frame["from_sequence"] == 2
                    assert frame["sequence"] == 4
                    assert frame["mutations"] is None
                    # the reset contract: re-read, then stream on
                    xml = subscriber.read("rows")["xml"]
                    assert xml.count("<name>b") == 4
                    writer.update([insert_row("b5")])
                    assert subscription.get(timeout=15)["sequence"] == 5
                subscriber.close()

    def test_resume_across_durable_server_restart(self, tmp_path):
        db = Database(durable_path=tmp_path)
        db.load("data.xml", ROWS_XML)
        db.create_view("rows", ROWS_QUERY)
        pin(db.registry.view("rows"))
        handle = start_in_thread(db, own_db=True)
        proxy = ChaosProxy(handle.port, seed=13)
        subscriber = ReproClient(proxy.host, proxy.port, reconnect=True,
                                 timeout=10.0, max_retries=40,
                                 backoff=0.05, backoff_cap=0.4,
                                 retry_window=60.0, client_id="restart")
        try:
            subscription = subscriber.subscribe("rows")
            with ReproClient(handle.host, handle.port) as writer:
                writer.update([insert_row("r1")])
                writer.update([insert_row("r2")])
                assert [f["sequence"]
                        for f in self._consume(subscription, 2)] == [1, 2]
                proxy.refuse(True)
                proxy.sever_all()
                writer.update([insert_row("r3")])
                writer.update([insert_row("r4")])
            handle.stop()       # graceful: checkpoints sequence state

            handle = start_in_thread(Database(durable_path=tmp_path),
                                     own_db=True)
            proxy.retarget(handle.port)
            proxy.refuse(False)
            # fresh server, empty backlog: the resume is an explicit
            # reset covering 3..4 (refresh sequences survived durably)
            frame = subscription.get(timeout=30)
            assert frame["resumed"] and frame["reset"]
            assert frame["from_sequence"] == 3
            assert frame["sequence"] == 4
            with ReproClient(handle.host, handle.port) as writer:
                writer.update([insert_row("r5")])
            assert subscription.get(timeout=15)["sequence"] == 5
        finally:
            subscriber.close()
            proxy.stop()
            handle.stop()

    def test_wire_level_from_sequence_contract(self):
        # no reader thread, no retries: the raw frames themselves
        from .test_server import RawClient
        with rows_server() as handle:
            first = RawClient(handle.host, handle.port)
            first.request("hello")
            first.request("subscribe", view="rows")   # starts the backlog
            with ReproClient(handle.host, handle.port) as writer:
                for index in range(1, 6):
                    writer.update([insert_row(f"w{index}")])
            resumer = RawClient(handle.host, handle.port)
            resumer.request("hello")
            result = resumer.request("subscribe", view="rows",
                                     from_sequence=2)
            assert result["resumed"] == "replay"
            assert result["replayed"] == 3
            frames = [resumer.recv_frame(timeout=15) for _ in range(3)]
            assert [f["sequence"] for f in frames] == [3, 4, 5]
            assert all(f["resumed"] and not f["reset"] for f in frames)
            assert all(f["mutations"] for f in frames)
            # resuming at the current sequence replays nothing
            result = resumer.request("subscribe", view="rows",
                                     from_sequence=5)
            assert result["resumed"] == "current"
            assert result["replayed"] == 0
            first.close()
            resumer.close()


# -- server-side protection ------------------------------------------------------------------


class TestProtection:
    def _fill(self, handle, count, naptime=0.01):
        """Stuff ``count`` short blocking jobs straight into the apply
        queue — a saturated single writer that still serves IO between
        jobs.  The returned future resolves once the backlog drains."""
        import asyncio
        server = handle.server

        async def fill():
            loop = asyncio.get_event_loop()
            futures = []
            for _ in range(count):
                future = loop.create_future()
                server._apply_queue.put_nowait(
                    (lambda: time.sleep(naptime), future, None))
                futures.append(future)
            await asyncio.gather(*futures)

        return asyncio.run_coroutine_threadsafe(fill(), handle._loop)

    def test_saturating_swarm_sheds_with_typed_overloaded(self):
        with rows_server(max_inflight=2) as handle:
            fill = self._fill(handle, count=200)    # ~2s of backlog
            shed_errors: list = []
            lock = threading.Lock()

            def swarm(k):
                try:
                    with ReproClient(handle.host, handle.port,
                                     timeout=10.0) as client:
                        client.documents()
                except ServerError as exc:
                    with lock:
                        shed_errors.append(exc)

            threads = [threading.Thread(target=swarm, args=(k,))
                       for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert shed_errors, "saturation produced no shed"
            for exc in shed_errors:
                assert exc.code == "overloaded"
                assert exc.detail["retry_after"] > 0
            # the queued work still completed
            fill.result(timeout=30)
            metrics = handle.db.registry.metrics
            assert metrics.counter("server_shed_total").value >= \
                len(shed_errors)
            # a resilient client rides the overload out via retry_after
            with ReproClient(handle.host, handle.port, reconnect=True,
                             timeout=10.0, max_retries=30,
                             backoff=0.05, backoff_cap=0.3,
                             client_id="rider") as rider:
                fill2 = self._fill(handle, count=60)
                assert "data.xml" in rider.documents()
                fill2.result(timeout=30)

    def test_session_limit_sheds_new_connections(self):
        with rows_server(max_sessions=1) as handle:
            keeper = ReproClient(handle.host, handle.port)
            import socket as socketlib
            from repro.server.protocol import FrameDecoder
            sock = socketlib.create_connection(
                (handle.host, handle.port), timeout=5.0)
            decoder = FrameDecoder()
            frames = []
            while not frames:
                data = sock.recv(65536)
                if not data:
                    break
                frames.extend(decoder.feed(data))
            assert frames and frames[0]["type"] == "error"
            assert frames[0]["code"] == "overloaded"
            assert frames[0]["retry_after"] > 0
            sock.close()
            keeper.ping()       # the admitted session is unaffected
            keeper.close()

    def test_expired_deadline_is_skipped_not_half_run(self):
        with rows_server() as handle:
            with ReproClient(handle.host, handle.port,
                             timeout=30.0) as client:
                # a ~1.5s backlog: the 50ms-deadline request expires
                # while queued behind it
                fill = self._fill(handle, count=150)
                with pytest.raises(ServerError) as err:
                    client.request("execute",
                                   statement=insert_row("never"),
                                   deadline_ms=50)
                assert err.value.code == "deadline"
                fill.result(timeout=30)
                # skipped means skipped: the mutation never applied
                assert "<name>never</name>" not in \
                    client.read("rows")["xml"]
            metrics = handle.db.registry.metrics
            assert metrics.counter("server_deadline_expired").value >= 1

    def test_idle_sessions_reaped_but_subscribers_exempt(self):
        with rows_server(idle_timeout=0.2) as handle:
            idler = ReproClient(handle.host, handle.port)
            watcher = ReproClient(handle.host, handle.port)
            watcher.subscribe("rows")
            deadline = time.monotonic() + 10.0
            metrics = handle.db.registry.metrics
            while metrics.counter("server_sessions_reaped").value < 1:
                assert time.monotonic() < deadline, "reaper never fired"
                time.sleep(0.05)
            with pytest.raises((ConnectionClosed, TimeoutError)):
                idler.ping()
                time.sleep(0.5)
                idler.ping()
            # the subscriber sat just as idle and survived
            watcher.ping()
            watcher.close()
            idler.close()
            # a reconnecting client rides straight through the reaper
            rider = ReproClient(handle.host, handle.port,
                                reconnect=True, timeout=5.0,
                                backoff=0.02, backoff_cap=0.2,
                                client_id="rider")
            time.sleep(0.8)     # long enough to be reaped at least once
            rider.ping()
            rider.close()

    def test_bad_frame_under_chaos_splitting(self):
        """Split frames byte-by-byte through the proxy: the decoder
        must reassemble perfectly (no bad_frame, no corruption)."""
        with rows_server() as handle:
            with ChaosProxy(handle.port, seed=21) as proxy:
                proxy.split_frames = True
                with ReproClient(proxy.host, proxy.port) as client:
                    for index in range(5):
                        client.update([insert_row(f"s{index}")])
                    xml = client.read("rows")["xml"]
                    for index in range(5):
                        assert xml.count(f"<name>s{index}</name>") == 1
            metrics = handle.db.registry.metrics
            assert metrics.counter("server_bad_frames").value == 0


# -- garbage on the wire (satellite: FrameDecoder/session hardening) -------------------------


class TestGarbageInput:
    def _collect_until_eof(self, sock, timeout=10.0):
        from repro.server.protocol import FrameDecoder
        sock.settimeout(timeout)
        decoder = FrameDecoder()
        frames = []
        while True:
            try:
                data = sock.recv(65536)
            except OSError:
                break
            if not data:
                break
            frames.extend(decoder.feed(data))
        return frames

    def test_non_json_body_gets_bad_frame_then_clean_close(self):
        import socket as socketlib
        with rows_server() as handle:
            sock = socketlib.create_connection(
                (handle.host, handle.port), timeout=5.0)
            body = b"this is not json"
            sock.sendall(len(body).to_bytes(4, "big") + body)
            frames = self._collect_until_eof(sock)
            assert len(frames) == 1, frames
            assert frames[0]["type"] == "error"
            assert frames[0]["code"] == "bad_frame"
            sock.close()
            # the server survived the garbage
            with ReproClient(handle.host, handle.port) as client:
                client.ping()

    def test_oversized_length_prefix_gets_bad_frame(self):
        import socket as socketlib
        with rows_server() as handle:
            sock = socketlib.create_connection(
                (handle.host, handle.port), timeout=5.0)
            sock.sendall((2 ** 31).to_bytes(4, "big"))
            frames = self._collect_until_eof(sock)
            assert [f["code"] for f in frames] == ["bad_frame"]
            sock.close()

    def test_malformed_request_envelope_gets_bad_frame(self):
        import socket as socketlib
        with rows_server() as handle:
            sock = socketlib.create_connection(
                (handle.host, handle.port), timeout=5.0)
            sock.sendall(encode_frame({"op": "ping"}))   # no id
            frames = self._collect_until_eof(sock)
            assert [f["code"] for f in frames] == ["bad_frame"]
            sock.close()
            metrics = handle.db.registry.metrics
            assert metrics.counter("server_bad_frames").value >= 1
