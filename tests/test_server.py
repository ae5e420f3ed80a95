"""The network serving layer: framing, sessions, pushes, backpressure,
and the multi-client differential stress test against the single-session
oracle.

Wire-level tests run a real :class:`ViewServer` on a background event
loop (``start_in_thread``) and talk to it over real sockets; nothing is
mocked below the protocol layer.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import threading
import types
import urllib.error
import urllib.request

import pytest

from repro.api import Database
from repro.engine import Engine
from repro.server import ClientSubscription, ConnectionClosed, \
    ReproClient, ServerError, start_in_thread
from repro.server.protocol import HEADER_SIZE, MUTATING_OPS, FrameDecoder, \
    ProtocolError, delta_frame, delta_head, delta_payload, encode_frame, \
    gap_frame, param, resume_reset_frame, shared_tail, splice_frame, \
    validate_request
from repro.server.server import WRITE_BATCH_BYTES, ViewServer, _Session, \
    _Subscriber
from repro.translate import translate_query
from repro.workloads.bib import BIB_XML, NEW_BOOK_FRAGMENT, PRICES_XML, \
    YEAR_GROUP_QUERY

from .helpers import pin

TITLES_QUERY = ('<r>{for $b in doc("bib.xml")/bib/book '
                'return $b/title}</r>')

ROWS_XML = "<data><row><name>seed</name><v>0</v></row></data>"
ROWS_QUERY = '<r>{for $x in doc("data.xml")/data/row return $x}</r>'
NAMES_QUERY = '<r>{for $x in doc("data.xml")/data/row return $x/name}</r>'


def insert_row(name: str, extra: str = "") -> str:
    return ('for $d in document("data.xml")/data update $d '
            f'insert <row><name>{name}</name><v>0</v>{extra}</row> '
            'into $d')


def delete_row(name: str) -> str:
    return ('for $r in document("data.xml")/data/row '
            f'where $r/name = "{name}" update $r delete $r')


def replace_row_value(name: str, value: str) -> str:
    return ('for $r in document("data.xml")/data/row '
            f'where $r/name = "{name}" update $r '
            f'replace $r/v with "{value}"')


def rows_db(xml: str = ROWS_XML, views=(("rows", ROWS_QUERY),)
            ) -> Database:
    """A database over the rows document with its views pinned to
    propagation, so pushes carry mutation payloads (on a one-row document
    a single tree reaches the work bound)."""
    db = Database()
    db.load("data.xml", xml)
    for name, query in views:
        db.create_view(name, query)
        pin(db.registry.view(name))
    return db


def rows_server(**kwargs):
    """A served database pre-loaded with the rows document and view."""
    return start_in_thread(rows_db(), own_db=True, **kwargs)


# -- the protocol layer (no sockets) -----------------------------------------------------


class TestFraming:
    def test_round_trip(self):
        decoder = FrameDecoder()
        messages = [{"id": 1, "op": "ping"}, {"type": "reply", "id": 1,
                                              "result": {"x": "é"}}]
        data = b"".join(encode_frame(m) for m in messages)
        assert decoder.feed(data) == messages

    def test_byte_at_a_time(self):
        decoder = FrameDecoder()
        out = []
        for byte in encode_frame({"id": 7, "op": "ping"}):
            out.extend(decoder.feed(bytes([byte])))
        assert out == [{"id": 7, "op": "ping"}]

    def test_oversized_frame_refused_both_ways(self):
        with pytest.raises(ProtocolError):
            encode_frame({"x": "a" * 100}, max_frame=50)
        decoder = FrameDecoder(max_frame=50)
        with pytest.raises(ProtocolError):
            decoder.feed((100).to_bytes(HEADER_SIZE, "big"))

    def test_non_json_and_non_object_bodies_refused(self):
        for body in (b"not json", b"[1,2]"):
            decoder = FrameDecoder()
            data = len(body).to_bytes(HEADER_SIZE, "big") + body
            with pytest.raises(ProtocolError):
                decoder.feed(data)

    def test_validate_request(self):
        assert validate_request({"id": 3, "op": "ping"}) == (3, "ping")
        with pytest.raises(ProtocolError):
            validate_request({"op": "ping"})
        with pytest.raises(ProtocolError):
            validate_request({"id": 3})

    def test_param_typing(self):
        frame = {"n": 5, "s": "x", "flag": True}
        assert param(frame, "n", int) == 5
        assert param(frame, "missing", str, "d") == "d"
        with pytest.raises(ProtocolError):
            param(frame, "missing", str)
        with pytest.raises(ProtocolError):
            param(frame, "s", int)
        with pytest.raises(ProtocolError):
            param(frame, "flag", int)       # bool is not an int here

    def test_delta_frame_reset_semantics(self):
        event = types.SimpleNamespace(
            view="v", reason="propagate", trees=1, delta_tuples=2,
            sequence=4, mutations=[{"op": "remove", "path": []}])
        frame = delta_frame(9, event)
        assert frame["type"] == "delta" and not frame["reset"]
        assert frame["mutations"] == event.mutations
        event.reason = "recompute"
        assert delta_frame(9, event)["reset"] is True
        event.reason, event.mutations = "propagate", None
        frame = delta_frame(9, event)
        assert frame["reset"] is True and frame["mutations"] is None


    def test_spliced_frame_decodes_to_delta_frame(self):
        event = types.SimpleNamespace(
            view="v", reason="propagate", trees=1, delta_tuples=2,
            sequence=4, mutations=[{"op": "text", "path": [], "text": "é"}])
        tail = shared_tail(encode_frame(delta_payload(event)))
        for sub_id in (7, 123456):
            assert FrameDecoder().feed(
                splice_frame(delta_head(sub_id), tail)) == \
                [delta_frame(sub_id, event)]
        assert FrameDecoder().feed(
            splice_frame(delta_head(7, resumed=True), tail)) == \
            [dict(delta_frame(7, event), resumed=True)]
        # the limit covers the whole body, head included
        body = len(delta_head(7)) + len(tail)
        assert splice_frame(delta_head(7), tail, max_frame=body)
        with pytest.raises(ProtocolError):
            splice_frame(delta_head(7), tail, max_frame=body - 1)


def _offline_subscriber(mode: str, limit: int):
    """A real server over the rows view that never binds a socket, one
    :class:`_Session` whose tasks never run (deliver/queue only) and one
    subscriber attached to the view's feed: in-process updates then
    reach ``_Session.deliver`` as real ``RefreshEvent``s."""
    db = rows_db()
    server = ViewServer(db)
    session = _Session(server, None, None, 1)
    feed = server._ensure_feed("rows")
    sub = _Subscriber(1, "rows", mode, limit, 0, session, feed)
    session.subscribers[1] = feed.subscribers[1] = sub
    return db, session, sub


def _queued_frames(session) -> list[dict]:
    """Drain the session's queue the way the writer would encode it."""
    frames = []
    decoder = FrameDecoder()
    while not session.queue.empty():
        frames.extend(decoder.feed(
            session._encode(session.queue.get_nowait())))
    return frames


class TestBackpressureUnit:
    def test_coalesce_folds_into_newest_queued_frame(self):
        db, session, sub = _offline_subscriber("coalesce", limit=1)
        for index in range(3):
            db.execute(insert_row(f"r{index}"))
        assert session.queue.qsize() == 1      # one frame stands for all
        assert sub.newest.item["subscription"] == 1     # a private dict
        (frame,) = _queued_frames(session)
        assert frame["type"] == "delta" and frame["view"] == "rows"
        assert frame["coalesced"] and frame["reset"]
        assert frame["from_sequence"] == 1 and frame["sequence"] == 3
        assert frame["mutations"] is None
        assert frame["trees"] == 3
        metrics = session.server.metrics
        assert metrics.counter("server_pushes_coalesced").value == 2
        # the ring still replays the three refreshes one by one
        ring = session.server._feeds["rows"].replay(0, 3)
        assert [push.sequence for push in ring] == [1, 2, 3]
        assert all(push.payload["mutations"] for push in ring)

    def test_disconnect_emits_gap_and_drops_subscriber(self):
        db, session, sub = _offline_subscriber("disconnect", limit=2)
        for index in range(4):
            db.execute(insert_row(f"r{index}"))
        assert sub.dropped
        assert not session.server._feeds["rows"].subscribers
        frames = _queued_frames(session)       # event 4 went nowhere
        assert [f["type"] for f in frames] == ["delta", "delta", "gap"]
        assert [f["sequence"] for f in frames[:2]] == [1, 2]
        gap = frames[-1]
        assert gap["after_sequence"] == 2 and gap["sequence"] == 3
        assert gap["dropped"] == 1
        metrics = session.server.metrics
        assert metrics.counter("server_subscribers_dropped").value == 1

    def test_gap_frame_shape(self):
        frame = gap_frame(5, "rows", 10, 14, 4)
        assert frame == {"type": "gap", "subscription": 5, "view": "rows",
                         "after_sequence": 10, "sequence": 14,
                         "dropped": 4}


# -- a raw wire client (tests that need to stop reading) ---------------------------------


class RawClient:
    """A frame-level client with no reader thread: the test decides
    exactly when bytes are read — which is how backpressure is
    provoked deterministically."""

    def __init__(self, host: str, port: int,
                 rcvbuf: int | None = None):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if rcvbuf is not None:
            # A fixed, tiny receive buffer disables autotuning, so the
            # server's writes back up quickly once we stop reading.
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF,
                                 rcvbuf)
        self.sock.connect((host, port))
        self.decoder = FrameDecoder()
        self.pending: list[dict] = []
        self.next_id = 0
        self.eof = False

    def recv_frame(self, timeout: float = 30.0):
        """The next frame, or None at EOF."""
        if self.pending:
            return self.pending.pop(0)
        self.sock.settimeout(timeout)
        while not self.pending:
            if self.eof:
                return None
            data = self.sock.recv(65536)
            if not data:
                self.eof = True
                return None
            self.pending.extend(self.decoder.feed(data))
        return self.pending.pop(0)

    def request(self, op: str, **params) -> dict:
        self.next_id += 1
        frame = {"id": self.next_id, "op": op}
        frame.update(params)
        self.sock.sendall(encode_frame(frame))
        pushes = []
        while True:
            got = self.recv_frame()
            assert got is not None, "connection closed awaiting reply"
            if got.get("id") == self.next_id:
                self.pending = pushes + self.pending
                assert got["type"] == "reply", got
                return got["result"]
            pushes.append(got)

    def close(self):
        self.sock.close()


class BodyClient(RawClient):
    """A :class:`RawClient` that reads frame by frame and keeps every
    raw JSON body, in arrival order, in ``bodies``."""

    def __init__(self, host: str, port: int):
        super().__init__(host, port)
        self.bodies: list[bytes] = []

    def _exactly(self, count: int):
        data = b""
        while len(data) < count:
            chunk = self.sock.recv(count - len(data))
            if not chunk:
                return None
            data += chunk
        return data

    def recv_frame(self, timeout: float = 30.0):
        if self.pending:
            return self.pending.pop(0)
        self.sock.settimeout(timeout)
        header = self._exactly(HEADER_SIZE)
        body = header and self._exactly(int.from_bytes(header, "big"))
        if not body:
            self.eof = True
            return None
        self.bodies.append(body)
        return json.loads(body)


def seeded_rows_xml(rows: int) -> str:
    return "<data>" + "".join(f"<row><name>seed{n}</name><v>0</v></row>"
                              for n in range(rows)) + "</data>"


def served_rows(rows: int = 0, **kwargs):
    """``rows_server`` plus a second view over the same document and an
    in-process payload listener on each: returns ``(handle, events)``
    with ``events[view]`` the real ``RefreshEvent``s the server saw."""
    db = rows_db(seeded_rows_xml(rows),
                 (("rows", ROWS_QUERY), ("names", NAMES_QUERY)))
    events = {"rows": [], "names": []}
    for view, seen in events.items():
        db.subscribe(view, seen.append, deliver_mutations=True)
    return start_in_thread(db, own_db=True, **kwargs), events


def counters(handle, *names) -> list[int]:
    metrics = handle.db.registry.metrics
    return [metrics.counter(f"server_{name}").value for name in names]


# -- end to end over real sockets --------------------------------------------------------


class TestEndToEnd:
    def test_full_round_trip(self):
        with start_in_thread(http_port=0) as handle:
            with ReproClient(handle.host, handle.port) as client:
                assert client.server_info["protocol"] == 2
                client.load("bib.xml", BIB_XML)
                client.load("prices.xml", PRICES_XML)
                assert sorted(client.documents()) == ["bib.xml",
                                                      "prices.xml"]
                client.create_view("by_year", YEAR_GROUP_QUERY)
                views = client.views()
                assert views[0]["name"] == "by_year"
                assert views[0]["policy"] == "immediate"
                result = client.read("by_year")
                assert result["xml"].startswith("<result>")
                # ad-hoc query sees the same state
                assert client.query(YEAR_GROUP_QUERY) == result["xml"]
                assert "yGroup" in client.explain("by_year")
                snapshot = client.metrics()
                assert "view_flushes" in snapshot
                client.ping()

    def test_push_deltas_are_gap_free_and_carry_mutations(self):
        with rows_server() as handle:
            with ReproClient(handle.host, handle.port) as client:
                subscription = client.subscribe("rows")
                assert subscription.last_sequence == 0
                for index in range(5):
                    client.update([insert_row(f"r{index}")])
                frames = [subscription.frames.get(timeout=10)
                          for _ in range(5)]
                assert [f["sequence"] for f in frames] == [1, 2, 3, 4, 5]
                for frame in frames:
                    assert frame["type"] == "delta"
                    assert not frame["reset"]
                    (record,) = frame["mutations"]
                    assert record["op"] == "insert"
                    assert record["parent"] == [["r", "*c"]]
                    assert "<name>r" in record["xml"]
                    assert isinstance(record["key"], list)
                # the pushed stream mirrors what a read now sees
                assert client.read("rows")["sequence"] == 5

    def test_unchanged_update_pushes_nothing(self):
        """An update that rewrites the value a row already holds is
        applied (and acknowledged) without a refresh: no frame is pushed
        for it, and the next real change carries the next contiguous
        sequence."""
        with rows_server() as handle:
            with ReproClient(handle.host, handle.port) as client:
                subscription = client.subscribe("rows")
                client.update([replace_row_value("seed", "0")])
                assert client.read("rows")["sequence"] == 0
                client.update([replace_row_value("seed", "9")])
                frame = subscription.get(timeout=10)
                assert frame["sequence"] == 1 and not frame["reset"]
                assert "<v>9</v>" in client.read("rows")["xml"]
                assert client.read("rows")["sequence"] == 1
                assert subscription.frames.empty()
                metrics = client.metrics()
                assert metrics["registry_modifies_unchanged_total"][
                    "values"][""] == 1

    def test_recompute_refresh_pushes_reset_frame(self):
        db = rows_db()
        db.registry.view("rows").over_work_bound = lambda: True
        with start_in_thread(db, own_db=True) as handle:
            with ReproClient(handle.host, handle.port) as client:
                subscription = client.subscribe("rows")
                client.update([insert_row("x")])
                frame = subscription.get(timeout=10)
                assert frame["reason"] == "recompute"
                assert frame["reset"] is True
                assert frame["mutations"] is None
                # the reset contract: re-read instead of replaying
                assert "<name>x</name>" in client.read("rows")["xml"]

    def test_error_frames_are_typed(self):
        with rows_server() as handle:
            with ReproClient(handle.host, handle.port) as client:
                with pytest.raises(ServerError) as err:
                    client.request("no_such_op")
                assert err.value.code == "bad_request"
                with pytest.raises(ServerError) as err:
                    client.read("nope")
                assert err.value.code == "not_found"
                with pytest.raises(ServerError) as err:
                    client.update(["delete everything"])
                assert err.value.code == "update"
                with pytest.raises(ServerError) as err:
                    client.request("subscribe", view="rows", mode="maybe")
                assert err.value.code == "bad_request"
                with pytest.raises(ServerError) as err:
                    client.checkpoint()        # not a durable database
                assert err.value.code == "bad_request"
                # the session survives every one of those
                client.ping()

    def test_updates_from_concurrent_sessions_serialize(self):
        with rows_server() as handle:
            with ReproClient(handle.host, handle.port) as one, \
                    ReproClient(handle.host, handle.port) as two:
                indices = []
                for turn in range(4):
                    indices.append(
                        one.update([insert_row(f"a{turn}")])
                        ["applied_index"])
                    indices.append(
                        two.update([insert_row(f"b{turn}")])
                        ["applied_index"])
                assert indices == sorted(indices)
                assert len(set(indices)) == len(indices)
                xml = one.read("rows")["xml"]
                assert xml == two.read("rows")["xml"]
                assert xml == one.query(ROWS_QUERY)

    def test_query_after_update_is_fresh(self):
        """The second ``query`` of a text is answered from the entry the
        first one kept; every ``update`` between asks is in the answer,
        and the entry is no view."""
        query = ('<r>{for $x in doc("data.xml")/data/row '
                 'where $x/v > "1" return $x/name}</r>')
        # enough rows that a few queued trees stay under the work bound
        handle, _events = served_rows(rows=30)
        replica = Database()
        replica.load("data.xml", seeded_rows_xml(30))
        with handle:
            with ReproClient(handle.host, handle.port) as client:
                for statements in ([], [insert_row("a")],
                                   [replace_row_value("seed3", "5")],
                                   [replace_row_value("a", "7"),
                                    delete_row("seed3")]):
                    if statements:
                        client.update(statements)
                        with replica.batch():
                            for statement in statements:
                                replica.execute(statement)
                    assert client.query(query) == Engine(
                        replica.storage).query(translate_query(query))
                assert "<name>a</name>" in client.query(query)
                assert [view["name"] for view in client.views()] == \
                    ["rows", "names"]
                metrics = client.metrics()
                assert metrics["query_cache_hits"]["values"][""] == 4
                assert metrics["query_cache_misses"]["values"][""] == 1

    def test_unsubscribe_stops_pushes(self):
        with rows_server() as handle:
            with ReproClient(handle.host, handle.port) as client:
                subscription = client.subscribe("rows")
                client.update([insert_row("before")])
                assert subscription.frames.get(timeout=10)[
                    "sequence"] == 1
                subscription.cancel()
                client.update([insert_row("after")])
                client.ping()                  # round trip past the flush
                with pytest.raises(ConnectionClosed):
                    subscription.get(timeout=1)

    def test_abrupt_disconnect_leaves_server_healthy(self):
        with rows_server() as handle:
            victim = socket.create_connection((handle.host, handle.port))
            victim.sendall(b"\x00\x00\x00\x04junk")
            victim.close()
            with ReproClient(handle.host, handle.port) as client:
                client.update([insert_row("alive")])
                assert "<name>alive</name>" in \
                    client.read("rows")["xml"]

    def test_metrics_http_endpoint(self):
        with rows_server(http_port=0) as handle:
            with ReproClient(handle.host, handle.port) as client:
                client.update([insert_row("m")])
                base = f"http://{handle.host}:{handle.http_port}"
                text = urllib.request.urlopen(
                    f"{base}/metrics", timeout=10).read().decode()
                for family in ("repro_server_sessions",
                               "repro_server_frames_in",
                               "repro_server_frames_out",
                               "repro_server_queue_depth",
                               "repro_server_push_lag_seconds",
                               "repro_view_flushes"):
                    assert f"# TYPE {family}" in text, family
                assert urllib.request.urlopen(
                    f"{base}/healthz", timeout=10).read() == b"ok\n"
                with pytest.raises(urllib.error.HTTPError):
                    urllib.request.urlopen(f"{base}/elsewhere",
                                           timeout=10)

    def test_graceful_shutdown_checkpoints_durable_state(self, tmp_path):
        db = Database(durable_path=tmp_path)
        db.load("data.xml", ROWS_XML)
        db.create_view("rows", ROWS_QUERY)
        with start_in_thread(db, own_db=True) as handle:
            with ReproClient(handle.host, handle.port) as client:
                client.update([insert_row("durable-row")])
        # the handle's stop() closed the durable database with a final
        # checkpoint; a fresh session over the directory recovers it
        with Database(durable_path=tmp_path) as reopened:
            assert reopened.views() == ["rows"]
            assert "<name>durable-row</name>" in reopened.read("rows")
            assert reopened.read("rows") == \
                reopened.view("rows").recompute()


class TestMutatingOps:
    def test_mutating_ops_take_one_ticket_and_dedup_their_resend(
            self, tmp_path):
        """``protocol.MUTATING_OPS`` decides both ends: the server
        tickets and dedups exactly these ops, and a reconnecting client
        tokens exactly these."""
        db = Database(durable_path=tmp_path)
        db.load("data.xml", ROWS_XML)
        db.create_view("rows", ROWS_QUERY)
        with start_in_thread(db, own_db=True) as handle:
            server = handle.server
            client = ReproClient(handle.host, handle.port, reconnect=True)
            raw = client._raw_request
            sent = []

            def spy(op, **params):
                sent.append((op, params))
                return raw(op, **params)
            client._raw_request = spy
            sub = client.request("subscribe", view="rows")
            requests = [
                ("load", {"name": "more.xml", "xml": "<more/>"}),
                ("create_view", {"name": "v2", "query": ROWS_QUERY}),
                ("drop_view", {"name": "v2"}),
                ("execute", {"statement": insert_row("a")}),
                ("update", {"statements": [insert_row("b")]}),
                ("hello", {}), ("ping", {}), ("documents", {}),
                ("views", {}), ("read", {"view": "rows"}),
                ("query", {"xquery": ROWS_QUERY}),
                ("explain", {"view": "rows"}), ("metrics", {}),
                ("checkpoint", {}),
                ("unsubscribe", {"subscription": sub["subscription"]})]
            handlers = {name[len("_op_"):] for name in dir(_Session)
                        if name.startswith("_op_")}
            assert {op for op, _ in requests} | {"subscribe", "bye"} == \
                handlers
            for op, params in requests:
                before = server.applied_index
                result = client.request(op, **params)
                if op not in MUTATING_OPS:
                    assert server.applied_index == before, op
                    continue
                assert server.applied_index == before + 1, op
                assert result["applied_index"] == before + 1
                again = raw(op, **sent[-1][1], retry=1)
                assert again == dict(result, deduped=True)
                assert server.applied_index == before + 1
            client.close()      # says bye
            assert sent[-1][0] == "bye"
            assert {op for op, params in sent if "seq" in params} == \
                MUTATING_OPS


# -- backpressure over the wire ----------------------------------------------------------


BIG_TEXT = "A" * (8 * 1024 * 1024)     # one frame far beyond any buffer


class TestBackpressureWire:
    def _provoke(self, handle, mode):
        """Subscribe with limit=1 without reading, push one huge delta
        (blocking the session's writer mid-frame) and several small
        ones behind it; then drain and return every received frame."""
        raw = RawClient(handle.host, handle.port, rcvbuf=16384)
        try:
            raw.request("hello")
            result = raw.request("subscribe", view="rows", mode=mode,
                                 limit=1)
            assert result["sequence"] == 0
            with ReproClient(handle.host, handle.port) as writer:
                writer.update([insert_row("big", f"<big>{BIG_TEXT}"
                                                 "</big>")])
                for index in range(5):
                    writer.update([insert_row(f"small{index}")])
                final = writer.read("rows")["sequence"]
            frames = []
            while True:
                frame = raw.recv_frame(timeout=60)
                if frame is None:
                    break
                frames.append(frame)
                if frame["type"] == "gap" or \
                        frame.get("sequence") == final:
                    break
            return frames, final
        finally:
            raw.close()

    def test_coalesce_covers_every_sequence(self):
        with rows_server() as handle:
            frames, final = self._provoke(handle, "coalesce")
        assert final == 6
        covered = []
        for frame in frames:
            assert frame["type"] == "delta"
            start = frame.get("from_sequence", frame["sequence"])
            covered.extend(range(start, frame["sequence"] + 1))
            if frame.get("coalesced"):
                assert frame["reset"] and frame["mutations"] is None
        assert covered == list(range(1, final + 1))
        assert any(frame.get("coalesced") for frame in frames)

    def test_disconnect_sends_gap_then_closes(self):
        with rows_server() as handle:
            frames, final = self._provoke(handle, "disconnect")
            assert frames and frames[-1]["type"] == "gap"
            deltas, gap = frames[:-1], frames[-1]
            assert [f["type"] for f in deltas] == \
                ["delta"] * len(deltas)
            sequences = [f["sequence"] for f in deltas]
            assert sequences == list(range(1, len(deltas) + 1))
            assert gap["after_sequence"] == sequences[-1]
            assert gap["sequence"] > gap["after_sequence"]
            assert gap["dropped"] == \
                gap["sequence"] - gap["after_sequence"]


    def test_coalesced_frame_is_the_fold_of_its_events(self):
        handle, events = served_rows()
        with handle:
            frames, final = self._provoke(handle, "coalesce")
        by_sequence = {event.sequence: event for event in events["rows"]}
        assert sorted(by_sequence) == list(range(1, final + 1))
        assert any(frame.get("coalesced") for frame in frames)
        for frame in frames:
            newest = by_sequence[frame["sequence"]]
            expected = delta_frame(frame["subscription"], newest)
            if frame.get("coalesced"):
                folded = [by_sequence[n] for n in range(
                    frame["from_sequence"], frame["sequence"] + 1)]
                expected.update(
                    from_sequence=folded[0].sequence, coalesced=True,
                    trees=sum(e.trees for e in folded),
                    delta_tuples=sum(e.delta_tuples for e in folded),
                    reset=True, mutations=None)
            assert frame == expected


# -- the push path: one encode per refresh, one write per wake-up ----------------------


class TestPushPath:
    def test_wire_frames_equal_delta_frame_and_share_their_bytes(self):
        handle, events = served_rows(backlog=2)
        rows = handle.db.registry.view("rows")
        with handle:
            one = BodyClient(handle.host, handle.port)
            two = BodyClient(handle.host, handle.port)
            writer = RawClient(handle.host, handle.port)
            a = one.request("subscribe", view="rows")["subscription"]
            b = two.request("subscribe", view="rows")["subscription"]
            for name, force in (("p1", False), ("p2", True),
                                ("p3", False)):
                rows.over_work_bound = lambda force=force: force
                writer.request("update", statements=[insert_row(name)])
            seen = events["rows"]
            assert [e.reason for e in seen] == \
                ["propagate", "recompute", "propagate"]
            # live pushes: dict for dict what delta_frame builds
            assert [one.recv_frame() for _ in seen] == \
                [delta_frame(a, e) for e in seen]
            assert [two.recv_frame() for _ in seen] == \
                [delta_frame(b, e) for e in seen]
            # ... and byte for byte the same after ``subscription``
            for body_a, body_b in zip(one.bodies[-3:], two.bodies[-3:]):
                head_a = b'{"type":"delta","subscription":%d,' % a
                head_b = b'{"type":"delta","subscription":%d,' % b
                assert body_a.startswith(head_a)
                assert body_b.startswith(head_b)
                assert body_a[len(head_a):] == body_b[len(head_b):]
            # backlog replay: the ring (backlog=2) still holds 2..3
            result = one.request("subscribe", view="rows", from_sequence=1)
            assert (result["resumed"], result["replayed"]) == ("replay", 2)
            assert [one.recv_frame() for _ in range(2)] == \
                [dict(delta_frame(result["subscription"], e), resumed=True)
                 for e in seen[1:]]
            # resume past the ring: one explicit reset frame
            result = two.request("subscribe", view="rows", from_sequence=0)
            assert (result["resumed"], result["replayed"]) == ("reset", 1)
            assert two.recv_frame() == resume_reset_frame(
                result["subscription"], "rows", 1, 3)
            for client in (one, two, writer):
                client.close()

    def test_one_encode_per_refresh_one_write_per_wakeup(self):
        handle, events = served_rows()
        with handle:
            subscriber = RawClient(handle.host, handle.port)
            writer = RawClient(handle.host, handle.port)
            subs = {subscriber.request("subscribe", view=view)
                    ["subscription"]: view
                    for view in ["rows"] * 8 + ["names"] * 8}
            before = counters(handle, "push_encodes", "socket_writes")
            writer.request("update", statements=[insert_row("x"),
                                                 insert_row("y")])
            frames = [subscriber.recv_frame() for _ in range(16)]
            after = counters(handle, "push_encodes", "socket_writes")
            # one batch, two views refreshed once each: two encodes, and
            # two writes — the writer's reply and all 16 pushes together
            assert [x - y for x, y in zip(after, before)] == [2, 2]
            # fan-out order is subscribe order, each at its view's seq 1
            assert [f["subscription"] for f in frames] == list(subs)
            for frame in frames:
                (event,) = events[subs[frame["subscription"]]]
                assert frame == delta_frame(frame["subscription"], event)
            subscriber.close()
            writer.close()

    def test_thousand_subscriptions_cost_one_encode_and_few_writes(self):
        handle, events = served_rows()
        with handle:
            subscriber = RawClient(handle.host, handle.port)
            writer = RawClient(handle.host, handle.port)
            subs = [subscriber.request("subscribe", view="rows")
                    ["subscription"] for _ in range(1000)]
            names = ("push_encodes", "socket_writes", "bytes_out")
            before = counters(handle, *names)
            for index in range(2):
                writer.request("update", statements=[insert_row(f"x{index}")])
            frames = [subscriber.recv_frame() for _ in range(2000)]
            encodes, writes, sent = [
                x - y for x, y in zip(counters(handle, *names), before)]
            assert encodes == 2             # one per refresh of ``rows``
            # each write but a wake-up's last carries >= 64 KiB; + the
            # two replies and at most one short write per refresh
            assert writes <= sent // WRITE_BATCH_BYTES + 4
            assert sent > 2000 * 100
            # every subscription saw 1 then 2, refreshes never interleave
            assert [f["subscription"] for f in frames] == subs + subs
            assert [f["sequence"] for f in frames] == [1] * 1000 + [2] * 1000
            subscriber.close()
            writer.close()

    def test_a_feed_without_subscribers_encodes_nothing(self):
        handle, events = served_rows()
        with handle:
            client = RawClient(handle.host, handle.port)
            sub = client.request("subscribe", view="rows")["subscription"]
            client.request("unsubscribe", subscription=sub)
            (before,) = counters(handle, "push_encodes")
            for index in range(3):
                client.request("update", statements=[insert_row(f"q{index}")])
            assert counters(handle, "push_encodes") == [before]
            # the ring captured them all the same: a resume replays them,
            # and only then are they encoded
            result = client.request("subscribe", view="rows", from_sequence=0)
            assert (result["resumed"], result["replayed"]) == ("replay", 3)
            assert [client.recv_frame() for _ in range(3)] == \
                [dict(delta_frame(result["subscription"], e), resumed=True)
                 for e in events["rows"]]
            assert counters(handle, "push_encodes") == [before + 3]
            client.close()

    def test_oversized_push_closes_its_sessions_and_no_other(self):
        # 60 rows: one statement touching them all makes a ``rows`` delta
        # far beyond max_frame, while every request stays far below it
        handle, events = served_rows(rows=60, max_frame=4096)
        with handle:
            victim = RawClient(handle.host, handle.port)
            bystander = RawClient(handle.host, handle.port)
            writer = RawClient(handle.host, handle.port)
            victim.request("subscribe", view="rows")
            bystander.request("subscribe", view="names")
            writer.request("update", statements=[insert_row("small")])
            writer.request("update", statements=[
                'for $r in document("data.xml")/data/row update $r '
                'replace $r/v with "1"'])
            writer.request("update", statements=[insert_row("after")])
            big = events["rows"][1]
            assert len(encode_frame(delta_frame(1, big))) > 4096
            # the victim got everything before the oversized refresh,
            # then a clean close — never a later frame past a hole
            assert victim.recv_frame()["sequence"] == 1
            assert victim.recv_frame() is None
            # sessions that were not owed that frame carry on
            assert [bystander.recv_frame()["sequence"]
                    for _ in events["names"]] == [1, 2]
            assert "<name>after</name>" in \
                writer.request("read", view="rows")["xml"]
            for client in (victim, bystander, writer):
                client.close()


# -- subscriber lifetime: nothing outlives its session, its view or its unsubscribe ------


def _half_close_and_drain(sock: socket.socket) -> None:
    """Send FIN, then read to EOF: returns once the server's
    ``_Session.close`` has detached the session's subscribers."""
    sock.shutdown(socket.SHUT_WR)
    sock.settimeout(30)
    while sock.recv(65536):
        pass
    sock.close()


class TestSubscriberLifetime:
    def test_subscribes_queued_behind_a_slow_job_leak_nothing(self):
        # the reconnect-storm shape: the apply loop is busy, clients
        # subscribe, give up and go away
        with rows_server() as handle:
            server = handle.server
            keeper = RawClient(handle.host, handle.port)
            keeper.request("hello")
            entered, gate = threading.Event(), threading.Event()

            def slow():
                entered.set()
                assert gate.wait(30)

            slow_job = asyncio.run_coroutine_threadsafe(
                server.run(slow), handle._loop)
            assert entered.wait(30)
            quitters = []
            for _ in range(5):
                sock = socket.create_connection((handle.host, handle.port))
                sock.sendall(encode_frame(
                    {"id": 1, "op": "subscribe", "view": "rows"}))
                quitters.append(sock)
            gate.set()
            slow_job.result(30)
            for sock in quitters:
                _half_close_and_drain(sock)
            keeper.request("update", statements=[insert_row("x")])
            # the feed is the view's one listener; nobody is attached
            registered = handle.db.registry.view("rows")
            assert registered.refresh_listeners == \
                [(server._feeds["rows"].handle._dispatch, True)]
            assert server._feeds["rows"].subscribers == {}
            keeper.close()

    def test_subscribe_job_that_outlives_its_session_registers_nothing(
            self):
        # The session closes (reaper, writer error, server stop) while
        # its subscribe waits in the apply queue: close() has nothing to
        # detach yet, so the job itself must notice.
        with rows_server() as handle:
            server = handle.server
            client = RawClient(handle.host, handle.port)
            client.request("hello")

            async def scenario():
                (session,) = server.sessions
                handler = asyncio.ensure_future(session._op_subscribe(
                    {"id": 2, "op": "subscribe", "view": "rows"}))
                await asyncio.sleep(0)      # the handler queues its job
                assert server._apply_queue.qsize() == 1
                await session.close()       # ... which has not run yet
                return await handler, session

            result, session = asyncio.run_coroutine_threadsafe(
                scenario(), handle._loop).result(30)
            assert result is None
            assert session.subscribers == {}
            assert server._feeds == {}
            assert handle.db.registry.view("rows").refresh_listeners == []
            client.close()

    def test_unsubscribe_close_and_drop_view_empty_the_feed(self):
        with rows_server() as handle:
            server = handle.server
            stays = RawClient(handle.host, handle.port)
            leaves = RawClient(handle.host, handle.port)
            first = stays.request("subscribe", view="rows")["subscription"]
            second = stays.request("subscribe", view="rows")["subscription"]
            third = leaves.request("subscribe", view="rows")["subscription"]
            feed = server._feeds["rows"]
            assert list(feed.subscribers) == [first, second, third]
            stays.request("unsubscribe", subscription=first)
            assert list(feed.subscribers) == [second, third]
            _half_close_and_drain(leaves.sock)
            assert list(feed.subscribers) == [second]
            survivor = feed.subscribers[second]
            stays.request("drop_view", name="rows")
            assert server._feeds == {} and feed.subscribers == {}
            assert survivor.dropped and not feed.handle.active
            # the session still owns the id: unsubscribe answers cleanly
            stays.request("unsubscribe", subscription=second)
            stays.close()


# -- the multi-client stress test against the oracle -------------------------------------


class TestConcurrentStress:
    THREADS = 4
    BATCHES = 6

    def _drive(self, host, port, thread_id, ledger, errors):
        try:
            with ReproClient(host, port) as client:
                for turn in range(self.BATCHES):
                    statements = [
                        insert_row(f"t{thread_id}b{turn}")]
                    if turn >= 1:
                        statements.append(replace_row_value(
                            f"t{thread_id}b{turn - 1}", str(turn)))
                    if turn >= 2:
                        statements.append(delete_row(
                            f"t{thread_id}b{turn - 2}"))
                    reply = client.update(statements)
                    ledger.append((reply["applied_index"], statements))
        except Exception as exc:   # noqa: BLE001 — surfaced by the test
            errors.append(exc)

    def test_interleaved_batches_match_single_session_oracle(self):
        ledger: list = []
        errors: list = []
        with rows_server() as handle:
            watcher = ReproClient(handle.host, handle.port)
            subscription = watcher.subscribe("rows")
            threads = [threading.Thread(
                target=self._drive,
                args=(handle.host, handle.port, t, ledger, errors))
                for t in range(self.THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors, errors
            served = watcher.read("rows")
            # 1) the served extent matches full recomputation
            assert served["xml"] == watcher.query(ROWS_QUERY)
            # 2) the watcher saw every refresh, gap-free
            sequences = []
            while not sequences or sequences[-1] < served["sequence"]:
                frame = subscription.get(timeout=30)
                assert frame["type"] == "delta"
                sequences.append(frame["sequence"])
            assert sequences == list(range(1, served["sequence"] + 1))
            watcher.close()
        # 3) a single-session oracle replaying the server's serialized
        #    order lands on the identical extent
        assert len(ledger) == self.THREADS * self.BATCHES
        indices = [index for index, _ in ledger]
        assert len(set(indices)) == len(indices)
        with Database() as oracle:
            oracle.load("data.xml", ROWS_XML)
            oracle.create_view("rows", ROWS_QUERY)
            for _, statements in sorted(ledger):
                with oracle.batch():
                    for statement in statements:
                        oracle.execute(statement)
            assert oracle.read("rows") == served["xml"]


# -- ClientSubscription lifecycle edges ---------------------------------------------------


class TestSubscriptionLifecycle:
    def test_get_keeps_raising_after_client_close(self):
        """Closing the client ends the stream for every consumer —
        ``get`` raises (repeatedly, from any thread), never hangs."""
        with rows_server() as handle:
            client = ReproClient(handle.host, handle.port)
            subscription = client.subscribe("rows")
            client.close()
            for _ in range(3):
                with pytest.raises(ConnectionClosed):
                    subscription.get(timeout=5)

    def test_concurrent_getters_all_unblock_on_close(self):
        import time
        with rows_server() as handle:
            client = ReproClient(handle.host, handle.port)
            subscription = client.subscribe("rows")
            failures: list = []

            def getter():
                try:
                    with pytest.raises(ConnectionClosed):
                        subscription.get(timeout=15)
                except Exception as exc:   # noqa: BLE001
                    failures.append(exc)

            threads = [threading.Thread(target=getter)
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            time.sleep(0.1)     # everyone parked in frames.get
            client.close()
            for thread in threads:
                thread.join(timeout=15)
                assert not thread.is_alive(), "getter stuck after close"
            assert not failures, failures

    def test_cancel_races_inflight_pushes_idempotently(self):
        import time
        with rows_server() as handle:
            with ReproClient(handle.host, handle.port) as client:
                subscription = client.subscribe("rows")
                with ReproClient(handle.host,
                                 handle.port) as writer:
                    stop = threading.Event()

                    def mutate():
                        index = 0
                        while not stop.is_set():
                            writer.update([insert_row(f"r{index}")])
                            index += 1

                    thread = threading.Thread(target=mutate)
                    thread.start()
                    try:
                        time.sleep(0.05)    # pushes are in flight
                        subscription.cancel()
                        subscription.cancel()   # idempotent
                    finally:
                        stop.set()
                        thread.join(timeout=10)
                assert subscription.closed
                assert subscription.id not in client._subscriptions
                # buffered frames drain, then iteration terminates
                remaining = list(subscription)
                assert all(f["type"] == "delta" for f in remaining)
                # further gets raise instead of hanging
                with pytest.raises(ConnectionClosed):
                    subscription.get(timeout=1)
                # the connection itself is unaffected
                client.ping()

    def test_iteration_ends_after_gap_then_disconnect(self):
        """The strict policy's parting sequence at the consumer level:
        buffered deltas, then the gap frame, then clean termination."""
        subscription = ClientSubscription(types.SimpleNamespace(),
                                          7, "rows", 0)
        subscription.frames.put({"type": "delta", "subscription": 7,
                                 "view": "rows", "sequence": 1,
                                 "reset": False, "mutations": []})
        subscription.frames.put(gap_frame(7, "rows", 1, 5, dropped=4))
        subscription._close()
        frames = list(subscription)
        assert [f["type"] for f in frames] == ["delta", "gap"]
        assert frames[1]["dropped"] == 4
        assert subscription.last_sequence == 5
        with pytest.raises(ConnectionClosed):
            subscription.get(timeout=1)


# -- a served run is reproducible from its seed ----------------------------------------


class TestSeedReproducibility:
    """The flush decision reads row counters, never a clock, so the
    unpinned views of two served runs of one seeded stream decide alike
    and their subscribers receive the same bytes."""

    @staticmethod
    def served_run(seed: int) -> tuple[list, list]:
        rng = random.Random(seed)
        db = Database()
        db.load("data.xml", seeded_rows_xml(3))
        events = []
        for view, query in (("rows", ROWS_QUERY), ("names", NAMES_QUERY)):
            db.create_view(view, query)
            db.subscribe(view, events.append)
        live = [f"seed{n}" for n in range(3)]
        with start_in_thread(db, own_db=True) as handle:
            watcher = BodyClient(handle.host, handle.port)
            writer = RawClient(handle.host, handle.port)
            for view in ("rows", "names"):
                watcher.request("subscribe", view=view)
            start = len(watcher.bodies)
            for step in range(30):
                statements = []
                for index in range(rng.randint(1, 6)):
                    name = f"n{step}x{index}"
                    choice = rng.random()
                    if choice < 0.5 or len(live) < 2:
                        statements.append(insert_row(name))
                        live.append(name)
                    elif choice < 0.75:
                        statements.append(delete_row(
                            live.pop(rng.randrange(len(live)))))
                    else:
                        statements.append(replace_row_value(
                            rng.choice(live), str(rng.randint(0, 9))))
                writer.request("update", statements=statements)
                while len(watcher.bodies) - start < len(events):
                    assert watcher.recv_frame() is not None
            watcher.close()
            writer.close()
        return ([(event.view, event.reason) for event in events],
                watcher.bodies[start:])

    def test_same_seed_same_decisions_same_frames(self):
        reasons, frames = self.served_run(5)
        assert {reason for _view, reason in reasons} \
            == {"propagate", "recompute"}
        assert len(frames) == len(reasons)
        assert self.served_run(5) == (reasons, frames)
