"""Tests for the unified ``Database`` session API (repro.api)."""

import json

import pytest

from repro import StorageManager, UpdateError, UpdateRequest, ViewRegistry, \
    XmlDocument
from repro.api import Database, RefreshEvent, Subscription, Update, View
from repro.multiview import RegisteredView
from repro.workloads.bib import (BIB_XML, NEW_BOOK_FRAGMENT, PRICES_XML,
                                 YEAR_GROUP_QUERY)

TITLES_QUERY = ('<r>{for $b in doc("bib.xml")/bib/book '
                'return $b/title}</r>')


def fresh_db() -> Database:
    db = Database()
    db.load("bib.xml", BIB_XML).load("prices.xml", PRICES_XML)
    return db


class TestDocuments:
    def test_load_text_and_chaining(self):
        db = fresh_db()
        assert db.documents() == ["bib.xml", "prices.xml"]

    def test_load_prepared_document(self):
        db = Database()
        db.load("d.xml", XmlDocument.from_string("d.xml", "<d><x/></d>"))
        assert db.documents() == ["d.xml"]

    def test_load_document_name_mismatch(self):
        db = Database()
        with pytest.raises(ValueError):
            db.load("other.xml",
                    XmlDocument.from_string("d.xml", "<d/>"))

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "bib.xml"
        path.write_text(BIB_XML)
        db = Database().load("bib.xml", path)
        assert db.documents() == ["bib.xml"]

    def test_update_unknown_document(self):
        db = fresh_db()
        with pytest.raises(KeyError):
            db.update("nope.xml")


class TestViews:
    def test_create_read_recompute(self):
        db = fresh_db()
        view = db.create_view("titles", TITLES_QUERY)
        assert isinstance(view, View)
        assert "TCP/IP Illustrated" in view.read()
        assert view.read() == view.recompute()

    def test_view_handle_lookup_and_drop(self):
        db = fresh_db()
        db.create_view("titles", TITLES_QUERY)
        assert db.views() == ["titles"]
        db.view("titles").drop()
        assert db.views() == []
        with pytest.raises(KeyError):
            db.view("titles")

    def test_deferred_view_flushes_on_read(self):
        # a deferred view queues the insert's Δ until it is read
        db = fresh_db()
        view = db.create_view("titles", TITLES_QUERY, policy="deferred")
        db.update("bib.xml").at("/bib/book[2]") \
            .insert(NEW_BOOK_FRAGMENT, position="after")
        assert view.pending_trees() == 1
        assert "Advanced Programming" not in view.peek()  # stale by design
        assert "Advanced Programming" in view.read()      # lazy flush
        assert view.pending_trees() == 0

    def test_ad_hoc_query(self):
        db = fresh_db()
        xml = db.query(TITLES_QUERY)
        assert "Data on the Web" in xml


class TestBuilder:
    def test_insert_after_path(self):
        db = fresh_db()
        view = db.create_view("titles", TITLES_QUERY)
        update = db.update("bib.xml").at("/bib/book[2]") \
            .insert(NEW_BOOK_FRAGMENT, position="after")
        assert isinstance(update, Update)
        assert update.applied and len(update.requests) == 1
        assert "Advanced Programming" in view.read()
        assert view.read() == view.recompute()

    def test_insert_into(self):
        db = fresh_db()
        view = db.create_view("titles", TITLES_QUERY)
        db.update("bib.xml").at("/bib") \
            .insert(NEW_BOOK_FRAGMENT, position="into")
        assert view.read().endswith(
            "<title>Advanced Programming in the Unix environment</title></r>")

    def test_delete_by_value_predicate(self):
        db = fresh_db()
        view = db.create_view("titles", TITLES_QUERY)
        db.update("bib.xml") \
            .at('/bib/book[title="Data on the Web"]').delete()
        assert "Data on the Web" not in view.read()
        assert view.read() == view.recompute()

    def test_replace_with_on_intermediate_predicate_path(self):
        db = fresh_db()
        view = db.create_view("titles", TITLES_QUERY)
        db.update("bib.xml").at("/bib/book[1]/title") \
            .replace_with("TCP/IP Illustrated, 2nd ed")
        assert "2nd ed" in view.read()
        assert view.read() == view.recompute()

    def test_multi_match_path_expands(self):
        db = fresh_db()
        update = db.update("prices.xml").at("/prices/entry/price") \
            .replace_with("1")
        assert len(update.requests) == 3

    def test_unmatched_path_is_typed_error(self):
        db = fresh_db()
        with pytest.raises(UpdateError) as err:
            db.update("bib.xml").at("/bib/pamphlet").delete()
        assert err.value.statement is not None
        assert "addressed no node" in str(err.value)

    def test_malformed_path_fails_at_call_site(self):
        db = fresh_db()
        with pytest.raises(UpdateError):
            db.update("bib.xml").at("/bib/book[")

    def test_bad_position_fails_eagerly(self):
        db = fresh_db()
        with pytest.raises(UpdateError) as err:
            db.update("bib.xml").at("/bib/book[1]") \
                .insert("<x/>", position="inside")
        assert "inside" in str(err.value)

    def test_fragment_node_not_aliased_across_targets(self):
        db = fresh_db()
        from repro.xmlmodel import parse_fragment
        node = parse_fragment("<note>x</note>")[0]
        update = db.update("prices.xml").at("/prices/entry") \
            .insert(node, position="into")
        fragments = [request.fragment for request in update.requests]
        assert len(fragments) == 3
        assert len({id(f) for f in fragments}) == 3


class TestExecute:
    DELETE_STMT = ('for $b in document("bib.xml")/bib/book '
                   'where $b/title = "Data on the Web" '
                   'update $b delete $b')

    def test_execute_round_trip(self):
        db = fresh_db()
        view = db.create_view("titles", TITLES_QUERY)
        update = db.execute(self.DELETE_STMT)
        assert update.applied and update.statement == self.DELETE_STMT
        assert "Data on the Web" not in view.read()
        assert view.read() == view.recompute()

    def test_execute_no_match_is_noop(self):
        db = fresh_db()
        update = db.execute(
            'for $b in document("bib.xml")/bib/book '
            'where $b/title = "No Such Title" update $b delete $b')
        assert update.applied and update.requests == []

    def test_execute_malformed_is_typed_error(self):
        db = fresh_db()
        with pytest.raises(UpdateError) as err:
            db.execute('for $b in document("bib.xml")/bib/book delete $b')
        assert err.value.statement is not None


class TestBatch:
    def test_batch_flushes_as_one_stream(self):
        db = fresh_db()
        view = db.create_view("by_year", YEAR_GROUP_QUERY)
        with db.batch() as batch:
            db.update("bib.xml").at("/bib/book[2]") \
                .insert(NEW_BOOK_FRAGMENT, position="after")
            db.update("prices.xml").at("/prices/entry[2]/price") \
                .replace_with("70")
            db.execute(TestExecute.DELETE_STMT)
            assert len(batch) == 3
            # nothing applied until the block exits
            assert "Advanced Programming" not in view.peek()
        assert batch.report is not None
        assert batch.report.updates >= 3
        assert all(update.applied for update in batch)
        assert "Advanced Programming" in view.read()
        assert "Data on the Web" not in view.read()
        assert view.read() == view.recompute()

    def test_rollback_on_mid_batch_failure(self):
        db = fresh_db()
        view = db.create_view("titles", TITLES_QUERY)
        before = view.read()
        nodes_before = db.storage.node_count()
        with pytest.raises(UpdateError) as err:
            with db.batch():
                db.update("bib.xml").at("/bib/book[1]").delete()
                db.update("bib.xml").at("/bib/missing").delete()
        offending = err.value.statement
        assert isinstance(offending, Update)
        assert offending.path == "/bib/missing"
        assert err.value.applied == 0
        # full rollback: neither statement reached storage or the view
        assert db.storage.node_count() == nodes_before
        assert view.read() == before == view.recompute()

    def test_body_exception_discards_batch(self):
        db = fresh_db()
        view = db.create_view("titles", TITLES_QUERY)
        before = view.read()
        with pytest.raises(RuntimeError):
            with db.batch():
                db.update("bib.xml").at("/bib/book[1]").delete()
                raise RuntimeError("user abort")
        assert view.read() == before

    def test_nested_batch_rejected(self):
        db = fresh_db()
        with db.batch():
            with pytest.raises(RuntimeError):
                with db.batch():
                    pass

    def test_empty_batch_is_noop(self):
        db = fresh_db()
        with db.batch() as batch:
            pass
        assert batch.report is None

    def test_batch_equivalent_to_direct_registry_stream(self):
        """The facade and the raw registry produce identical extents."""
        direct_storage = StorageManager()
        direct_storage.register(
            XmlDocument.from_string("bib.xml", BIB_XML))
        direct_storage.register(
            XmlDocument.from_string("prices.xml", PRICES_XML))
        registry = ViewRegistry(direct_storage)
        registry.register("by_year", YEAR_GROUP_QUERY)
        books = direct_storage.find_by_path(
            "bib.xml", [("child", "bib"), ("child", "book")])
        registry.apply_updates([
            UpdateRequest.insert("bib.xml", books[1], NEW_BOOK_FRAGMENT,
                                 "after"),
            UpdateRequest.delete("bib.xml", books[0]),
        ])

        db = fresh_db()
        view = db.create_view("by_year", YEAR_GROUP_QUERY)
        with db.batch():
            db.update("bib.xml").at("/bib/book[2]") \
                .insert(NEW_BOOK_FRAGMENT, position="after")
            db.update("bib.xml").at("/bib/book[1]").delete()
        assert view.read() == registry.query("by_year")


class TestSubscriptions:
    def test_refresh_event_on_propagate(self):
        db = fresh_db()
        db.create_view("titles", TITLES_QUERY)
        events = []
        subscription = db.subscribe("titles", events.append)
        assert isinstance(subscription, Subscription)
        db.update("bib.xml").at("/bib/book[1]").delete()
        assert events and isinstance(events[0], RefreshEvent)
        assert events[0].view == "titles"
        assert events[0].reason == "propagate"
        assert events[0].trees == 1

    def test_refresh_event_on_recompute(self, monkeypatch):
        monkeypatch.setattr(RegisteredView, "over_work_bound",
                            lambda self: True)
        db = fresh_db()
        db.create_view("titles", TITLES_QUERY)
        events = []
        db.subscribe("titles", events.append)
        db.update("bib.xml").at("/bib/book[1]").delete()
        assert events and events[-1].reason == "recompute"
        # the recompute after the delete run's deletes still reports how
        # many update trees the refresh consumed
        assert events[-1].trees == 1

    def test_deferred_view_fires_on_read(self):
        db = fresh_db()
        view = db.create_view("titles", TITLES_QUERY, policy="deferred")
        events = []
        db.subscribe("titles", events.append)
        db.update("bib.xml").at("/bib/book[2]") \
            .insert(NEW_BOOK_FRAGMENT, position="after")
        assert events == []          # queued, not yet refreshed
        view.read()
        assert [event.reason for event in events] == ["propagate"]

    def test_raising_subscriber_is_isolated(self):
        # Pinned: one faulty subscriber must neither abort the flush nor
        # starve the other subscribers (the server's fan-out relies on
        # this), and the failure is counted, not swallowed silently.
        db = fresh_db()
        view = db.create_view("titles", TITLES_QUERY)
        events = []

        def bad(event):
            raise RuntimeError("boom")

        db.subscribe("titles", bad)
        db.subscribe("titles", events.append)
        db.update("bib.xml").at("/bib/book[1]").delete()
        assert [event.reason for event in events] == ["propagate"]
        assert view.read() == view.recompute()
        snapshot = db.metrics()
        assert snapshot["subscriber_errors"]["values"][""] == 1

    def test_mutation_payload_on_propagate(self):
        db = fresh_db()
        db.create_view("titles", TITLES_QUERY)
        events = []
        db.subscribe("titles", events.append, deliver_mutations=True)
        db.update("bib.xml").at("/bib/book[1]").delete()
        (event,) = events
        assert event.mutations is not None
        (record,) = event.mutations
        assert record["op"] == "remove"
        assert record["path"][0] == ["r", "*c"]
        # the records are JSON-ready as promised to the wire protocol
        json.dumps(event.mutations)

    def test_mutation_payload_insert_carries_key_and_xml(self):
        db = fresh_db()
        db.create_view("titles", TITLES_QUERY)
        events = []
        db.subscribe("titles", events.append, deliver_mutations=True)
        db.update("bib.xml").at("/bib/book[2]") \
            .insert(NEW_BOOK_FRAGMENT, position="after")
        records = events[-1].mutations
        inserts = [r for r in records if r["op"] == "insert"]
        assert inserts, records
        record = inserts[0]
        assert record["parent"] == [["r", "*c"]]
        assert record["key"][0] == "title"
        assert "Advanced Programming" in record["xml"]

    def test_mutations_none_without_opt_in(self):
        db = fresh_db()
        db.create_view("titles", TITLES_QUERY)
        events = []
        db.subscribe("titles", events.append)    # capture stays off
        db.update("bib.xml").at("/bib/book[1]").delete()
        assert events[0].mutations is None

    def test_mutations_none_on_recompute(self, monkeypatch):
        monkeypatch.setattr(RegisteredView, "over_work_bound",
                            lambda self: True)
        db = fresh_db()
        db.create_view("titles", TITLES_QUERY)
        events = []
        db.subscribe("titles", events.append, deliver_mutations=True)
        db.update("bib.xml").at("/bib/book[1]").delete()
        assert events[-1].reason == "recompute"
        assert events[-1].mutations is None      # subscribers re-read

    def test_cancel_is_idempotent(self):
        db = fresh_db()
        db.create_view("titles", TITLES_QUERY)
        events = []
        subscription = db.subscribe("titles", events.append)
        subscription.cancel()
        subscription.cancel()
        db.update("bib.xml").at("/bib/book[1]").delete()
        assert events == []

    def test_cancel_removes_the_listener_and_stops_capture(self):
        # cancel() used to leave the listener registered (it compared
        # bound methods by identity), so capture stayed on forever and
        # every refresh still called every dead subscription.
        db = fresh_db()
        db.create_view("titles", TITLES_QUERY)
        registered = db.registry.view("titles")
        payload = db.subscribe("titles", lambda event: None,
                               deliver_mutations=True)
        events = []
        plain = db.subscribe("titles", events.append)
        assert len(registered.refresh_listeners) == 2
        payload.cancel()
        assert registered.refresh_listeners == [(plain._dispatch, False)]
        db.update("bib.xml").at("/bib/book[1]").delete()
        assert events[0].mutations is None       # capture is off again

    def test_listeners_and_capture_are_per_view(self):
        db = fresh_db()
        db.create_view("titles", TITLES_QUERY)
        db.create_view("years", '<r>{for $b in doc("bib.xml")/bib/book '
                                'return $b/@year}</r>')
        titles, years = [], []
        db.subscribe("titles", titles.append, deliver_mutations=True)
        db.subscribe("years", years.append)
        db.update("bib.xml").at("/bib/book[1]").delete()
        assert [event.view for event in titles] == ["titles"]
        assert [event.view for event in years] == ["years"]
        assert titles[0].mutations is not None
        # the payload subscriber on ``titles`` does not make the Apply
        # phase of ``years`` log records
        assert years[0].mutations is None
        # a view takes its listener list with it
        db.registry.unregister("titles")
        db.registry.remove_refresh_listener("titles", titles.append)
        db.create_view("titles", TITLES_QUERY)
        assert db.registry.view("titles").refresh_listeners == []

    def test_subscribe_unknown_view(self):
        db = fresh_db()
        with pytest.raises(KeyError):
            db.subscribe("nope", lambda event: None)

    def test_drop_view_cancels_its_subscriptions(self):
        db = fresh_db()
        db.create_view("titles", TITLES_QUERY)
        subscription = db.subscribe("titles", lambda event: None)
        db.drop_view("titles")
        assert not subscription.active


class TestLifecycle:
    def test_context_manager_closes(self):
        storage = StorageManager()
        storage.register(XmlDocument.from_string("bib.xml", BIB_XML))
        with Database(storage=storage) as db:
            db.create_view("titles", TITLES_QUERY)
            db.subscribe("titles", lambda event: None)
        db.close()   # double close is safe
        # the registry listener is gone: raw mutations notify nobody
        key = storage.find_by_path(
            "bib.xml", [("child", "bib"), ("child", "book")])[0]
        storage.delete_subtree(key)   # would count on a live registry

    def test_registry_is_context_manager(self):
        storage = StorageManager()
        storage.register(XmlDocument.from_string("bib.xml", BIB_XML))
        with ViewRegistry(storage) as registry:
            registry.register("titles", TITLES_QUERY)
        registry.close()   # discard semantics: double close is safe

    def test_remove_listener_discard_semantics(self):
        storage = StorageManager()

        def listener(op, key):
            pass

        storage.remove_listener(listener)   # never added: no raise
        storage.add_listener(listener)
        storage.remove_listener(listener)
        storage.remove_listener(listener)   # double remove: no raise


class TestPrimitiveValidation:
    def test_bad_position_on_delete_rejected(self):
        from repro.flexkeys import FlexKey
        from repro.xat.base import DELETE, MODIFY
        with pytest.raises(UpdateError):
            UpdateRequest(DELETE, "d.xml", FlexKey("b"),
                          position="sideways")
        with pytest.raises(UpdateError):
            UpdateRequest(MODIFY, "d.xml", FlexKey("b"), new_value="x",
                          position="sideways")

    def test_update_error_is_value_error(self):
        assert issubclass(UpdateError, ValueError)
