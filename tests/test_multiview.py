"""Multi-view maintenance: routing, policies, work bound, consistency.

Every consistency assertion uses the paper's criterion — a view's extent
must serialize identically (content and order) to recomputation over the
current sources.
"""

import time

import pytest

from repro import (Database, StorageManager, UpdateRequest, ViewRegistry,
                   XmlDocument)
from repro.multiview import DEFERRED, RegisteredView, threshold
from repro.multiview.pipeline import ViewPipeline
from repro.multiview.router import SharedValidationRouter
from repro.updates.sapt import Sapt
from repro.workloads import bib as bibload
from repro.workloads import xmark

from .helpers import (GROUPED_VIEWS, _site_paths, books_of,
                      closed_auctions_of as auctions_of, persons_of, pin)


def multiview_storage(num_persons: int = 20) -> StorageManager:
    storage = StorageManager()
    bibload.register_running_example(storage)
    xmark.register_site(storage, num_persons)
    return storage


def standard_registry(num_persons: int = 20,
                      **policies) -> tuple[StorageManager, ViewRegistry]:
    """A registry with one bib view and three site views."""
    storage = multiview_storage(num_persons)
    registry = ViewRegistry(storage)
    registry.register("ygroup", bibload.YEAR_GROUP_QUERY,
                      policy=policies.get("ygroup", "immediate"))
    registry.register("seniors", xmark.SELECTION_QUERY,
                      policy=policies.get("seniors", "immediate"))
    registry.register("sales", xmark.JOIN_QUERY,
                      policy=policies.get("sales", "immediate"))
    registry.register("profiles", xmark.ORDER_QUERY_1,
                      policy=policies.get("profiles", "immediate"))
    return storage, registry


def assert_all_consistent(registry: ViewRegistry) -> None:
    for name in registry.names():
        got = registry.query(name)
        want = registry.recompute_xml(name)
        assert got == want, (
            f"view {name} diverged from recomputation\n"
            f" got: {got}\nwant: {want}")


def ages_of(storage):
    return storage.find_by_path(
        "site.xml",
        [("child", "site"), ("child", "people"), ("child", "person"),
         ("child", "profile"), ("child", "age")])


class TestInterleavedStream:
    def test_four_views_interleaved_updates_all_consistent(self):
        storage, registry = standard_registry()
        persons = persons_of(storage)
        auctions = auctions_of(storage)
        books = books_of(storage)
        updates = [
            UpdateRequest.insert("bib.xml", books[-1],
                                 bibload.NEW_BOOK_FRAGMENT, "after"),
            UpdateRequest.insert("site.xml", persons[-1],
                                 xmark.new_person_xml(1, city="Cairo",
                                                      age=61), "after"),
            UpdateRequest.delete("site.xml", persons[0]),
            UpdateRequest.delete("site.xml", persons[4]),
            UpdateRequest.insert("site.xml", auctions[0],
                                 xmark.new_closed_auction_xml(7, "person3"),
                                 "before"),
            UpdateRequest.delete("bib.xml", books[0]),
            UpdateRequest.insert("site.xml", persons[7],
                                 xmark.new_person_xml(2, age=19), "before"),
            UpdateRequest.delete("site.xml", auctions[3]),
            # name is exposed content (no predicate): a plain modify
            UpdateRequest.modify(
                "site.xml",
                storage.children(persons[8], "name")[0], "Renamed 8"),
        ]
        report = registry.apply_updates(updates)
        # Shared validation: each request classified exactly once.
        assert report.classifications == len(updates)
        assert report.updates == len(updates)
        assert_all_consistent(registry)

    def test_predicate_modifies_first_class(self):
        """Modifies that feed a predicate propagate as first-class
        retract/assert pairs — nothing is decomposed."""
        storage, registry = standard_registry()
        ages = ages_of(storage)
        persons = persons_of(storage)
        updates = [
            # age feeds the selection view's predicate
            UpdateRequest.modify("site.xml", ages[3], "77"),
            UpdateRequest.insert("site.xml", persons[-1],
                                 xmark.new_person_xml(5, age=50), "after"),
            UpdateRequest.modify("site.xml", ages[8], "12"),
        ]
        report = registry.apply_updates(updates)
        # both predicate modifies probed the router and hit
        assert registry.router.stats.predicate_checks >= 2
        assert registry.router.stats.predicate_modifies >= 2
        assert report.updates == len(updates)
        assert_all_consistent(registry)

    def test_legacy_decomposition_flag_removed(self):
        """The modify_decomposition escape hatch is gone; the registry
        rejects the old keyword instead of silently ignoring it."""
        storage = multiview_storage()
        with pytest.raises(TypeError, match="modify_decomposition"):
            ViewRegistry(storage, modify_decomposition=True)


class TestRouting:
    def test_update_routed_only_to_relevant_views(self):
        storage, registry = standard_registry()
        books = books_of(storage)
        report = registry.apply_updates([UpdateRequest.insert(
            "bib.xml", books[-1], bibload.NEW_BOOK_FRAGMENT, "after")])
        assert report.routed == 1
        assert registry.view("ygroup").stats.routed_trees == 1
        for site_view in ("seniors", "sales", "profiles"):
            assert registry.view(site_view).stats.routed_trees == 0
            assert registry.view(site_view).report.batches == 0
        assert_all_consistent(registry)

    def test_irrelevant_everywhere_hits_storage_exactly_once(self):
        storage, registry = standard_registry()
        before = {name: registry.to_xml(name) for name in registry.names()}
        # An author fragment sits below bib's binding-only /bib/book path
        # and inside no site view's documents: irrelevant to every view.
        book = books_of(storage)[0]
        author = storage.children(book, "author")[0]
        report = registry.apply_updates([UpdateRequest.insert(
            "bib.xml", author, "<author><last>New</last></author>",
            "after")])
        assert report.irrelevant_everywhere == 1
        assert report.routed == 0
        assert report.storage_ops == 1
        for name, xml in before.items():
            assert registry.to_xml(name) == xml  # nothing propagated
        assert_all_consistent(registry)

    def test_router_matches_per_view_validation(self):
        storage, registry = standard_registry()
        targets = ([("bib.xml", key) for key in books_of(storage)[:2]]
                   + [("site.xml", key) for key in persons_of(storage)[:3]]
                   + [("site.xml", key) for key in auctions_of(storage)[:2]]
                   + [("site.xml", key) for key in ages_of(storage)[:2]])
        for document, target in targets:
            routed = registry.router.route(storage, document, target).views
            expected = {
                name for name in registry.names()
                if registry.view(name).pipeline.sapt.is_relevant(
                    storage, document, target)}
            assert routed == expected, (document, target)

    def test_unregister_stops_routing(self):
        storage, registry = standard_registry()
        registry.unregister("profiles")
        assert "profiles" not in registry
        assert len(registry) == 3
        persons = persons_of(storage)
        report = registry.apply_updates([UpdateRequest.insert(
            "site.xml", persons[-1], xmark.new_person_xml(3), "after")])
        assert report.classifications == 1
        assert "profiles" not in report.views
        assert_all_consistent(registry)

    def test_duplicate_name_rejected(self):
        _storage, registry = standard_registry()
        with pytest.raises(ValueError):
            registry.register("ygroup", bibload.YEAR_GROUP_QUERY)

    def test_unmaterialized_view_rejects_updates(self):
        storage = multiview_storage()
        registry = ViewRegistry(storage)
        registry.register("seniors", xmark.SELECTION_QUERY,
                          materialize=False)
        persons = persons_of(storage)
        with pytest.raises(RuntimeError, match="materialize"):
            registry.apply_updates([UpdateRequest.insert(
                "site.xml", persons[-1], xmark.new_person_xml(1, age=70),
                "after")])

    def test_close_detaches_storage_listener(self):
        storage, registry = standard_registry()
        registry.close()
        registry.close()  # idempotent
        counted_before = registry._storage_ops
        storage.replace_text(
            storage.children(persons_of(storage)[0], "name")[0], "x")
        assert registry._storage_ops == counted_before  # no longer counting


class TestDeferredPolicy:
    def test_deferred_view_flushes_on_read(self):
        storage, registry = standard_registry(seniors=DEFERRED)
        stale = registry.to_xml("seniors")
        persons = persons_of(storage)
        registry.apply_updates([UpdateRequest.insert(
            "site.xml", persons[-1], xmark.new_person_xml(1, age=70),
            "after")])
        view = registry.view("seniors")
        assert view.pending_trees() == 1
        assert registry.to_xml("seniors") == stale  # not yet propagated
        assert registry.query("seniors") == registry.recompute_xml("seniors")
        assert view.pending_trees() == 0
        assert view.stats.flushes == 1
        assert_all_consistent(registry)

    def test_immediate_views_unaffected_by_neighbour_deferral(self):
        storage, registry = standard_registry(seniors=DEFERRED)
        persons = persons_of(storage)
        registry.apply_updates([UpdateRequest.insert(
            "site.xml", persons[-1], xmark.new_person_xml(2, age=66),
            "after")])
        # profiles is immediate: already refreshed without a read.
        assert (registry.to_xml("profiles")
                == registry.recompute_xml("profiles"))

    def test_delete_is_a_barrier_for_deferred_views(self):
        storage, registry = standard_registry(seniors=DEFERRED)
        persons = persons_of(storage)
        registry.apply_updates([UpdateRequest.insert(
            "site.xml", persons[-1], xmark.new_person_xml(4, age=55),
            "after")])
        assert registry.view("seniors").pending_trees() == 1
        registry.apply_updates([
            UpdateRequest.delete("site.xml", persons[2])])
        # The queued insert and the delete both propagated before the
        # subtree left storage.
        assert registry.view("seniors").pending_trees() == 0
        assert (registry.to_xml("seniors")
                == registry.recompute_xml("seniors"))
        assert_all_consistent(registry)

    def test_nested_insert_covered_by_pending_insert(self):
        storage, registry = standard_registry(profiles=DEFERRED)
        persons = persons_of(storage)
        first = registry.apply_updates([UpdateRequest.insert(
            "site.xml", persons[-1], xmark.new_person_xml(6), "after")])
        new_person = storage.find_by_path(
            "site.xml", [("child", "site"), ("child", "people"),
                         ("child", "person")])[-1]
        profile = storage.children(new_person, "profile")[0]
        # An interest inside the still-pending person: the queued insert
        # reads final storage at flush time, so this must not be queued
        # again (it would double-count).
        registry.apply_updates([UpdateRequest.insert(
            "site.xml", profile, '<interest category="category1"/>',
            "into")])
        assert registry.view("profiles").pending_trees() == 1
        assert (registry.query("profiles")
                == registry.recompute_xml("profiles"))
        assert_all_consistent(registry)


class TestThresholdPolicy:
    def test_flushes_when_pending_reaches_bound(self):
        storage, registry = standard_registry(seniors=threshold(3))
        view = registry.view("seniors")
        persons = persons_of(storage)
        for index in range(2):
            registry.apply_updates([UpdateRequest.insert(
                "site.xml", persons[-1],
                xmark.new_person_xml(index, age=60 + index), "after")])
        assert view.pending_trees() == 2
        assert view.stats.flushes == 0
        registry.apply_updates([UpdateRequest.insert(
            "site.xml", persons[-1], xmark.new_person_xml(9, age=45),
            "after")])
        assert view.pending_trees() == 0
        assert view.stats.flushes == 1
        assert (registry.to_xml("seniors")
                == registry.recompute_xml("seniors"))
        assert_all_consistent(registry)


class TestCountSignedDrainDiscipline:
    """Queued trees in one deferred queue — inserts, modify pairs and
    count-neutral refreshes alike — re-derive against *final* storage at
    flush time, so through a shared group or join key a queued tree
    absorbs a later count-signed change and the derivation counts
    silently inflate — invisible in the XML until a retraction
    under-removes and leaves a stale duplicate.  The registry must drain
    every queued tree before a new count-signed mutation lands (for
    entangled views; per-item linear views keep batching).  These are
    the minimized repros that found the bug.
    """

    @pytest.fixture(autouse=True)
    def force_incremental(self, monkeypatch):
        # The work bound's recompute fallback masks the bug: pin every
        # flush to the incremental path.
        monkeypatch.setattr(RegisteredView, "over_work_bound",
                            lambda self: False)

    @staticmethod
    def grouped_registry():
        storage = StorageManager()
        xmark.register_site(storage, 12, seed=7)
        registry = ViewRegistry(storage)
        registry.register("bycity", xmark.PERSONS_BY_CITY_QUERY,
                          policy=DEFERRED)
        return storage, registry

    @staticmethod
    def city_of(storage, person):
        address = storage.children(person, "address")[0]
        return storage.children(address, "city")[0]

    def test_queued_insert_not_absorbed_by_later_pair(self):
        storage, registry = self.grouped_registry()
        persons = persons_of(storage)
        registry.apply_updates([UpdateRequest.insert(
            "site.xml", storage.children(persons[3], "address")[0],
            "<city>Worcester</city>", "into")])
        city = self.city_of(storage, persons[5])
        registry.apply_updates([UpdateRequest.modify(
            "site.xml", city, "Worcester")])
        # The retraction under-removes if the queued insert's flush
        # absorbed the pair's assert half.
        registry.apply_updates([UpdateRequest.modify(
            "site.xml", city, "Paris")])
        assert registry.query("bycity") == registry.recompute_xml("bycity")

    def test_queued_inserts_not_double_counted_across_batches(self):
        storage, registry = self.grouped_registry()
        persons = persons_of(storage)
        registry.apply_updates([UpdateRequest.insert(
            "site.xml", storage.children(persons[4], "address")[0],
            "<city>Tokyo</city>", "into")])
        registry.apply_updates([UpdateRequest.insert(
            "site.xml", persons[-1],
            '<person id="np1"><name>New Person</name><address>'
            '<street>1 New St</street><city>Tokyo</city>'
            '<country>United States</country></address></person>',
            "after")])
        registry.apply_updates([UpdateRequest.delete(
            "site.xml", persons[4])])
        assert registry.query("bycity") == registry.recompute_xml("bycity")

    def test_queued_pair_not_absorbed_by_later_pair(self):
        storage, registry = self.grouped_registry()
        persons = persons_of(storage)
        first = self.city_of(storage, persons[2])
        second = self.city_of(storage, persons[7])
        registry.apply_updates([UpdateRequest.modify(
            "site.xml", first, "Atlantis")])
        registry.apply_updates([UpdateRequest.modify(
            "site.xml", second, "Atlantis")])
        registry.apply_updates([UpdateRequest.modify(
            "site.xml", first, "Lima")])
        assert registry.query("bycity") == registry.recompute_xml("bycity")

    def test_queued_pairs_consistent_under_delete_barrier(self):
        storage, registry = self.grouped_registry()
        persons = persons_of(storage)
        registry.apply_updates([UpdateRequest.modify(
            "site.xml", self.city_of(storage, persons[2]), "Atlantis")])
        registry.apply_updates([UpdateRequest.modify(
            "site.xml", self.city_of(storage, persons[7]), "Atlantis")])
        registry.apply_updates([UpdateRequest.delete(
            "site.xml", persons[2])])
        assert registry.query("bycity") == registry.recompute_xml("bycity")

    def test_queued_refresh_not_absorbed_by_later_insert(self):
        """A count-neutral refresh re-derives against final storage too:
        a queued name refresh that flushes after a second ``<city>``
        landed under the same person re-derives the person into the new
        city's group, and the insert then asserts it again."""
        for finish in ("delete-city", "delete-person", "modify-city"):
            storage, registry = self.grouped_registry()
            person = persons_of(storage)[3]
            registry.apply_updates([UpdateRequest.modify(
                "site.xml", storage.children(person, "name")[0],
                "Renamed")])
            address = storage.children(person, "address")[0]
            registry.apply_updates([UpdateRequest.insert(
                "site.xml", address, "<city>Atlantis</city>", "into")])
            new_city = storage.children(address, "city")[-1]
            registry.apply_updates([{
                "delete-city": UpdateRequest.delete("site.xml", new_city),
                "delete-person": UpdateRequest.delete("site.xml", person),
                "modify-city": UpdateRequest.modify("site.xml", new_city,
                                                    "Lima"),
            }[finish]])
            assert registry.query("bycity") \
                == registry.recompute_xml("bycity"), finish

    def test_entanglement_classifier(self):
        storage, registry = standard_registry()
        assert not registry.view("seniors").entangled    # selection
        assert not registry.view("profiles").entangled   # projection
        assert registry.view("ygroup").entangled         # group-by
        assert registry.view("sales").entangled          # join


class TestCostBasedFallback:
    """One flush decision, from counters: a view recomputes once its
    pending trees × FULL-plan instructions reach the rows its last
    materialization read (:meth:`RegisteredView.over_work_bound`)."""

    @staticmethod
    def seniors(policy=DEFERRED, num_persons: int = 20):
        storage = multiview_storage(num_persons)
        registry = ViewRegistry(storage)
        view = registry.register("seniors", xmark.SELECTION_QUERY,
                                 policy=policy)
        return storage, registry, view

    def test_flush_falls_back_to_recompute_when_incremental_loses(self):
        storage, registry, view = self.seniors(policy="immediate")
        view.rows_read = 0            # any pending tree reaches the bound
        persons = persons_of(storage)
        registry.apply_updates([UpdateRequest.insert(
            "site.xml", persons[-1], xmark.new_person_xml(1, age=71),
            "after")])
        assert view.stats.recomputes == 1
        assert view.report.recomputed
        assert view.report.batches == 0  # nothing propagated incrementally
        assert view.rows_read > 0        # re-measured by the recompute
        assert_all_consistent(registry)

    def test_recompute_after_delete_barrier_sees_final_storage(self):
        storage, registry, view = self.seniors(policy="immediate")
        view.rows_read = 0
        persons = persons_of(storage)
        registry.apply_updates([
            UpdateRequest.delete("site.xml", persons[1]),
            UpdateRequest.delete("site.xml", persons[2]),
        ])
        assert view.stats.recomputes == 1
        assert (registry.to_xml("seniors")
                == registry.recompute_xml("seniors"))

    def test_switch_point_is_rows_read_over_instructions(self):
        """``⌈rows_read / instructions⌉ − 1`` pending trees propagate,
        and one more recomputes."""
        reasons = {}
        for extra in (0, 1):
            storage, registry, view = self.seniors(num_persons=40)
            switch = -(-view.rows_read // view.instructions)
            assert 1 < switch < 40
            names = _site_paths(storage, "site", "people", "person",
                                "name")
            for index in range(switch - 1 + extra):
                registry.apply_updates([UpdateRequest.modify(
                    "site.xml", names[index], f"Renamed {index}")])
            assert view.pending_trees() == switch - 1 + extra
            events = []
            registry.add_refresh_listener("seniors", events.append)
            assert registry.query("seniors") \
                == registry.recompute_xml("seniors")
            reasons[extra] = [event.reason for event in events]
            assert view.stats.recomputes == extra
            registry.close()
        assert reasons == {0: ["propagate"], 1: ["recompute"]}

    def test_rows_read_is_remeasured_after_a_recompute(self):
        storage, registry, view = self.seniors()
        before = view.rows_read
        switch = -(-before // view.instructions)
        persons = persons_of(storage)
        registry.apply_updates([
            UpdateRequest.insert("site.xml", persons[-1],
                                 xmark.new_person_xml(index, age=71),
                                 "after")
            for index in range(switch)])
        registry.flush("seniors")
        assert view.stats.recomputes == 1
        # the document grew, and so did the bound: the count is the one a
        # materialization reads now
        assert view.rows_read > before
        assert view.rows_read == view.pipeline.materialize()
        assert_all_consistent(registry)

    def test_unmeasured_view_stays_incremental(self):
        storage, registry, view = self.seniors()
        view.rows_read = None
        names = _site_paths(storage, "site", "people", "person", "name")
        for index, name in enumerate(names):
            registry.apply_updates([UpdateRequest.modify(
                "site.xml", name, f"Renamed {index}")])
        assert not view.over_work_bound()
        registry.flush("seniors")
        assert view.stats.recomputes == 0
        assert view.stats.propagated_trees == len(names)
        assert_all_consistent(registry)

    def test_restored_view_keeps_its_bound(self, tmp_path):
        db = Database(durable_path=str(tmp_path))
        db.load("site.xml", xmark.generate_site(20, seed=1))
        db.create_view("seniors", xmark.SELECTION_QUERY)
        bound = db.registry.view("seniors").rows_read
        assert bound > 0
        db.close()
        reopened = Database(durable_path=str(tmp_path))
        view = reopened.registry.view("seniors")
        assert view.pipeline.materialized and view.stats.recomputes == 0
        assert view.rows_read == bound
        reopened.close()

    def test_slow_flush_does_not_flip_the_view(self, monkeypatch):
        """The decision reads no clock: a propagation slowed by 200 ms
        leaves every later flush propagating."""
        storage, registry, view = self.seniors(policy="immediate")
        propagate_run = ViewPipeline.propagate_run
        slowed = []

        def slow(self, *args, **kwargs):
            if not slowed:
                slowed.append(True)
                time.sleep(0.2)
            return propagate_run(self, *args, **kwargs)

        monkeypatch.setattr(ViewPipeline, "propagate_run", slow)
        events = []
        registry.add_refresh_listener("seniors", events.append)
        names = _site_paths(storage, "site", "people", "person", "name")
        for index in range(4):
            registry.apply_updates([UpdateRequest.modify(
                "site.xml", names[index], f"Renamed {index}")])
        assert slowed and events[0].duration_seconds >= 0.2
        assert [event.reason for event in events] == ["propagate"] * 4
        assert view.stats.recomputes == 0
        assert_all_consistent(registry)


class TestDispatchRegisterFile:
    """One Δ per subplan per dispatch: views routed the same subset of a
    run share one spec and one ``(signature, mode)`` memo, and nothing
    else does (the invariants of ``ViewRegistry._dispatch``)."""

    @staticmethod
    def _cities(storage):
        return _site_paths(storage, "site", "people", "person", "address",
                           "city")

    @staticmethod
    def _delta_plan(registry, name):
        root = registry.view(name).pipeline.plan
        return registry.plan_cache.plans_for(root)[1]

    def test_twin_view_executes_no_delta_instruction(self):
        storage = multiview_storage()
        registry = ViewRegistry(storage)
        events = {"one": [], "two": []}
        for name in events:
            pin(registry.register(name, xmark.PERSONS_BY_CITY_QUERY))
            registry.add_refresh_listener(name, events[name].append,
                                          deliver_mutations=True)
        cities = self._cities(storage)
        registry.apply_updates(
            [UpdateRequest.modify("site.xml", cities[0], "Tampere"),
             UpdateRequest.modify("site.xml", cities[3], "Oslo")])
        one, two = (self._delta_plan(registry, n) for n in events)
        assert all(i.executed == 1 and i.reused == 0
                   for i in one.instructions)
        assert all(i.executed == 0 and i.reused == 1
                   for i in two.instructions)
        (first,), (second,) = events["one"], events["two"]
        assert first.mutations and first.mutations == second.mutations
        assert first.delta_tuples == second.delta_tuples
        assert_all_consistent(registry)
        registry.close()

    def test_deferred_flush_reuses_nothing_from_earlier_dispatches(self):
        storage = multiview_storage()
        registry = ViewRegistry(storage)
        pin(registry.register("now", xmark.SELECTION_QUERY))
        pin(registry.register("later", xmark.SELECTION_QUERY, policy=DEFERRED))
        names = _site_paths(storage, "site", "people", "person", "name")
        for index in range(3):     # count-neutral: the queue is not drained
            registry.apply_updates([UpdateRequest.modify(
                "site.xml", names[index], f"Renamed {index}")])
        assert registry.view("later").pending_trees() == 3
        assert registry._registers == {}
        before = registry.plan_cache.stats()
        registry.query("later")
        after = registry.plan_cache.stats()
        assert (after["instructions_executed"]
                - before["instructions_executed"]
                == 3 * len(self._delta_plan(registry, "later")))
        assert after["instructions_reused"] == before["instructions_reused"]
        assert_all_consistent(registry)
        registry.close()

    def test_views_come_go_and_recompute_inside_a_subset_group(self):
        storage = multiview_storage()
        registry = ViewRegistry(storage)
        for name, query in GROUPED_VIEWS.items():
            view = pin(registry.register(name, query))
            if name == "headcount":
                # the middle view of the group recomputes at every flush
                view.over_work_bound = lambda: True
        cities = self._cities(storage)

        def batch(index):
            registry.apply_updates(
                [UpdateRequest.modify("site.xml", cities[index], "Tampere"),
                 UpdateRequest.modify("site.xml", cities[index + 1],
                                      "Oslo")])
            assert_all_consistent(registry)

        batch(0)
        pin(registry.register("late", xmark.PERSONS_BY_CITY_QUERY))
        batch(2)
        late = self._delta_plan(registry, "late")
        assert all(i.executed == 0 and i.reused == 1
                   for i in late.instructions)
        registry.unregister("bycity")     # the pass that filled them
        batch(4)
        # now only ``cities`` (and its reconcile) runs ahead of it
        executed = sum(i.executed for i in late.instructions)
        assert 0 < executed < len(late)
        assert (executed + sum(i.reused for i in late.instructions)
                == 2 * len(late))
        headcount = registry.view("headcount").stats
        assert headcount.recomputes == headcount.flushes == 3
        assert registry.view("cities").stats.recomputes == 0
        registry.close()

    def test_failed_pass_leaves_no_register_behind(self):
        storage = multiview_storage()
        registry = ViewRegistry(storage)
        pin(registry.register("bycity", xmark.PERSONS_BY_CITY_QUERY))
        pin(registry.register("headcount", xmark.CITY_HEADCOUNT_QUERY))
        cities = self._cities(storage)
        root = registry.view("headcount").pipeline.plan

        def broken(ctx, inputs):
            raise RuntimeError("operator failed mid-pass")

        root.compute = broken
        with pytest.raises(RuntimeError, match="mid-pass"):
            registry.apply_updates([UpdateRequest.modify(
                "site.xml", cities[0], "Tampere")])
        assert registry._registers == {}
        del root.compute
        # the batch ``headcount`` still holds is retried under a spec
        # and a memo of its own, before the next modify lands
        registry.apply_updates([UpdateRequest.modify(
            "site.xml", cities[1], "Oslo")])
        assert registry.view("headcount").report.batches == 3
        assert_all_consistent(registry)
        registry.close()

    def test_different_routed_subsets_share_nothing(self):
        storage = multiview_storage()
        registry = ViewRegistry(storage)
        pin(registry.register("join", xmark.JOIN_QUERY))
        pin(registry.register("sel", xmark.SELECTION_QUERY))
        specs = []
        propagate = registry.engine.propagate

        def recording(plan, extent, spec, memo, **kwargs):
            specs.append((spec, dict(memo)))
            return propagate(plan, extent, spec, memo, **kwargs)

        registry.engine.propagate = recording
        registry.apply_updates([
            UpdateRequest.insert("site.xml", persons_of(storage)[-1],
                                 xmark.new_person_xml(1, age=71), "after"),
            UpdateRequest.insert("site.xml", auctions_of(storage)[-1],
                                 xmark.new_closed_auction_xml(
                                     1, "newperson1"), "after")])
        (join_spec, join_memo), (sel_spec, sel_memo) = specs
        assert len(join_spec.roots) == 2 and len(sel_spec.roots) == 1
        assert join_memo == {} and sel_memo == {}
        assert registry.plan_cache.stats()["instructions_reused"] == 0
        assert_all_consistent(registry)
        registry.close()

    def test_full_side_stays_in_the_dispatch_memo(self):
        """A Δ pass that builds a join side's entry evaluates the side
        FULL into the dispatch's memo, and nothing leaves that memo:
        every FULL table of the side is still there when the pass ends
        (only a run over a memo of its own drops tables)."""
        from repro.engine.opstate import subplan_signature
        from repro.xat import FULL, Join

        storage = multiview_storage()
        registry = ViewRegistry(storage)
        pin(registry.register("join", xmark.JOIN_QUERY))
        memos = []
        propagate = registry.engine.propagate

        def recording(plan, extent, spec, memo, **kwargs):
            result = propagate(plan, extent, spec, memo, **kwargs)
            memos.append(dict(memo))
            return result

        registry.engine.propagate = recording
        registry.apply_updates([UpdateRequest.insert(
            "site.xml", persons_of(storage)[-1],
            xmark.new_person_xml(1, age=71), "after")])
        (memo,) = memos
        (join,) = [op for op in registry.view("join").pipeline.plan
                   .iter_operators() if isinstance(op, Join)]
        side = list(join.inputs[1].iter_operators())
        assert len(side) > 2
        assert all((subplan_signature(op), FULL) in memo for op in side)
        assert_all_consistent(registry)
        registry.close()

    def test_correlated_evaluation_bypasses_the_memo(self):
        from repro.xat import ExecutionContext, Source

        storage = multiview_storage()
        source = Source("site.xml", "$d").prepare()
        ctx = ExecutionContext(storage)
        ctx.bindings.append(object())
        ctx.evaluate(source)
        assert ctx.memo == {}
        ctx.bindings.pop()
        table = ctx.evaluate(source)
        assert list(ctx.memo.values()) == [table]
        # ... and a structurally-equal operator resolves to the same slot
        assert ctx.evaluate(Source("site.xml", "$d").prepare()) is table


class TestSharedRouterUnit:
    def test_interned_paths_shared_between_identical_views(self):
        storage = multiview_storage()
        router = SharedValidationRouter()
        from repro.translate import translate_query
        plan_a = translate_query(xmark.SELECTION_QUERY)
        plan_b = translate_query(xmark.SELECTION_QUERY)
        router.subscribe("a", Sapt.from_plan(plan_a.prepare()))
        router.subscribe("b", Sapt.from_plan(plan_b.prepare()))
        person = persons_of(storage)[0]
        result = router.route(storage, "site.xml", person)
        assert result.views == {"a", "b"}
        assert router.stats.classifications == 1
        # identical path sets intern into the same entries
        entries = router._index["site.xml"]
        assert all(entry.any_views == {"a", "b"} for entry in entries)

    def test_unsubscribed_view_removed_from_index(self):
        storage = multiview_storage()
        router = SharedValidationRouter()
        from repro.translate import translate_query
        plan = translate_query(xmark.SELECTION_QUERY).prepare()
        router.subscribe("only", Sapt.from_plan(plan))
        router.unsubscribe("only")
        person = persons_of(storage)[0]
        assert router.route(storage, "site.xml", person).views == frozenset()


class TestPerGroupState:
    """Grouped views pay for the update, not for the group: supports are
    maintained counters, and an extent takes its own copy of an aggregate
    state before it first patches it in place."""

    @staticmethod
    def _city(position: int) -> str:
        return f"/site/people/person[{position}]/address/city"

    @staticmethod
    def _states(registry, name) -> dict:
        """The view's aggregate states, by their group's city."""
        def walk(node, city=None):
            if node.agg is not None:
                yield city, node.agg
            for child in node.children:
                yield from walk(child, node.attributes.get("name", city))
        return dict(walk(registry.view(name).pipeline.extent))

    def test_twin_aggregate_views_never_patch_a_shared_state(self):
        """Two identical views' passes share Δ registers, so both
        extents adopt a new group's node from the *same* delta item —
        and then patch it: each must take its own copy first."""
        storage = multiview_storage()
        registry = ViewRegistry(storage)
        for name in ("one", "two"):
            pin(registry.register(name, xmark.CITY_HEADCOUNT_QUERY))
        cities = _site_paths(storage, "site", "people", "person",
                             "address", "city")

        def check(members: int, patched: bool = True) -> None:
            assert_all_consistent(registry)
            assert f'<city-stat name="Tampere">{members}</city-stat>' \
                in registry.query("one")
            one, two = (self._states(registry, n) for n in ("one", "two"))
            assert one.keys() == two.keys() and "Tampere" in one
            for city in one:
                # a state both extents hold is one neither has patched
                assert one[city] is not two[city] or not one[city].owned
            assert (one["Tampere"].owned, two["Tampere"].owned) \
                == (patched, patched)

        registry.apply_updates(
            [UpdateRequest.modify("site.xml", cities[0], "Tampere")])
        two_plan = registry.plan_cache.plans_for(
            registry.view("two").pipeline.plan)[1]
        assert all(i.reused == 1 for i in two_plan.instructions)
        # adopted from the one delta item both passes read; not copied
        # until its first patch
        check(1, patched=False)
        assert self._states(registry, "one")["Tampere"] \
            is self._states(registry, "two")["Tampere"]
        for members, city in enumerate(cities[1:4], start=2):
            registry.apply_updates(
                [UpdateRequest.modify("site.xml", city, "Tampere")])
            check(members)
        registry.apply_updates(
            [UpdateRequest.modify("site.xml", cities[0], "Oslo")])
        check(3)
        assert all(registry.view(n).stats.recomputes == 0
                   for n in ("one", "two"))
        registry.close()

    @staticmethod
    def _grouped_registry(per_city: int):
        """``per_city`` persons in each of three cities, interleaved, so
        person ``k`` lives in the same city at every scale."""
        towns = ("Boston", "Cairo", "Lima")
        people = "".join(xmark.new_person_xml(index, city=towns[index % 3])
                         for index in range(3 * per_city))
        storage = StorageManager()
        storage.register(XmlDocument.from_string(
            "site.xml", f"<site><people>{people}</people></site>"))
        registry = ViewRegistry(storage)
        for name, query in GROUPED_VIEWS.items():
            pin(registry.register(name, query))
        return storage, registry

    def test_group_work_counters_do_not_grow_with_the_group(self):
        """No clock: the same modify batches cost the same number of
        support probes at 40 and at 400 persons per city, and no bucket
        row is ever walked."""
        readings = []
        for per_city in (40, 400):
            storage, registry = self._grouped_registry(per_city)
            cities = _site_paths(storage, "site", "people", "person",
                                 "address", "city")
            stats = registry.state_store.stats
            for batch in (
                    [(0, "Cairo"), (1, "Lima")],       # between groups
                    [(2, "Tampere")],                  # a group appears
                    [(5, "Tampere"), (3, "Boston")],
                    [(2, "Lima"), (5, "Lima")]):       # ... and empties
                registry.apply_updates(
                    [UpdateRequest.modify("site.xml", cities[index], city)
                     for index, city in batch])
            assert_all_consistent(registry)
            assert all(registry.view(name).stats.recomputes == 0
                       for name in GROUPED_VIEWS)
            assert stats.bucket_rows_scanned == 0
            assert stats.support_probes > 0
            per_signature = {
                signature: (entry["support_probes"],
                            entry["bucket_rows_scanned"])
                for signature, entry
                in registry.state_store.per_signature().items()}
            readings.append((stats.support_probes, per_signature))
            assert "probes=" in registry.explain("headcount")
            registry.close()
        assert readings[0] == readings[1]
