"""First-class modify pairs: the retract/assert treatment of
insufficient modifies and the multi-item equi-key semantics.

Pinned regressions for the two divergences recorded in ROADMAP.md before
this change:

* city-text modifies through ``distinct-values`` + ``order by``
  (``ORDER_QUERY_2`` / ``PERSONS_BY_CITY_QUERY``) lost or duplicated a
  group under the delete+reinsert decomposition — 25-person site, seed 1
  mixed streams diverged around step 12-18;
* multi-item join-key collections (a second ``<city>`` under an address,
  nested same-tag person inserts) left stale maintained pairs because
  ``_hash_key`` skipped multi-item cells.

Both must now converge with the recompute oracle for >= 50 mixed steps.
"""

from __future__ import annotations

import shutil

import pytest

from repro import (StorageManager, UpdateRequest, ViewRegistry,
                   XmlDocument)
from repro.api import Database
from repro.updates.batch import RunBatcher, spec_for_run
from repro.updates.primitives import UpdateTree
from repro.workloads import xmark
from repro.xat import (Combine, DeltaSpec, Distinct, Expose, LeftOuterJoin,
                       NavigateUnnest, Path, Pattern, Source, Tagger)
from repro.xat.base import DeltaRoot, obs_op_stats
from repro.xat.table import AtomicItem, NodeItem, XatTuple

from .helpers import (GROUPED_VIEWS, MaintainedView, assert_consistent,
                      audit_operator_state, persons_of, pin,
                      run_differential, site_view)

#: the ROADMAP repro stream: mixed person churn plus city-text modifies
CITY_MODIFY_MUTATORS = ("insert_person", "delete_person", "modify_city",
                        "modify_name")

#: the second repro: join-key collections growing/shrinking under churn
MULTI_KEY_MUTATORS = ("insert_person", "insert_city",
                      "insert_nested_person", "delete_person",
                      "delete_auction")


# These tests ran once per engine configuration until the store-less
# twin was deleted.  The one-value fixtures below (and the ``-True``
# suffix of test_city_modifies_converge's ids) select nothing: they only
# keep the surviving leg's recorded test ids (``[operator_state]``,
# ``[True]``), so the names the suite's history knows still resolve.

@pytest.fixture(params=["operator_state"])
def recorded_operator_state():
    return None


@pytest.fixture(params=[True])
def recorded_true():
    return None


class TestPinnedRoadmapRepros:
    """The exact divergences ROADMAP.md recorded, pinned at >= 50 steps."""

    @pytest.mark.parametrize("query", [xmark.ORDER_QUERY_2,
                                       xmark.PERSONS_BY_CITY_QUERY,
                                       xmark.CITY_HEADCOUNT_QUERY],
                             ids=["order-query-2-True",
                                  "persons-by-city-True",
                                  "city-headcount-True"])
    def test_city_modifies_converge(self, query):
        run_differential(1, 50, CITY_MODIFY_MUTATORS, query,
                         num_persons=25, site_seed=1)

    @pytest.mark.usefixtures("recorded_true")
    def test_multi_item_join_keys_converge(self):
        run_differential(3, 50, MULTI_KEY_MUTATORS,
                         xmark.PERSONS_BY_CITY_QUERY,
                         num_persons=15, site_seed=2)

    def test_aggregate_group_moves_converge(self):
        """A predicate-feeding modify that moves members between groups
        must keep per-group aggregate state exact — including members
        that moved into a group in an earlier round (the review-found
        AggState regression, pinned deterministically)."""
        from repro import XmlDocument

        doc = ("<sales>"
               "<sale><region>east</region><amount>10</amount></sale>"
               "<sale><region>east</region><amount>20</amount></sale>"
               "<sale><region>west</region><amount>30</amount></sale>"
               "</sales>")
        query = """<result>{
        for $r in distinct-values(doc("sales.xml")/sales/sale/region)
        order by $r
        return <region name="{$r}">{sum(
          for $s in doc("sales.xml")/sales/sale
          where $r = $s/region
          return $s/amount)}</region>
        }</result>"""
        storage = StorageManager()
        storage.register(XmlDocument.from_string("sales.xml", doc))
        view = MaintainedView(storage, query)
        regions = storage.find_by_path(
            "sales.xml", [("child", "sales"), ("child", "sale"),
                          ("child", "region")])
        amounts = storage.find_by_path(
            "sales.xml", [("child", "sales"), ("child", "sale"),
                          ("child", "amount")])
        moves = [(regions[0], "west"), (regions[1], "north"),
                 (regions[2], "east"), (amounts[0], "55"),
                 (regions[0], "east"), (regions[2], "west")]
        for target, value in moves:
            view.apply_updates(
                [UpdateRequest.modify("sales.xml", target, value)])
            assert_consistent(view)
        view.close()

    def test_selection_predicate_modifies_converge(self):
        """Age modifies feed the selection predicate: first-class pairs
        re-route rows through Select, not only through joins."""
        storage, view = site_view(xmark.SELECTION_QUERY, 12, seed=4)
        ages = storage.find_by_path(
            "site.xml", [("child", "site"), ("child", "people"),
                         ("child", "person"), ("child", "profile"),
                         ("child", "age")])
        for index, new_age in enumerate(["99", "12", "41", "40", "77"]):
            view.apply_updates([UpdateRequest.modify(
                "site.xml", ages[index % len(ages)], new_age)])
            assert_consistent(view)


class TestLegacyDecompositionRemoved:
    """The delete+reinsert escape hatch is gone after its one-release
    deprecation window; passing the old keyword must fail loudly (a
    silent ignore would change maintenance semantics under the caller),
    whatever value is passed."""

    @pytest.mark.parametrize("value", [True, False, None])
    def test_view_constructor_rejects_removed_flag(self, value):
        storage = StorageManager()
        xmark.register_site(storage, 3, seed=3)
        with ViewRegistry(storage) as registry:
            with pytest.raises(TypeError, match="modify_decomposition"):
                registry.register("v", xmark.ORDER_QUERY_2,
                                  modify_decomposition=value)

    def test_registry_rejects_removed_flag(self):
        storage = StorageManager()
        xmark.register_site(storage, 3, seed=3)
        with pytest.raises(TypeError, match="modify_decomposition"):
            ViewRegistry(storage, modify_decomposition=True)

    def test_database_rejects_removed_flag(self):
        from repro import Database
        with pytest.raises(TypeError, match="modify_decomposition"):
            Database(modify_decomposition=True)

    def test_pipeline_rejects_removed_flag(self):
        from repro.multiview.pipeline import ViewPipeline
        from repro.translate import translate_query
        storage = StorageManager()
        xmark.register_site(storage, 3, seed=3)
        with ViewRegistry(storage) as registry:
            with pytest.raises(TypeError, match="modify_decomposition"):
                ViewPipeline(registry.engine,
                             translate_query(xmark.ORDER_QUERY_2),
                             registry.state_store, registry.plan_cache,
                             modify_decomposition=False)


class TestPairPlumbing:
    """Unit coverage of the pair-carrying delta model."""

    def _city(self, storage):
        return storage.find_by_path(
            "site.xml", [("child", "site"), ("child", "people"),
                         ("child", "person"), ("child", "address"),
                         ("child", "city")])[0]

    def test_update_tree_pair(self):
        from repro.flexkeys import FlexKey
        tree = UpdateTree("site.xml", FlexKey("b.b"), "modify",
                          old_value="Boston", new_value="Oslo")
        assert tree.has_pair
        assert UpdateTree("site.xml", FlexKey("b.b"), "modify").has_pair \
            is False
        spec = spec_for_run([tree])
        assert spec.has_pairs
        root = spec.pair_root(FlexKey("b.b"))
        assert (root.old_value, root.new_value) == ("Boston", "Oslo")
        assert spec.pair_root(FlexKey("b.d")) is None
        [old] = root.old_items(FlexKey("b.b"))
        assert (old.value, old.source_key) == ("Boston", FlexKey("b.b"))
        # a modify that replaced several text children retracts each
        replaced = spec_for_run([UpdateTree(
            "site.xml", FlexKey("b.b"), "modify", old_value="Bos",
            new_value="Oslo", old_texts=((FlexKey("b.b.b"), "B"),
                                         (FlexKey("b.b.f"), "os")))])
        assert [(item.value, item.source_key.value) for item in
                replaced.pair_root(FlexKey("b.b")).old_items(
                    FlexKey("b.b"))] == [("B", "b.b.b"), ("os", "b.b.f")]

    def test_old_text_substitutes_pair_roots(self):
        storage = StorageManager()
        xmark.register_site(storage, 3, seed=1)
        city = self._city(storage)
        old = storage.text(city)
        address = storage.parent_key(city)
        person = storage.parent_key(address)
        old_person_text = storage.text(person)
        storage.replace_text(city, "Elsewhere")
        spec = DeltaSpec("site.xml",
                         (DeltaRoot(city, "modify", old, "Elsewhere"),),
                         "modify")
        assert spec.old_text(storage, city) == old
        # an ancestor's subtree text sees the substitution in place
        assert spec.old_text(storage, person) == old_person_text
        # a node with no pair root below reads as unchanged (None)
        name = storage.children(person, "name")[0]
        assert spec.old_text(storage, name) is None

    def test_node_item_text_override_wins_value_reads(self):
        from repro.xat.base import ExecutionContext
        from repro.xat.conditions import item_value
        storage = StorageManager()
        xmark.register_site(storage, 3, seed=1)
        city = self._city(storage)
        ctx = ExecutionContext(storage)
        assert item_value(NodeItem(city), ctx) == storage.text(city)
        assert item_value(NodeItem(city, text_override="Old"), ctx) == "Old"
        # under a spec the text is read once per pass (storage is fixed
        # while the spec is live) and the override still wins
        ctx.delta = DeltaSpec("site.xml", (DeltaRoot(city, "modify"),),
                              "modify")
        text = storage.text(city)
        assert item_value(NodeItem(city), ctx) == text
        storage.node(city).children[0].value = "Elsewhere"
        assert item_value(NodeItem(city), ctx) == text
        assert item_value(NodeItem(city), ExecutionContext(storage)) \
            == "Elsewhere"
        assert item_value(NodeItem(city, text_override="Old"), ctx) == "Old"
        # a retraction half carries its pass's spec instead, which
        # rebuilds the pre-update text on demand
        pair = DeltaSpec("site.xml", (DeltaRoot(city, "modify", "Old",
                                                "Elsewhere"),), "modify")
        assert item_value(NodeItem(city, text_override=pair), ctx) == "Old"

    def test_run_batcher_coalesces_same_root_modifies(self):
        from repro.flexkeys import FlexKey
        batcher = RunBatcher()
        root = FlexKey("b.b.d")
        batcher.push(UpdateTree("site.xml", root, "modify",
                                old_value="A", new_value="B"))
        closed, accepted = batcher.push(
            UpdateTree("site.xml", root, "modify",
                       old_value="B", new_value="C"))
        assert closed is None and accepted is False
        run = batcher.close()
        assert len(run) == 1
        assert (run[0].old_value, run[0].new_value) == ("A", "C")

    def test_run_batcher_keeps_nested_modify_roots(self):
        from repro.flexkeys import FlexKey
        batcher = RunBatcher()
        outer, inner = FlexKey("b.b"), FlexKey("b.b.d")
        batcher.push(UpdateTree("site.xml", outer, "modify",
                                old_value="x", new_value="y"))
        _closed, accepted = batcher.push(
            UpdateTree("site.xml", inner, "modify",
                       old_value="p", new_value="q"))
        assert accepted is True
        assert len(batcher.close()) == 2


class TestMultiItemHashKeys:
    """Existential equi-key semantics for collection-valued key cells."""

    def test_multi_item_cell_hashes_per_distinct_value(self):
        from repro.xat.relational import _hash_keys
        tup = XatTuple({"$k": [AtomicItem("a"), AtomicItem("b"),
                               AtomicItem("a")]})
        assert _hash_keys(tup, ["$k"], None) == [("a",), ("b",)]

    def test_empty_cell_hashes_nowhere(self):
        from repro.xat.relational import _hash_keys
        assert _hash_keys(XatTuple({"$k": []}), ["$k"], None) == []

    def test_second_city_joins_existentially(self):
        """Growing a join-key collection must both create the new pairing
        and keep the old one (the second ROADMAP item, deterministic)."""
        storage, view = site_view(xmark.PERSONS_BY_CITY_QUERY, 6, seed=5)
        person = persons_of(storage)[0]
        address = storage.children(person, "address")[0]
        first_city = storage.text(storage.children(address, "city")[0])
        other = next(c for c in xmark.CITIES if c != first_city)
        view.apply_updates([UpdateRequest.insert(
            "site.xml", address, f"<city>{other}</city>", "into")])
        assert_consistent(view)
        # ... and shrinking it retracts exactly the lost pairing
        second = storage.children(address, "city")[1]
        view.apply_updates([UpdateRequest.delete("site.xml", second)])
        assert_consistent(view)


# -- zero-crossing Distinct ----------------------------------------------------------------

def _grouped_db(cities) -> Database:
    """One person per entry of ``cities`` under the three grouped views,
    which share one ``Distinct`` signature (and one store entry for its
    input) and run three delta passes per batch.  The views are pinned
    to the incremental side: on a handful of persons one batch reaches
    the work bound, and a recomputed flush exercises no delta rule."""
    people = "".join(xmark.new_person_xml(index, city=city)
                     for index, city in enumerate(cities))
    db = Database()
    db.load("site.xml", f"<site><people>{people}</people></site>")
    for name, query in GROUPED_VIEWS.items():
        db.create_view(name, query)
        pin(db.registry.view(name))
    return db


def _city_of(position: int) -> str:
    return f"/site/people/person[{position}]/address/city"


def _delta_rows(db: Database, view: str, op_type) -> int:
    """Cumulative Δ-mode output rows of the view's ``op_type`` operator —
    EXPLAIN's ``Δ: … out=`` counter."""
    [op] = [op for op in db.registry.view(view).pipeline.plan.iter_operators()
            if isinstance(op, op_type)]
    return obs_op_stats(op)["delta_tuples_out"]


@pytest.mark.usefixtures("recorded_operator_state")
class TestDistinctZeroCrossing:
    """``Distinct`` emits a delta only when a value's support moves
    between zero and positive; whatever it emits, every grouped view
    stays equal to recomputation."""

    #: Boston x2, Cairo, Lima
    CITIES = ("Boston", "Boston", "Cairo", "Lima")

    def _check(self, db: Database, groups: int) -> None:
        for name in GROUPED_VIEWS:
            assert db.read(name) == db.registry.recompute_xml(name), name
            assert db.registry.view(name).stats.recomputes == 0
        assert db.read("cities").count("<city>") == groups
        assert db.read("bycity").count("<city-group") == groups
        assert db.read("headcount").count("<city-stat") == groups

    def _run(self, statements, groups: int) -> Database:
        db = _grouped_db(self.CITIES)
        self._check(db, 3)
        with db.batch():
            for kind, position, payload in statements:
                if kind == "modify":
                    db.update("site.xml").at(
                        _city_of(position)).replace_with(payload)
                elif kind == "insert":
                    db.update("site.xml").at(
                        f"/site/people/person[{position}]").insert(
                            xmark.new_person_xml(90 + position, city=payload),
                            position="after")
                else:
                    db.update("site.xml").at(
                        f"/site/people/person[{position}]").delete()
        self._check(db, groups)
        return db

    def test_last_member_leaves(self):
        self._run([("modify", 3, "Boston")], groups=2)

    def test_first_member_arrives(self):
        self._run([("modify", 1, "Oslo")], groups=4)

    def test_group_disappears_and_group_appears_in_one_batch(self):
        self._run([("modify", 3, "Boston"), ("modify", 1, "Oslo")],
                  groups=3)

    def test_one_leaves_one_joins_nets_to_no_delta(self):
        db = self._run([("modify", 3, "Lima"), ("modify", 4, "Cairo")],
                       groups=3)
        for name in GROUPED_VIEWS:
            assert _delta_rows(db, name, Distinct) == 0

    def test_last_member_deleted(self):
        self._run([("delete", 3, None)], groups=2)

    def test_first_member_inserted(self):
        self._run([("insert", 4, "Oslo")], groups=4)

    def test_delete_and_insert_phases_in_one_batch(self):
        self._run([("delete", 3, None), ("insert", 4, "Oslo")],
                  groups=3)

    def test_member_deleted_member_inserted_same_city(self):
        db = self._run([("delete", 1, None), ("insert", 4, "Boston")],
                       groups=3)
        for name in GROUPED_VIEWS:
            assert _delta_rows(db, name, Distinct) == 0


@pytest.mark.usefixtures("recorded_operator_state")
def test_distinct_over_nodes_counts_identity_not_text():
    """Node items hash into the side index by text but are distinct by
    identity: a third ``Same`` title is a new value, not a duplicate."""
    storage = StorageManager()
    storage.register(XmlDocument.from_string(
        "bib.xml", "<bib><book><title>Same</title></book>"
                   "<book><title>Same</title></book></bib>"))
    titles = NavigateUnnest(Source("bib.xml", "$S"), "$S",
                            Path.parse("bib/book/title"), "$t")
    plan = Expose(Combine(Tagger(Distinct(titles, "$t"),
                                 Pattern("w", (), ("$t",)), "$w"),
                          "$w"), "$w")
    view = MaintainedView(storage, plan)
    first = storage.children(storage.root_key("bib.xml"), "book")[0]
    for request, expected in (
            (UpdateRequest.insert("bib.xml", first,
                                  "<book><title>Same</title></book>",
                                  "after"), 3),
            (UpdateRequest.delete("bib.xml", first), 2)):
        view.apply_updates([request])
        assert_consistent(view)
        assert view.to_xml().count("<w>") == expected
    view.close()


def test_city_modify_costs_the_batch_not_the_group():
    """One city modify does the same work at 100 and at 400 persons —
    read off the EXPLAIN / ``view_delta_tuples`` counters, not a clock."""
    costs = []
    for persons in (100, 400):
        db = Database()
        db.load("site.xml", xmark.generate_site(persons, seed=3))
        db.create_view("bycity", xmark.PERSONS_BY_CITY_QUERY)
        pin(db.registry.view("bycity"))
        before = db.read("bycity")
        db.update("site.xml").at(_city_of(1)).replace_with("Boston")
        assert db.read("bycity") == db.registry.recompute_xml("bycity")
        assert db.read("bycity") != before, "person[1] already lived there"
        costs.append((_delta_rows(db, "bycity", LeftOuterJoin),
                      db.registry.view("bycity").report.fusion.mutations))
    assert costs[0] == costs[1]
    join_rows, mutations = costs[0]
    assert 0 < join_rows <= 4 and 0 < mutations <= 20


# -- unchanged modifies ------------------------------------------------------------------

#: reads the city as content: a modify of it is sufficient (no pair)
CITY_CONTENT_QUERY = ('<r>{for $p in doc("site.xml")/site/people/person '
                      'return <c>{$p/address/city}</c>}</r>')

CITY_PATH = [("child", tag) for tag in ("site", "people", "person",
                                        "address", "city")]


@pytest.mark.xfail(strict=True, reason=(
    "known divergence: a text fragment inserted into an element is not "
    "routed like a modify of the element's text, so views grouping on "
    "that text keep the old value"))
def test_text_fragment_insert_into_a_grouping_key():
    """Inserting the text ``Extra`` into a person's ``<city>`` gives it
    two text children; recomputation then has a ``city-group`` named
    ``Extra`` and a headcount ``Extra`` row, the maintained extents do
    not."""
    with Database() as db:
        db.load("site.xml", xmark.generate_site(20, seed=3))
        for name, query in GROUPED_VIEWS.items():
            db.create_view(name, query)
        db.update("site.xml").at("/site/people/person[2]/address/city") \
            .insert("Extra", position="into")
        for name in GROUPED_VIEWS:
            assert db.read(name) == db.view(name).recompute()


#: a join over the age/reserve text, flat and under ``count``
AGE_RESERVE_QUERIES = {
    "flat": '<result>{for $p in doc("site.xml")/site/people/person, '
            '$o in doc("site.xml")/site/open_auctions/open_auction '
            'where $o/reserve = $p/profile/age '
            'return <m>{$p/name}{$o/reserve}</m>}</result>',
    "count": '<result>{for $p in doc("site.xml")/site/people/person '
             'return <p>{count(for $o in doc("site.xml")/site/'
             'open_auctions/open_auction where $o/reserve = $p/profile/age '
             'return $o)}</p>}</result>'}


@pytest.mark.xfail(strict=True, reason=(
    "known divergence: one modify batch changing the join text on both "
    "sides keeps a row joining the old half of one pair with the new "
    "half of the other (XatTuple.merged keeps a single era)"))
@pytest.mark.parametrize("shape", sorted(AGE_RESERVE_QUERIES))
def test_one_batch_modifies_both_sides_of_a_join(shape):
    """Person 0's age goes 5 → 7 and open auction 0's reserve 7 → 5 in
    one batch: before and after, the two never match.  The maintained
    extent keeps ``<m>…Person Name 0…<reserve>5</reserve></m>`` (the
    count form ``<p>1</p>``); recomputation has no match."""
    storage = StorageManager()
    xmark.register_site(storage, 4, seed=1)
    registry = ViewRegistry(storage)
    pin(registry.register("v", AGE_RESERVE_QUERIES[shape]))
    [age, *_] = storage.find_by_path("site.xml", [
        ("child", "site"), ("child", "people"), ("child", "person"),
        ("child", "profile"), ("child", "age")])
    [reserve, *_] = storage.find_by_path("site.xml", [
        ("child", "site"), ("child", "open_auctions"),
        ("child", "open_auction"), ("child", "reserve")])
    for batch in ([(age, "5")], [(reserve, "7")],
                  [(age, "7"), (reserve, "5")]):
        registry.apply_updates([UpdateRequest.modify("site.xml", key, text)
                                for key, text in batch])
        assert registry.to_xml("v") == registry.recompute_xml("v")
    assert registry.view("v").stats.recomputes == 0


class TestUnchangedModify:
    """A modify that writes the text its target already holds is routed
    (router statistics count it) and WAL-logged, and then stops: no
    storage write, no queued tree, no flush, no refresh."""

    #: person 3's city is Cairo, person 4's Lima
    CITIES = ("Boston", "Boston", "Cairo", "Lima")

    def _db(self, *edits, durable_path=None) -> Database:
        """The grouped views plus a content view over four persons;
        ``edits`` are ``(old, new)`` replacements of the people XML."""
        people = "".join(xmark.new_person_xml(index, city=city)
                         for index, city in enumerate(self.CITIES))
        for old, new in edits:
            people = people.replace(old, new, 1)
        db = Database(durable_path=durable_path)
        db.load("site.xml", f"<site><people>{people}</people></site>")
        for name, query in {**GROUPED_VIEWS,
                            "content": CITY_CONTENT_QUERY}.items():
            db.create_view(name, query)
            pin(db.registry.view(name))
        return db

    @staticmethod
    def _city(db: Database, position: int):
        return db.registry.storage.find_by_path("site.xml",
                                                CITY_PATH)[position - 1]

    @staticmethod
    def _state(db: Database) -> tuple:
        registry = db.registry
        return ({name: db.read(name) for name in db.views()},
                {name: (registry.view(name).stats.flushes,
                        registry.view(name).stats.routed_trees,
                        registry.view(name).refresh_sequence)
                 for name in db.views()},
                registry.state_store.stats.as_dict(),
                audit_operator_state(registry))

    @staticmethod
    def _check(db: Database) -> None:
        for name in db.views():
            assert db.read(name) == db.registry.recompute_xml(name), name
            assert db.registry.view(name).stats.recomputes == 0

    def test_holds_text_is_exact(self):
        db = self._db(("<city>Cairo</city>", "<city>Cairo<i/></city>"),
                      ("<city>Lima</city>", "<city/>"))
        storage = db.registry.storage
        boston = self._city(db, 1)
        [text] = storage.node(boston).children
        assert storage.holds_text(boston, "Boston")
        assert storage.holds_text(text.key, "Boston")
        assert not storage.holds_text(boston, "Bost")
        assert not storage.holds_text(self._city(db, 3), "Cairo")  # mixed
        assert not storage.holds_text(self._city(db, 4), "")       # empty

    def test_same_value_modify_changes_nothing(self):
        db = self._db()
        registry = db.registry
        events, storage_events = [], []
        for name in db.views():
            db.subscribe(name, events.append)
        registry.storage.add_mutation_listener(
            lambda op, key, tags: storage_events.append(op))
        before = self._state(db)
        report = registry.apply_updates([UpdateRequest.modify(
            "site.xml", self._city(db, 3), "Cairo")])
        assert (report.unchanged, report.routed, report.storage_ops) \
            == (1, 1, 0)
        assert storage_events == [] and events == []
        assert self._state(db) == before
        assert db.metrics()["registry_modifies_unchanged_total"][
            "values"][""] == 1
        # the next real change is the views' next refresh
        db.update("site.xml").at(_city_of(3)).replace_with("Lima")
        assert storage_events == ["modify"]
        assert {event.sequence for event in events} == {1}
        self._check(db)

    def test_unchanged_modify_is_logged_and_replayed(self, tmp_path):
        db = self._db(durable_path=str(tmp_path / "live"))

        def logged() -> int:
            return db.metrics()["wal_records_total"]["values"][""]

        records = logged()
        db.update("site.xml").at(_city_of(3)).replace_with("Cairo")
        assert logged() == records + 1
        db.update("site.xml").at(_city_of(4)).replace_with("Boston")
        expected = {name: db.read(name) for name in db.views()}
        shutil.copytree(tmp_path / "live", tmp_path / "crash")
        db.close()
        reopened = Database(durable_path=str(tmp_path / "crash"))
        assert reopened.recovery.wal_records_replayed >= 2
        assert {name: reopened.read(name)
                for name in reopened.views()} == expected
        reopened.update("site.xml").at(_city_of(2)).replace_with("Lima")
        reopened.update("site.xml").at(_city_of(1)).replace_with("Boston")
        self._check(reopened)
        reopened.close()

    @pytest.mark.parametrize("edit, position, value", [
        (("<city>Cairo</city>", "<city>Cairo<i/></city>"), 3, "Cairo"),
        (("<city>Cairo</city>", "<city>Cai<![CDATA[ro]]></city>"), 3,
         "Cairo"),
        (("<city>Lima</city>", "<city/>"), 4, ""),
        (("<city>Cairo</city>", "<city>Cai<i/>ro</city>"), 3, "Cairo"),
        (("<city>Cairo</city>", "<city>Cai<![CDATA[ro]]></city>"), 3,
         "Lima"),
        (("<city>Lima</city>", "<city/>"), 4, "Boston"),
    ], ids=["mixed", "two_texts", "empty", "split", "two_texts_moved",
            "empty_moved"])
    def test_restructured_content_is_not_unchanged(self, edit, position,
                                                   value):
        """The modify replaces every text child with one new one; the
        pair retracts each replaced child's text (``text()`` reads them
        one by one) and asserts the new one."""
        db = self._db(edit)
        storage_events = []
        db.registry.storage.add_mutation_listener(
            lambda op, key, tags: storage_events.append(op))
        report = db.registry.apply_updates([UpdateRequest.modify(
            "site.xml", self._city(db, position), value)])
        assert report.unchanged == 0 and storage_events == ["modify"]
        [text] = [child for child in db.registry.storage.node(
            self._city(db, position)).children if child.is_text]
        assert text.value == value
        self._check(db)

    def test_second_write_of_a_batch_is_unchanged(self):
        db = self._db()
        city = self._city(db, 3)
        report = db.registry.apply_updates([
            UpdateRequest.modify("site.xml", city, "Oslo"),
            UpdateRequest.modify("site.xml", city, "Oslo")])
        assert report.unchanged == 1
        self._check(db)
        assert db.read("cities") == ("<result><city>Boston</city>"
                                     "<city>Lima</city><city>Oslo</city>"
                                     "</result>")

    def test_write_and_write_back_in_one_batch(self):
        db = self._db()
        before = {name: db.read(name) for name in db.views()}
        city = self._city(db, 3)
        report = db.registry.apply_updates([
            UpdateRequest.modify("site.xml", city, "Oslo"),
            UpdateRequest.modify("site.xml", city, "Cairo")])
        assert report.unchanged == 0
        self._check(db)
        assert {name: db.read(name) for name in db.views()} == before
