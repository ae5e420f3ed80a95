"""Persistent operator-state correctness (the cross-run cache layer).

The store must be *observationally invisible*: a view maintained with
persistent per-operator state produces byte-identical extents to full
recomputation (the paper's correctness oracle), and every cached table
it claims current equals a fresh evaluation of its subplan
(:func:`tests.helpers.audit_operator_state`) — under randomized mixed
insert/delete/modify streams, after forced invalidation, after an
out-of-band storage write, and across the shared registry.
"""

from __future__ import annotations

import random

import pytest

from repro import Database, StorageManager, UpdateRequest, ViewRegistry
from repro.durability import CheckpointStore, RealFileSystem
from repro.durability.snapshot import capture_state
from repro.engine.opstate import (CachedEntry, OperatorStateStore,
                                  StoredSideHandle, _IndexDesync,
                                  subplan_signature)
from repro.translate import translate_query
from repro.workloads import xmark
from repro.workloads.bib import NEW_BOOK_FRAGMENT, register_running_example
from repro.xat import (AtomicItem, CartesianProduct, Combine, Expose, GroupBy,
                       Map, NavigateUnnest, Path, Pattern, Source, Tagger,
                       VariableBinding, XatTable, XatTuple)
from repro.xat.base import (DELETE, DELTA, FULL, INSERT, MODIFY, DeltaRoot,
                            DeltaSpec, ExecutionContext, obs_op_stats,
                            tuple_fingerprint)
from repro.xat.grouping import compute_aggregate, merge_member_items
from repro.xat.relational import (DiffSideHandle, LeftOuterJoin,
                                  TransientSideHandle, _hash_keys,
                                  _probe_union)
from repro.xmlmodel import parse_fragment

from .helpers import (ALL_MUTATORS, FUZZ_VIEWS, GROUPED_VIEWS,
                      RESERVE_BELOW_AGE_QUERY, assert_consistent,
                      audit_operator_state, closed_auctions_of, persons_of,
                      pin, random_batch, run_differential, site_view)

PERSON_PATH = [("child", "site"), ("child", "people"), ("child", "person")]
CITY_PATH = PERSON_PATH + [("child", "address"), ("child", "city")]


#: the historical mixed-stream update space of this module, now expressed
#: through the shared differential-harness mutators
ORACLE_MUTATORS = ("insert_person", "insert_auction", "delete_person",
                   "delete_auction", "modify_name")


def random_update(rng: random.Random, storage: StorageManager,
                  step: int) -> UpdateRequest:
    """One randomized insert / delete / modify against site.xml (a
    single-update batch drawn from the shared mutator pool)."""
    while True:
        batch = random_batch(rng, storage, step, ORACLE_MUTATORS,
                             max_size=1)
        if batch:
            return batch[0]


MAINTAINED_QUERIES = [("join", xmark.JOIN_QUERY),
                      ("group-by-city", xmark.PERSONS_BY_CITY_QUERY)]


class TestRandomizedOracle:
    """Maintained extent == recompute_xml() under mixed random streams
    (driven through the shared :func:`tests.helpers.run_differential`
    harness)."""

    @pytest.mark.parametrize("name,query", MAINTAINED_QUERIES)
    def test_single_updates(self, name, query):
        run_differential(101, 30, ORACLE_MUTATORS, query,
                         num_persons=30, site_seed=42, batch_max=1)

    @pytest.mark.parametrize("name,query", MAINTAINED_QUERIES)
    def test_batched_updates(self, name, query):
        run_differential(202, 10, ORACLE_MUTATORS, query,
                         num_persons=30, site_seed=42, batch_max=4)

    @pytest.mark.parametrize("name,query", MAINTAINED_QUERIES)
    def test_forced_invalidation(self, name, query):
        """Dropping every cached table mid-stream must be harmless: the
        store rebuilds lazily and the extent never diverges."""
        rng = random.Random(303)
        storage, view = site_view(query)
        for step in range(20):
            if step % 5 == 3:
                view.registry.state_store.invalidate_all()
            view.apply_updates([random_update(rng, storage, step)])
            assert_consistent(view)
        assert view.registry.state_store.stats.invalidations >= 3

    @pytest.mark.parametrize("name,query", MAINTAINED_QUERIES)
    def test_matches_stateless_maintenance(self, name, query):
        """What the store serves is what stateless evaluation would
        derive: the harness audits every cached table against a fresh
        FULL evaluation after each step."""
        run_differential(404, 15, ORACLE_MUTATORS, query,
                         num_persons=30, site_seed=42, batch_max=1)


#: the grouped views of the differential fuzz
GROUPED_FUZZ_VIEWS = ("persons-by-city", "persons-by-city-attributes",
                      "city-headcount", "city-max-age", "city-income-sum",
                      "order-query-2")


class TestWarmDeltaPath:
    """Once its state is warm, a grouped view takes a person insert and a
    person delete in O(Δ), by counters alone (no timer): no operator of
    its plan is evaluated FULL, the store rebuilds nothing, and the rows
    the pass touches — Δ rows out of every operator plus the bucket rows
    support questions walked — do not grow with the document."""

    @staticmethod
    def touched(registry, name) -> tuple:
        """(FULL runs, store misses, rows touched) so far."""
        stats = [obs_op_stats(op) for op in
                 registry.view(name).pipeline.plan.iter_operators()]
        store = registry.state_store.stats
        return (sum(s["runs"] for s in stats), store.misses,
                sum(s["delta_tuples_out"] for s in stats)
                + store.bucket_rows_scanned)

    def insert_then_delete(self, registry, serial: int) -> None:
        storage = registry.storage
        registry.apply_updates([UpdateRequest.insert(
            "site.xml", persons_of(storage)[-1],
            xmark.new_person_xml(serial, city="Boston"), "after")])
        registry.apply_updates([UpdateRequest.delete(
            "site.xml", persons_of(storage)[-1])])

    def rows_touched(self, query: str, persons: int) -> int:
        storage = StorageManager()
        xmark.register_site(storage, persons, seed=1)
        registry = ViewRegistry(storage)
        pin(registry.register("v", query))
        self.insert_then_delete(registry, 0)          # warm-up
        runs, misses, rows = self.touched(registry, "v")
        self.insert_then_delete(registry, 1)
        after = self.touched(registry, "v")
        assert after[:2] == (runs, misses), (
            "a warm insert or delete evaluated a side FULL "
            f"(runs, misses {runs, misses} -> {after[:2]})")
        assert registry.to_xml("v") == registry.recompute_xml("v")
        assert registry.view("v").stats.recomputes == 0
        registry.close()
        return after[2] - rows

    @pytest.mark.parametrize("name", GROUPED_FUZZ_VIEWS)
    def test_insert_and_delete_touch_rows_flat_in_document_size(
            self, name):
        small = self.rows_touched(FUZZ_VIEWS[name], 60)
        large = self.rows_touched(FUZZ_VIEWS[name], 480)
        assert 0 < large <= 2 * small, (small, large)


class TestStoreActivity:

    def test_join_sides_served_and_patched(self):
        """Alternating person/auction inserts keep both side entries warm:
        the untouched side serves from cache, the touched side patches."""
        storage, view = site_view(xmark.JOIN_QUERY)
        for step in range(6):
            anchor = (persons_of(storage)[-1] if step % 2 == 0
                      else closed_auctions_of(storage)[-1])
            fragment = (xmark.new_person_xml(step) if step % 2 == 0
                        else xmark.new_closed_auction_xml(step, "person1"))
            view.apply_updates(
                [UpdateRequest.insert("site.xml", anchor, fragment,
                                      "after")])
            assert_consistent(view)
        stats = view.registry.state_store.stats
        assert stats.hits > 0
        assert stats.patches > 0
        assert view.registered.report.state_hits > 0  # surfaced per view

    def test_flat_maintenance_cost_counters(self):
        """Steady state serves without recomputation: after warm-up, a
        batch costs hits/patches, never misses."""
        storage, view = site_view(xmark.JOIN_QUERY)
        anchor = persons_of(storage)[-1]
        view.apply_updates([UpdateRequest.insert(
            "site.xml", anchor, xmark.new_person_xml(0), "after")])
        misses_before = view.registry.state_store.stats.misses
        for step in range(1, 5):
            view.apply_updates([UpdateRequest.insert(
                "site.xml", anchor, xmark.new_person_xml(step), "after")])
        assert view.registry.state_store.stats.misses == misses_before
        assert_consistent(view)

    def test_direct_storage_mutation_invalidates(self):
        """A mutation outside maintenance (no delta run to patch from)
        must not leave a stale serve behind.

        Bypassing the V-P-A pipeline never updates the extent, so the
        recompute oracle does not apply across the out-of-band write —
        but the *next* maintenance pass must read current storage: every
        table the store still claims current is audited against a fresh
        evaluation after each step.
        """
        from repro.xmlmodel import parse_fragment

        storage, view = site_view(xmark.JOIN_QUERY)
        anchor = persons_of(storage)[-1]
        view.apply_updates([UpdateRequest.insert(
            "site.xml", anchor, xmark.new_person_xml(0), "after")])
        assert audit_operator_state(view.registry) > 0
        auctions_parent = storage.parent_key(
            closed_auctions_of(storage)[-1])
        storage.insert_fragment(
            auctions_parent,
            parse_fragment(
                xmark.new_closed_auction_xml(99, "person2"))[0])
        audit_operator_state(view.registry)
        view.apply_updates([UpdateRequest.insert(
            "site.xml", anchor, xmark.new_person_xml(1), "after")])
        # The next pass re-derived the auction side from current storage
        # (the out-of-band auction included) instead of serving it stale.
        assert audit_operator_state(view.registry) > 0
        assert view.registry.state_store.stats.invalidations >= 1

    def test_index_that_lost_a_tuple_invalidates_instead_of_drifting(self):
        """A side index that does not hold a tuple its table does is a
        broken invariant: the patch that trips over it must drop the
        entry (counted, recomputed on next use), not leave a support
        counter out of step with its bucket."""
        storage, view = site_view(xmark.CITY_HEADCOUNT_QUERY)
        cities = [storage.children(storage.children(p, "address")[0],
                                   "city")[0] for p in persons_of(storage)]
        view.apply_updates(
            [UpdateRequest.modify("site.xml", cities[0], "Tampere")])
        store = view.registry.state_store
        [entry] = [e for e in store.entries() if e.valid and e.indexes
                   and type(e.op).__name__ == "NavigateCollection"]
        [(cols, index)] = entry.indexes.items()
        victim = next(tup for tup in entry.table.tuples
                      if tup.cells["$p_3"].key == persons_of(storage)[1])
        for bucket in index.values():   # lose it behind the entry's back
            if victim in bucket:
                bucket.remove(victim)
        with pytest.raises(AssertionError, match="support counters"):
            audit_operator_state(view.registry)
        before = (store.stats.invalidations, entry.stats.invalidations,
                  entry.stats.misses)
        view.apply_updates(
            [UpdateRequest.modify("site.xml", cities[1], "Tampere")])
        assert (store.stats.invalidations, entry.stats.invalidations) \
            == (before[0] + 1, before[1] + 1)
        # ... and the serve path of that same pass recomputed it
        assert entry.valid and entry.stats.misses == before[2] + 1
        assert audit_operator_state(view.registry) > 0
        assert_consistent(view)
        view.apply_updates(
            [UpdateRequest.modify("site.xml", cities[2], "Tampere")])
        assert store.stats.invalidations == before[0] + 1
        assert_consistent(view)

    def test_tuple_without_recorded_keys_invalidates(self):
        """A patch removes a tuple from its buckets under the keys
        recorded when it was indexed, never under keys recomputed from
        storage: a tuple with no record is an index desync, so the entry
        invalidates and the same pass recomputes it."""
        storage, view = site_view(xmark.CITY_HEADCOUNT_QUERY)
        cities = [storage.children(storage.children(p, "address")[0],
                                   "city")[0] for p in persons_of(storage)]
        view.apply_updates(
            [UpdateRequest.modify("site.xml", cities[0], "Tampere")])
        store = view.registry.state_store
        [entry] = [e for e in store.entries() if e.valid and e.indexes
                   and type(e.op).__name__ == "NavigateCollection"]
        victim = next(tup for tup in entry.table.tuples
                      if tup.cells["$p_3"].key == persons_of(storage)[1])
        del entry._indexed_keys[id(victim)]
        before = (store.stats.invalidations, entry.stats.misses)
        view.apply_updates(
            [UpdateRequest.modify("site.xml", cities[1], "Tampere")])
        assert (store.stats.invalidations, entry.stats.misses) \
            == (before[0] + 1, before[1] + 1)
        assert entry.valid and audit_operator_state(view.registry) > 0
        assert_consistent(view)


class TestBatchEpochs:
    """One dispatch, one epoch: a batch's storage events and every spec
    built for it carry the same number, so the store patches from the
    batch's own Δ however views split its roots and however many events
    it stacks."""

    @staticmethod
    def registry(num_persons: int, views: dict) -> ViewRegistry:
        storage = StorageManager()
        xmark.register_site(storage, num_persons, seed=1)
        registry = ViewRegistry(storage)
        for name, query in views.items():
            pin(registry.register(name, query))
        return registry

    def test_two_root_batches_split_across_views_stay_warm(self):
        """``join`` is routed both roots of a person + auction batch,
        ``sel`` and ``profiles`` the person only: a delete patch staged
        under one view's subset serves the others' passes of the same
        dispatch, and nothing is re-derived from the document."""
        registry = self.registry(1000, {"join": xmark.JOIN_QUERY,
                                        "sel": xmark.SELECTION_QUERY,
                                        "profiles": xmark.ORDER_QUERY_1})
        storage, stats = registry.storage, registry.state_store.stats
        for cycle in range(20):
            if cycle == 1:
                warm = (stats.invalidations, stats.misses)
            registry.apply_updates([
                UpdateRequest.insert("site.xml", persons_of(storage)[-1],
                                     xmark.new_person_xml(cycle), "after"),
                UpdateRequest.insert(
                    "site.xml", closed_auctions_of(storage)[-1],
                    xmark.new_closed_auction_xml(
                        cycle, f"newperson{cycle}"), "after")])
            registry.apply_updates([
                UpdateRequest.delete("site.xml", persons_of(storage)[-1]),
                UpdateRequest.delete("site.xml",
                                     closed_auctions_of(storage)[-1])])
        assert (stats.invalidations, stats.misses) == warm
        for name in registry.names():
            assert registry.query(name) == registry.recompute_xml(name)
        audit_operator_state(registry)
        registry.close()

    def grouped_run(self, targets_of) -> None:
        """Warm the three grouped views with one city modify, then apply
        one batch modifying ``targets_of(cities)``: no entry may be
        invalidated or re-derived, and every table stays exact."""
        def modifies(targets):
            return [UpdateRequest.modify("site.xml", city,
                                         xmark.CITIES[step % 5])
                    for step, city in enumerate(targets)]

        registry = self.registry(200, GROUPED_VIEWS)
        stats = registry.state_store.stats
        cities = registry.storage.find_by_path("site.xml", CITY_PATH)
        registry.apply_updates(modifies(cities[-1:]))
        warm = (stats.invalidations, stats.misses)
        registry.apply_updates(modifies(targets_of(cities)))
        assert (stats.invalidations, stats.misses) == warm
        assert audit_operator_state(registry) > 0
        for name in registry.names():
            assert registry.to_xml(name) == registry.recompute_xml(name)
            assert registry.view(name).stats.recomputes == 0
        registry.close()

    def test_one_batch_modifying_a_city_twice_patches(self):
        self.grouped_run(lambda cities: [cities[0], cities[0]])

    def test_a_long_modify_run_patches(self):
        self.grouped_run(lambda cities: cities[:80])


class TestSharedRowSets:
    """One stored table per row set: ``bycity``'s ``<entry>`` Tagger side
    reads through the ``NavigateCollection`` entry beneath it — the one
    ``headcount`` probes for ``$p/name`` — instead of storing a second
    table of the same persons."""

    def test_tagger_side_reads_through_its_input(self, monkeypatch):
        registry = TestBatchEpochs.registry(40, GROUPED_VIEWS)
        storage, store = registry.storage, registry.state_store
        cities = storage.find_by_path("site.xml", CITY_PATH)
        registry.apply_updates(
            [UpdateRequest.modify("site.xml", cities[0], "Tampere")])
        gauge = registry.metrics_snapshot()["opstate_cached_signatures"]
        assert gauge["values"][""] == 3
        assert not any(isinstance(entry.op, Tagger)
                       for entry in store.entries())

        # Every stale entry is served — so patched — by the first pass:
        # the end-of-pass reconcile has nothing left to stage.
        stages, in_reconcile = [], []
        reconcile, stage = OperatorStateStore.reconcile, CachedEntry.stage

        def tracked_reconcile(self, spec, memo):
            in_reconcile.append(True)
            try:
                return reconcile(self, spec, memo)
            finally:
                in_reconcile.pop()

        def tracked_stage(self, delta, spec, ctx):
            stages.append(bool(in_reconcile))
            return stage(self, delta, spec, ctx)

        monkeypatch.setattr(OperatorStateStore, "reconcile",
                            tracked_reconcile)
        monkeypatch.setattr(CachedEntry, "stage", tracked_stage)
        registry.apply_updates([
            UpdateRequest.modify("site.xml", city, xmark.CITIES[step])
            for step, city in enumerate(cities[1:4])])
        assert stages and not any(stages)
        monkeypatch.undo()

        anchor = persons_of(storage)[-1]
        for batch in (
                [UpdateRequest.insert("site.xml", anchor,
                                      xmark.new_person_xml(0), "after")],
                [UpdateRequest.modify("site.xml", cities[5], "Tampere")],
                [UpdateRequest.delete("site.xml", persons_of(storage)[2])]):
            registry.apply_updates(batch)
            assert audit_operator_state(registry) == 3
            for name in registry.names():
                assert registry.to_xml(name) == \
                    registry.recompute_xml(name)
                assert registry.view(name).stats.recomputes == 0
        registry.close()

    def test_a_checkpointed_tagger_table_is_not_adopted(self, tmp_path):
        """A checkpoint written while Tagger sides kept a table of their
        own, and while checkpoints carried operator state, still holds
        that table: reopening adopts no table at all, and the first
        batch builds the trio's three entries and no Tagger entry."""
        def gauge(db):
            return db.registry.metrics_snapshot()[
                "opstate_cached_signatures"]["values"][""]

        db = Database(durable_path=tmp_path, fsync="always")
        db.load("site.xml", xmark.generate_site(40, seed=1))
        for name, query in GROUPED_VIEWS.items():
            db.create_view(name, query)
            pin(db.registry.view(name))
        cities = db.storage.find_by_path("site.xml", CITY_PATH)
        db.registry.apply_updates(
            [UpdateRequest.modify("site.xml", cities[0], "Tampere")])
        assert gauge(db) == 3
        # the persons-side Tagger table the store used to keep
        store = db.registry.state_store
        stack = [db.registry.view("bycity").pipeline.plan]
        while stack:
            op = stack.pop()
            stack.extend(op.inputs)
            if isinstance(op, Tagger) and \
                    type(op.inputs[0]).__name__ == "NavigateCollection":
                tagger = op
        ctx = ExecutionContext(db.storage)
        entry = CachedEntry(subplan_signature(tagger), tagger)
        entry.populate(ctx.evaluate(tagger, FULL), ctx)
        store._entries[entry.signature] = entry
        store._by_doc["site.xml"].append(entry)
        assert gauge(db) == 4
        db.flush()
        state = capture_state(db.registry)      # that layout, by hand
        state["format"] = 3
        state["opstate"] = {entry.signature: entry.table
                            for entry in store.entries()}
        lsn = db.durability.wal.last_lsn
        CheckpointStore(RealFileSystem(), str(tmp_path)).write(lsn, state)
        del db                                  # crash: that file is newest

        db = Database(durable_path=tmp_path, fsync="always")
        assert db.recovery.checkpoint_lsn == lsn
        assert db.registry.state_store.entry_count() == 0
        for name in db.views():
            pin(db.registry.view(name))
        cities = db.storage.find_by_path("site.xml", CITY_PATH)
        db.registry.apply_updates(
            [UpdateRequest.modify("site.xml", cities[1], "Lahti")])
        assert gauge(db) == 3
        assert not any(isinstance(entry.op, Tagger)
                       for entry in db.registry.state_store.entries())
        for name in db.views():
            assert db.read(name) == db.registry.recompute_xml(name)
        db.close()


class TestOneSidePath:
    """Every Δ rule gets the other side through
    :meth:`OperatorStateStore.side`: it names the state it reads (new or
    old), and the store serves it from the stored entry — a theta side
    and an outer join's rows too — as the table or the table ± the
    side's own Δ, by phase."""

    OPEN_AUCTION_PATH = [("child", "site"), ("child", "open_auctions"),
                         ("child", "open_auction")]

    def _theta_view(self):
        storage, view = site_view(RESERVE_BELOW_AGE_QUERY, 20, seed=1)
        stack, joins = [view.pipeline.plan], []
        while stack:
            op = stack.pop()
            stack.extend(op.inputs)
            if isinstance(op, LeftOuterJoin):
                joins.append(op)
        [loj] = joins
        return storage, view, loj

    @staticmethod
    def _ctx(storage, store, root: DeltaRoot) -> ExecutionContext:
        spec = DeltaSpec("site.xml", (root,), root.kind, epoch=store.epoch)
        return ExecutionContext(storage, mode=DELTA, delta=spec, store=store)

    def test_the_store_derives_the_state_from_the_phase(self):
        storage, view, loj = self._theta_view()
        store = view.registry.state_store
        auction = storage.find_by_path("site.xml", self.OPEN_AUCTION_PATH)[0]
        ctx = self._ctx(storage, store, DeltaRoot(auction, INSERT))
        auctions = loj.inputs[1]
        new = store.side(ctx, auctions, None)
        old = store.side(ctx, auctions, None, old=True)
        assert isinstance(new, StoredSideHandle)
        assert isinstance(old, DiffSideHandle)
        # an insert's own row is cancelled out of the old state: the
        # stored row and its negated Δ row leave it together
        assert len(old.table().tuples) == len(new.table().tuples) - 1
        assert sum(t.count for t in old.table().tuples) == \
            sum(t.count for t in new.table().tuples) - 1
        assert store.entry_count() == 1
        # an outer join's rows are stored like any other side's
        assert isinstance(store.side(ctx, loj, None, old=True),
                          DiffSideHandle)
        assert subplan_signature(loj) in {entry.signature
                                          for entry in store.entries()}
        view.close()

    def test_a_modify_reads_the_old_state_minus_its_pairs(self):
        """The reserve of one auction changes: the auctions side's old
        state is its table plus the negated retract/assert pair; the
        persons side, with no pair of its own, is its stored table."""
        storage, view, loj = self._theta_view()
        store = view.registry.state_store
        reserve = storage.find_by_path(
            "site.xml", self.OPEN_AUCTION_PATH + [("child", "reserve")])[0]
        old_text = storage.text(reserve)
        storage.replace_text(reserve, "1")
        ctx = self._ctx(storage, store,
                        DeltaRoot(reserve, MODIFY, old_text, "1"))
        persons, auctions = loj.inputs
        new = store.side(ctx, auctions, None)
        old = store.side(ctx, auctions, None, old=True)
        assert isinstance(new, StoredSideHandle)
        assert isinstance(old, DiffSideHandle)
        assert len(old.table().tuples) == len(new.table().tuples) + 2
        assert sum(t.count for t in old.table().tuples) == \
            sum(t.count for t in new.table().tuples)
        assert isinstance(store.side(ctx, persons, None, old=True),
                          StoredSideHandle)
        view.close()

    def test_a_map_side_is_read_as_its_full_table(self):
        """A hand-built plan may join a unit of one document with a
        ``Map`` over another: the store holds no correlated subplan, and
        since ``Map`` refuses Δ evaluation the side never sources the
        batch's document — its one state, the FULL table, serves the
        rule."""
        storage = StorageManager()
        register_running_example(storage)
        books = NavigateUnnest(Source("bib.xml", "$S1"), "$S1",
                               Path.parse("bib/book"), "$b")
        entries = NavigateUnnest(Source("prices.xml", "$S2"), "$S2",
                                 Path.parse("prices/entry"), "$e")
        prices = Combine(NavigateUnnest(VariableBinding(("$e",)), "$e",
                                        Path.parse("price"), "$p"), "$p")
        pairs = Tagger(CartesianProduct(books, Map(entries, prices)),
                       Pattern("r", content=("$b",)), "$r")
        plan = Expose(Tagger(Combine(pairs, "$r"),
                             Pattern("result", content=("$r",)), "$o"),
                      "$o")
        registry = ViewRegistry(storage)
        pin(registry.register("m", plan))
        book = storage.find_by_path("bib.xml", [("child", "bib"),
                                                ("child", "book")])[-1]
        registry.apply_updates([UpdateRequest.insert(
            "bib.xml", book, NEW_BOOK_FRAGMENT)])
        assert registry.to_xml("m") == registry.recompute_xml("m")
        assert registry.view("m").stats.recomputes == 0
        assert not any("Map" in entry.signature
                       for entry in registry.state_store.entries())
        registry.close()

    def test_a_theta_insert_walks_the_other_side(self):
        """One person inserted under the Q11-shaped count walks every
        open auction once, counted on the store and on the auctions
        side's entry (EXPLAIN's ``scanned=``)."""
        storage, view, loj = self._theta_view()
        store = view.registry.state_store
        auctions = len(storage.find_by_path("site.xml",
                                            self.OPEN_AUCTION_PATH))
        view.apply_updates([UpdateRequest.insert(
            "site.xml", persons_of(storage)[-1],
            xmark.new_person_xml(0, age=40), "after")])
        assert view.to_xml() == view.recompute_xml()
        assert store.stats.bucket_rows_scanned == auctions
        [entry] = store.entries()
        assert entry.signature == subplan_signature(loj.inputs[1])
        assert entry.stats.bucket_rows_scanned == auctions
        assert f"scanned={auctions}" in view.registry.explain(view.name)
        view.close()

    def test_every_store_counter_is_its_entries_shares(self):
        """Each store counter is advanced once with its entry's share, so
        the store's total is the sum over the signatures EXPLAIN lists —
        except rows walked on a side evaluated live, which has no entry."""
        storage = StorageManager()
        xmark.register_site(storage, 20, seed=1)
        registry = ViewRegistry(storage)
        for index, query in enumerate([*GROUPED_VIEWS.values(),
                                       xmark.JOIN_QUERY,
                                       RESERVE_BELOW_AGE_QUERY]):
            pin(registry.register(f"v{index}", query))
        rng = random.Random(5)
        for step in range(20):
            registry.apply_updates(random_batch(rng, storage, step,
                                                ALL_MUTATORS))
        store = registry.state_store
        store.invalidate_all()
        shares = [entry.stats.as_dict() for entry in store.entries()]
        for counter, total in store.stats.as_dict().items():
            summed = sum(share[counter] for share in shares)
            if counter == "bucket_rows_scanned":
                assert total >= summed > 0
            else:
                assert total == summed, counter
        assert store.stats.invalidations > 0
        registry.close()


class TestInPlaceReplace:
    """A patch swaps a row in place: it keeps its table slot and bucket
    position, and moves between buckets only when its probe keys do."""

    @staticmethod
    def persons_entry(registry):
        [entry] = [e for e in registry.state_store.entries()
                   if e.valid and type(e.op).__name__ == "NavigateCollection"]
        [(cols, index)] = entry.indexes.items()
        return entry, cols, index

    @staticmethod
    def row_of(entry, person):
        return next(tup for tup in entry.table.tuples
                    if tup.cells["$p_3"].key == person)

    def warm(self):
        registry = TestBatchEpochs.registry(40, GROUPED_VIEWS)
        cities = registry.storage.find_by_path("site.xml", CITY_PATH)
        registry.apply_updates(
            [UpdateRequest.modify("site.xml", cities[0], "Tampere")])
        return registry, cities

    def test_probe_key_change_moves_the_row(self):
        registry, cities = self.warm()
        storage = registry.storage
        entry, cols, index = self.persons_entry(registry)
        person = persons_of(storage)[3]
        old = self.row_of(entry, person)
        [old_key] = entry._indexed_keys[id(old)][cols]
        old_support = entry.supports[cols][old_key]
        position = entry._pos[id(old)]
        registry.apply_updates(
            [UpdateRequest.modify("site.xml", cities[3], "Lahti")])
        new = self.row_of(entry, person)
        assert new is not old
        assert entry.table.tuples[position] is new
        assert entry.supports[cols][("Lahti",)] == 1
        assert index[("Lahti",)] == [new]
        assert old not in index.get(old_key, [])
        assert new not in index.get(old_key, [])
        assert entry.supports[cols].get(old_key, 0) == old_support - 1
        assert audit_operator_state(registry) == 3
        registry.close()

    def test_refresh_keeping_the_keys_keeps_its_places(self):
        registry, _cities = self.warm()
        storage = registry.storage
        entry, cols, index = self.persons_entry(registry)
        person = persons_of(storage)[3]
        old = self.row_of(entry, person)
        [key] = entry._indexed_keys[id(old)][cols]
        bucket_order = list(index[key])
        position = entry._pos[id(old)]
        support = entry.supports[cols][key]
        name = storage.children(person, "name")[0]
        registry.apply_updates(
            [UpdateRequest.modify("site.xml", name, "Renamed Person")])
        new = self.row_of(entry, person)
        assert new is not old
        assert entry.table.tuples[position] is new
        assert index[key] == [new if tup is old else tup
                              for tup in bucket_order]
        assert entry.supports[cols][key] == support
        assert audit_operator_state(registry) == 3
        for view in registry.names():
            assert registry.to_xml(view) == registry.recompute_xml(view)
        registry.close()

    def test_missing_bucket_entry_invalidates(self):
        """A row its bucket lost is an index desync for the in-place
        swap too: ``_replace`` raises, and a batch's patch meeting it
        drops the entry (counted) and the same pass re-derives it."""
        registry, cities = self.warm()
        storage, store = registry.storage, registry.state_store
        entry, cols, index = self.persons_entry(registry)
        person = persons_of(storage)[3]
        victim = self.row_of(entry, person)
        [key] = entry._indexed_keys[id(victim)][cols]
        index[key].remove(victim)       # lose it behind the entry's back
        with pytest.raises(_IndexDesync):
            entry._replace(entry._fp_of[id(victim)],
                           XatTuple(dict(victim.cells), victim.count),
                           {cols: [key]})
        entry.invalidate()              # the half-done swap is garbage

        registry.apply_updates(   # re-derive, then lose a row again
            [UpdateRequest.modify("site.xml", cities[1], "Tampere")])
        victim = self.row_of(entry, person)
        [key] = entry._indexed_keys[id(victim)][cols]
        entry.indexes[cols][key].remove(victim)
        before = (store.stats.invalidations, entry.stats.misses)
        name = storage.children(person, "name")[0]
        # a name modify probes no persons: the end-of-pass reconcile
        # patches the entry, meets the loss and drops it ...
        registry.apply_updates(
            [UpdateRequest.modify("site.xml", name, "Renamed Person")])
        assert store.stats.invalidations == before[0] + 1
        assert not entry.valid
        # ... and the next batch that probes it re-derives it
        registry.apply_updates(
            [UpdateRequest.modify("site.xml", cities[2], "Tampere")])
        assert entry.stats.misses == before[1] + 1
        assert entry.valid and audit_operator_state(registry) == 3
        for view in registry.names():
            assert registry.to_xml(view) == registry.recompute_xml(view)
        registry.close()


def assert_no_dead_keys(view) -> None:
    """No cached tuple may reference a key that left storage — a stale
    reference would crash (or silently corrupt) a later probe."""
    storage = view.registry.storage
    for entry in view.registry.state_store.entries():
        if not entry.valid or entry.table is None:
            continue
        for tup in entry.table.tuples:
            for cell in tup.cells.values():
                items = (cell if isinstance(cell, list)
                         else [cell] if cell is not None else [])
                for item in items:
                    key = (getattr(item, "key", None)
                           or getattr(item, "source_key", None))
                    assert key is None or storage.has_node(key), (
                        f"dead key {key} cached in {entry.signature[:60]}")


class TestCacheLiveness:

    def test_no_dead_keys_after_mixed_stream(self):
        """Delete staging/commit must purge every reference to the
        deleted subtrees from the persisted tables and indexes."""
        rng = random.Random(606)
        storage, view = site_view(xmark.JOIN_QUERY)
        for step in range(25):
            batch = random_batch(rng, storage, step, ORACLE_MUTATORS,
                                 max_size=3)
            view.apply_updates(batch)
            assert_consistent(view)
            assert_no_dead_keys(view)


class TestRegistrySharing:

    def test_structurally_equal_views_share_entries(self):
        storage = StorageManager()
        xmark.register_site(storage, 30)
        with ViewRegistry(storage) as registry:
            registry.register("a", xmark.JOIN_QUERY)
            registry.register("b", xmark.JOIN_QUERY)
            anchor = persons_of(storage)[-1]
            registry.apply_updates([UpdateRequest.insert(
                "site.xml", anchor, xmark.new_person_xml(0), "after")])
            registry.apply_updates([UpdateRequest.insert(
                "site.xml", anchor, xmark.new_person_xml(1), "after")])
            # Both views' auction sides resolve to one shared entry.
            assert registry.state_store.entry_count() == 1
            assert registry.query("a") == registry.recompute_xml("a")
            assert registry.query("b") == registry.recompute_xml("b")

    def test_mixed_policies_over_shared_store(self):
        rng = random.Random(505)
        storage = StorageManager()
        xmark.register_site(storage, 30)
        with ViewRegistry(storage) as registry:
            registry.register("now", xmark.JOIN_QUERY)
            registry.register("later", xmark.PERSONS_BY_CITY_QUERY,
                              policy="deferred")
            for step in range(15):
                registry.apply_updates(
                    [random_update(rng, storage, step)])
                assert registry.query("now") == \
                    registry.recompute_xml("now")
                assert registry.query("later") == \
                    registry.recompute_xml("later")

    def test_close_detaches_listener(self):
        storage = StorageManager()
        xmark.register_site(storage, 10)
        registry = ViewRegistry(storage)
        registry.register("v", xmark.JOIN_QUERY)
        store = registry.state_store
        registry.close()
        registry.close()  # idempotent
        assert store._attached is False


class TestSignatures:

    def test_same_query_same_signature(self):
        from repro.translate import translate_query
        a = translate_query(xmark.JOIN_QUERY).prepare()
        b = translate_query(xmark.JOIN_QUERY).prepare()
        assert subplan_signature(a) == subplan_signature(b)

    def test_different_queries_differ(self):
        from repro.translate import translate_query
        a = translate_query(xmark.JOIN_QUERY).prepare()
        b = translate_query(xmark.SELECTION_QUERY).prepare()
        assert subplan_signature(a) != subplan_signature(b)

    def test_repr_and_explain_print_the_signature_core(self):
        """An operator renders as ``Name[params]`` from the signature
        core that keys the store — in ``repr`` and in EXPLAIN alike."""
        storage, view = site_view(xmark.ORDER_QUERY_2, 10)
        plan = view.pipeline.plan
        assert [repr(op) for op in plan.iter_operators()] == [
            "Source[site.xml, $S2]",
            "NavigateUnnest[$S2, /site/people/person/address/city/text(),"
            " $c_1, False]",
            "Distinct[$c_1]", "OrderBy[$c_1]",
            "Tagger[<city>$c_1</city>, $col3]", "Combine[$col3]",
            "Tagger[<result>$col3</result>, $col4]", "Expose[$col4]"]
        explain = view.registry.explain(view.name)
        for op in plan.iter_operators():
            assert f"{op!r}  full: runs=" in explain
        view.close()
        # an operator keyed by instance prints no instance number
        binding = VariableBinding(("$e",))
        assert [repr(binding), repr(Map(binding, binding))] == [
            "VariableBinding($e)", "Map"]


def net_rows(tuples, columns) -> dict:
    """A side state as ``{row fingerprint: net count}``, zeros dropped:
    a stored table and a signed handle compare equal when they hold the
    same rows, whatever cancelling pairs the handle carries."""
    net: dict = {}
    for tup in tuples:
        fp = tuple_fingerprint(tup, columns)
        net[fp] = net.get(fp, 0) + tup.count
    return {fp: count for fp, count in net.items() if count}


class TestSignedSideHandle:
    """A side's state on the far side of the batch from its stored
    table is that table ± its own counted Δ: an insert's old state is
    the pre-batch table and a delete's new state the post-delete one,
    for ``bycity``'s Tagger side (served through its input's entry) and
    its ``OrderBy``-over-``Distinct`` side alike."""

    @staticmethod
    def sides():
        plan = translate_query(xmark.PERSONS_BY_CITY_QUERY).prepare()
        [loj] = [op for op in plan.iter_operators()
                 if isinstance(op, LeftOuterJoin)]
        return ((loj.inputs[0], tuple(loj._lcols)),
                (loj.inputs[1], tuple(loj._rcols)))

    @staticmethod
    def storage():
        storage = StorageManager()
        xmark.register_site(storage, 20, seed=1)
        return storage

    @staticmethod
    def ctx(storage, store, root: DeltaRoot) -> ExecutionContext:
        spec = DeltaSpec("site.xml", (root,), root.kind, epoch=store.epoch)
        return ExecutionContext(storage, mode=DELTA, delta=spec,
                                store=store)

    @staticmethod
    def state(ctx, op, cols) -> tuple:
        """A fresh FULL evaluation of ``op`` as its net rows and its
        net count per probe key."""
        tuples = ctx.evaluate(op).tuples
        supports: dict = {}
        for tup in tuples:
            for key in _hash_keys(tup, cols, ctx):
                supports[key] = supports.get(key, 0) + tup.count
        return net_rows(tuples, op.schema.columns), supports

    @staticmethod
    def check(handle, op, cols, state) -> None:
        rows, supports = state
        assert isinstance(handle, DiffSideHandle)
        assert net_rows(handle.table().tuples, op.schema.columns) == rows
        keys = set(supports) | {key for tup in handle.table().tuples
                                for key in _hash_keys(tup, cols,
                                                      handle._ctx)}
        for key in keys:
            want = supports.get(key, 0)
            assert handle.support(key) == want, key
            assert sum(t.count for t in handle.probe(key)) == want, key

    def test_an_insert_old_state_is_the_pre_batch_table(self):
        storage = self.storage()
        fresh = ExecutionContext(storage)
        sides = self.sides()
        before = [self.state(fresh, op, cols) for op, cols in sides]
        people = storage.find_by_path("site.xml", PERSON_PATH)
        new = storage.insert_fragment(
            storage.parent_key(people[0]),
            parse_fragment(xmark.new_person_xml(1, city="Zanzibar"))[0])
        store = OperatorStateStore(storage)
        ctx = self.ctx(storage, store, DeltaRoot(new, INSERT))
        for (op, cols), state in zip(sides, before):
            self.check(store.side(ctx, op, cols, old=True), op, cols,
                       state)
        store.close()

    def test_a_delete_new_state_is_the_post_delete_table(self):
        storage, after = self.storage(), self.storage()
        # the one person of the least populated city: the delete moves
        # that city across zero, so the Distinct side changes too
        people = storage.find_by_path("site.xml", PERSON_PATH)
        city_of = {p: storage.text(storage.children(
            storage.children(p, "address")[0], "city")[0]) for p in people}
        doomed = min(people, key=lambda p: (
            list(city_of.values()).count(city_of[p]), p.value))
        after.delete_subtree(doomed)
        fresh = ExecutionContext(after)
        store = OperatorStateStore(storage)
        ctx = self.ctx(storage, store, DeltaRoot(doomed, DELETE))
        for op, cols in self.sides():
            self.check(store.side(ctx, op, cols), op, cols,
                       self.state(fresh, op, cols))
        store.close()

    def test_a_row_probed_under_two_keys_is_one_object(self):
        """A new person with two cities hashes under both: its negated
        Δ row comes back as the same object from either probe, so the
        identity dedupe of a multi-item probe counts it once.  Against
        the stored table, which holds the person, it comes back from
        neither: it cancels with its stored twin."""
        storage = self.storage()
        people = storage.find_by_path("site.xml", PERSON_PATH)
        fragment = xmark.new_person_xml(1, city="Lima").replace(
            "<city>Lima</city>", "<city>Lima</city><city>Oslo</city>")
        new = storage.insert_fragment(storage.parent_key(people[0]),
                                      parse_fragment(fragment)[0])
        store = OperatorStateStore(storage)
        ctx = self.ctx(storage, store, DeltaRoot(new, INSERT))
        _left, (persons, cols) = self.sides()
        old = store.side(ctx, persons, cols, old=True)
        assert all(t.count > 0 for key in (("Lima",), ("Oslo",))
                   for t in old.probe(key))
        counted = [t for t in ctx.evaluate(persons, DELTA).tuples if t.count]
        bare = DiffSideHandle(
            TransientSideHandle(ctx, cols, table=XatTable(persons.schema)),
            counted, ctx, -1, persons.schema.columns)
        [lima], [oslo] = bare.probe(("Lima",)), bare.probe(("Oslo",))
        assert lima is oslo and lima.count < 0
        assert _probe_union(bare.probe, [("Lima",), ("Oslo",)]).count(
            lima) == 1
        store.close()

    def test_a_modify_half_never_cancels_a_stored_row(self):
        """A modify's pair halves read other values than the stored
        rows, so they never cancel one: a person moved to a new city
        leaves that city's stored row in the old left state (the outer
        join corrects its dangling pad), and moving the person on
        closes the group exactly."""
        storage = self.storage()
        registry = ViewRegistry(storage)
        pin(registry.register("v", xmark.PERSONS_BY_CITY_QUERY))
        address = storage.children(persons_of(storage)[9], "address")[0]
        [city] = storage.children(address, "city")
        for text in ("Zanzibar", "Paris"):
            registry.apply_updates([UpdateRequest.modify("site.xml", city,
                                                         text)])
            assert registry.to_xml("v") == registry.recompute_xml("v")
        registry.close()

    def test_a_new_city_reaches_the_outer_join_without_pairs(
            self, monkeypatch):
        """One person of a new city inserted under ``bycity`` and then
        deleted: each side reads the other's stored rows and their
        signed Δ with the cancelling pairs taken out, so the outer
        join's Δ output holds no two rows with equal cells and opposite
        counts.  Against handles that keep the pairs, the pass's summed
        Δ rows fall, and the extent mutations and the XML are equal."""
        uncancelled = DiffSideHandle._net
        join_delta = LeftOuterJoin._delta

        def keep_pairs(handle, stored, deltas):
            return list(stored) + uncancelled(handle, [], deltas)

        def run(cancel: bool) -> tuple:
            """(each refresh's mutations, the join's Δ tables, and per
            update the XML and the Δ rows summed over the plan)."""
            storage = StorageManager()
            xmark.register_site(storage, 200, seed=1)
            registry = ViewRegistry(storage)
            plan = pin(registry.register(
                "v", xmark.PERSONS_BY_CITY_QUERY)).pipeline.plan
            mutations, outputs, trace = [], [], []
            registry.add_refresh_listener(
                "v", lambda event: mutations.append(event.mutations),
                deliver_mutations=True)

            def recording(op, ctx, ldelta, rdelta):
                outputs.append(join_delta(op, ctx, ldelta, rdelta))
                return outputs[-1]

            def delta_rows() -> int:
                return sum(obs_op_stats(op)["delta_tuples_out"]
                           for op in plan.iter_operators())

            with monkeypatch.context() as patch:
                patch.setattr(LeftOuterJoin, "_delta", recording)
                if not cancel:
                    patch.setattr(DiffSideHandle, "_net", keep_pairs)
                for insert in (True, False):
                    anchor = persons_of(storage)[-1]
                    before = delta_rows()
                    registry.apply_updates([
                        UpdateRequest.insert(
                            "site.xml", anchor,
                            xmark.new_person_xml(0, city="Zanzibar"),
                            "after")
                        if insert else
                        UpdateRequest.delete("site.xml", anchor)])
                    xml = registry.to_xml("v")
                    assert xml == registry.recompute_xml("v")
                    trace.append((xml, delta_rows() - before))
            [loj] = [op for op in plan.iter_operators()
                     if isinstance(op, LeftOuterJoin)]
            registry.close()
            return mutations, outputs, trace, loj.schema.columns

        mutations, outputs, trace, columns = run(cancel=True)
        for table in outputs:
            signed = {(tuple_fingerprint(t, columns), t.count)
                      for t in table.tuples}
            assert not any((fp, -count) in signed for fp, count in signed)
        paired_mutations, _outputs, paired_trace, _ = run(cancel=False)
        assert mutations == paired_mutations
        assert [xml for xml, _ in trace] == [xml for xml, _ in paired_trace]
        assert all(rows < paired for (_, rows), (_, paired)
                   in zip(trace, paired_trace)), (trace, paired_trace)


class TestStateHooks:
    """Unit coverage of the per-operator patch rules."""

    def test_merge_member_items_counts(self):
        a = AtomicItem("x", count=1)
        b = AtomicItem("y", count=1)
        merged = merge_member_items([a, b], [AtomicItem("y", count=-1),
                                             AtomicItem("z", count=2)])
        values = {item.value: item.count for item in merged}
        assert values == {"x": 1, "z": 2}

    def test_merge_member_items_rejects_unmatched_negative(self):
        assert merge_member_items([], [AtomicItem("x", count=-1)]) is None

    def test_groupby_agg_state_apply(self):
        plan = GroupBy(
            NavigateUnnest(Source("d.xml", "$S"), "$S",
                           Path.parse("/r/i"), "$i"),
            ("$g",), agg=("sum", "$v", "$out"))
        plan.prepare()
        old = compute_aggregate("sum", [XatTuple(
            {"$v": AtomicItem("10", count=1)})], "$v", None)
        existing = XatTuple({"$g": AtomicItem("k"),
                             "$out": AtomicItem(old.value(), agg=old)})
        delta_state = compute_aggregate("sum", [XatTuple(
            {"$v": AtomicItem("5", count=1)})], "$v", None)
        dt = XatTuple({"$g": AtomicItem("k"),
                       "$out": AtomicItem(delta_state.value(),
                                          agg=delta_state)})
        verb, merged = plan.state_apply(existing, dt, None)
        assert verb == "replace"
        out = merged["$out"]
        assert out.value == "15"

    def test_groupby_agg_removes_emptied_group(self):
        plan = GroupBy(
            NavigateUnnest(Source("d.xml", "$S"), "$S",
                           Path.parse("/r/i"), "$i"),
            ("$g",), agg=("count", "$v", "$out"))
        plan.prepare()
        old = compute_aggregate("count", [XatTuple(
            {"$v": AtomicItem("10", source_key=None, count=1)})],
            "$v", None)
        existing = XatTuple({"$g": AtomicItem("k"),
                             "$out": AtomicItem(old.value(), agg=old)},
                            count=1)
        gone = compute_aggregate("count", [XatTuple(
            {"$v": AtomicItem("10", source_key=None, count=1)},
            count=-1)], "$v", None)
        dt = XatTuple({"$g": AtomicItem("k"),
                       "$out": AtomicItem(gone.value(), agg=gone)},
                      count=-1)
        verb, _merged = plan.state_apply(existing, dt, None)
        assert verb == "remove"
