"""The plan IR and its VM: lowered plans are linear and dependency
ordered, share prepared metadata across views, short-circuit a foreign
document's empty delta, and — scheduled linearly — maintain every view
of the xmark/bib set equal to recursive recomputation under randomized
mixed update streams.
"""

from __future__ import annotations

import pytest

from repro import Database, StorageManager, UpdateRequest, ViewRegistry
from repro.plan import lower
from repro.workloads import bib as bibload
from repro.workloads import xmark
from repro.xat.base import DELTA, FULL, MODIFY

from .helpers import (ALL_MUTATORS, FUZZ_VIEWS, assert_consistent, books_of,
                      run_differential, running_example, site_view)

CITY_PATH = [("child", "site"), ("child", "people"), ("child", "person"),
             ("child", "address"), ("child", "city")]


# -- lowering / plan cache ---------------------------------------------------------------


class TestLowering:

    def test_plans_are_linear_and_dependency_ordered(self):
        _storage, view = site_view(xmark.PERSONS_BY_CITY_QUERY, 20, seed=1)
        view.apply_updates([UpdateRequest.modify(
            "site.xml",
            _storage.find_by_path("site.xml", CITY_PATH)[0], "Tampere")])
        cache = view.pipeline.vm.cache
        plans = cache.plans_for(view.pipeline.plan)
        assert [p.mode for p in plans] == [FULL, DELTA]
        for plan in plans:
            assert plan.nregs == len(plan.instructions)
            for index, instr in enumerate(plan.instructions):
                assert instr.dest == index
                assert all(src < instr.dest for src in instr.srcs)
        view.close()

    def test_map_rhs_is_not_scheduled_standalone(self):
        """A Map's correlated RHS evaluates per binding inside the
        operator; the lowered plan must not list its subtree."""
        from repro.xat.construction import Map
        from repro.xat.navigation import Source

        left, right = Source("bib.xml", "d"), Source("prices.xml", "p")
        correlated = Map(left, right).prepare()
        compiled = lower(correlated, FULL)
        scheduled = {id(instr.xop) for instr in compiled.instructions}
        assert scheduled == {id(left), id(correlated)}
        assert id(right) not in scheduled

    def test_shared_prefix_across_views(self):
        """Structurally-equal subplans of different views compile against
        the same prepared metadata (signature-keyed hits)."""
        storage = StorageManager()
        xmark.register_site(storage, 10, seed=1)
        registry = ViewRegistry(storage)
        registry.register("one", xmark.SELECTION_QUERY)
        misses_after_one = registry.plan_cache.misses
        registry.register("two", xmark.SELECTION_QUERY)
        stats = registry.plan_cache.stats()
        assert stats["hits"] > 0
        # The twin's whole structure was already prepared.
        assert stats["misses"] == misses_after_one
        two = registry.view("two").pipeline.plan
        shared = [p.shared_prefix_instructions
                  for p in registry.plan_cache.plans_for(two)]
        assert shared and all(n > 0 for n in shared)
        registry.close()

    def test_invalidate_drops_plans_keeps_prepared(self):
        _storage, view = site_view(xmark.SELECTION_QUERY, 20, seed=1)
        cache = view.pipeline.vm.cache
        root = view.pipeline.plan
        assert cache.plans_for(root)
        prepared = dict(cache._prepared)
        cache.invalidate(root)
        assert not cache.plans_for(root)
        assert cache._prepared == prepared
        view.close()


# -- VM behaviour ------------------------------------------------------------------------


class TestVmExecution:

    def test_compiled_matches_interpreter_after_updates(self):
        """The linearly scheduled plan against recursive evaluation."""
        storage, view = site_view(xmark.JOIN_QUERY, 20, seed=1)
        assert_consistent(view)
        city = storage.find_by_path("site.xml", CITY_PATH)[2]
        view.apply_updates(
            [UpdateRequest.modify("site.xml", city, "Tampere")])
        assert_consistent(view)
        view.close()

    def test_foreign_document_delta_short_circuits(self):
        """A subplan sourcing only prices.xml contributes an empty delta
        to a bib.xml batch without executing — the compile-time
        source-document check."""
        storage, view = running_example()
        view.apply_updates([UpdateRequest.insert(
            "bib.xml", books_of(storage)[-1],
            bibload.NEW_BOOK_FRAGMENT, "after")])
        assert_consistent(view)
        cache = view.pipeline.vm.cache
        (delta_plan,) = [p for p in cache.plans_for(view.pipeline.plan)
                         if p.mode == DELTA]
        skipped = [i for i in delta_plan.instructions
                   if i.shortcircuits > 0]
        assert skipped, "no instruction short-circuited"
        assert any(i.prepared.source_documents == frozenset({"prices.xml"})
                   for i in skipped)
        view.close()

    def test_vm_counters_feed_metrics(self):
        with Database() as db:
            db.load("site.xml", xmark.generate_site(10, seed=1))
            db.create_view("by-city", xmark.PERSONS_BY_CITY_QUERY)
            db.execute('for $p in document("site.xml")'
                       '/site/people/person[1] update $p '
                       'replace $p/address/city with "Tampere"')
            text = db.render_prometheus()
            for family in ("repro_plan_compile_seconds",
                           "repro_plan_cache_hits",
                           "repro_plan_cache_misses",
                           "repro_vm_instructions_executed"):
                assert family in text, f"{family} missing"
            stats = db.registry.plan_cache.stats()
            assert stats["compiles"] >= 2      # FULL + DELTA
            assert stats["instructions_executed"] > 0

    def test_explain_lists_compiled_plans(self):
        with Database() as db:
            db.load("site.xml", xmark.generate_site(10, seed=1))
            db.create_view("by-city", xmark.PERSONS_BY_CITY_QUERY)
            db.execute('for $p in document("site.xml")'
                       '/site/people/person[1] update $p '
                       'replace $p/address/city with "Tampere"')
            text = db.explain("by-city")
            assert "compiled plan [full]" in text
            assert "compiled plan [delta]" in text


# -- operator-state stale-window regression ----------------------------------------------


class TestStaleWindowGuard:
    """A second mutation on an already-stale subtree is ambiguous (one
    batch or two?) — the entry must invalidate, not stack a stale record
    a later patch would silently half-apply."""

    def _warm_entry(self):
        storage, view = site_view(xmark.PERSONS_BY_CITY_QUERY, 20, seed=1)
        cities = storage.find_by_path("site.xml", CITY_PATH)
        view.apply_updates([UpdateRequest.modify(
            "site.xml", cities[0], "Tampere")])
        tags = storage.tag_path(cities[0])
        entries = [e for e in view.registry.state_store.entries()
                   if e.valid and e.sapt.relevant_for_tags("site.xml",
                                                           tags)]
        assert entries, "no warm entry over the city subtree"
        return storage, view, entries[0], cities

    def test_distinct_subtrees_stack_same_subtree_invalidates(self):
        storage, view, entry, cities = self._warm_entry()
        tags = storage.tag_path(cities[0])
        entry.on_mutation(MODIFY, cities[0], tags, "site.xml")
        assert entry.valid and len(entry.stale) == 1
        entry.on_mutation(MODIFY, cities[1],
                          storage.tag_path(cities[1]), "site.xml")
        assert entry.valid and len(entry.stale) == 2
        entry.on_mutation(MODIFY, cities[0], tags, "site.xml")
        assert not entry.valid
        view.close()

    def test_ancestor_of_stale_key_invalidates(self):
        storage, view, entry, cities = self._warm_entry()
        address = storage.find_by_path(
            "site.xml", CITY_PATH[:-1])[0]
        assert address.is_ancestor_of(cities[0])
        entry.on_mutation(MODIFY, cities[0],
                          storage.tag_path(cities[0]), "site.xml")
        assert entry.valid
        entry.on_mutation(MODIFY, address,
                          storage.tag_path(address), "site.xml")
        assert not entry.valid
        view.close()


# -- the maintained-vs-recomputed differential -------------------------------------------


class TestDifferential:
    """Randomized mixed streams, every mutator kind: the recompute
    oracle after every batch."""

    @pytest.mark.parametrize("name,query", list(FUZZ_VIEWS.items()))
    def test_xmark_views(self, name, query):
        run_differential(7, 8, ALL_MUTATORS, query,
                         num_persons=20, site_seed=1)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_xmark_views_sharing_one_registry(self, seed):
        """All five views over one storage: one store, one plan cache,
        each view propagating its own routed subset of every batch."""
        run_differential(seed, 30, ALL_MUTATORS, FUZZ_VIEWS.values(),
                         num_persons=20, site_seed=1, shared=True)

    def test_bib_running_example(self):
        storage, view = running_example()
        books = books_of(storage)
        titles = storage.find_by_path(
            "bib.xml", [("child", "bib"), ("child", "book"),
                        ("child", "title")])
        entries = storage.find_by_path(
            "prices.xml", [("child", "prices"), ("child", "entry")])
        for batch in (
                [UpdateRequest.insert("bib.xml", books[-1],
                                      bibload.NEW_BOOK_FRAGMENT, "after")],
                [UpdateRequest.modify("bib.xml", titles[0],
                                      "Data on the Web")],
                [UpdateRequest.insert(
                    "prices.xml", entries[-1],
                    "<entry><price>9.99</price>"
                    "<b-title>Data on the Web</b-title></entry>",
                    "after")],
                [UpdateRequest.delete("bib.xml", books[0])]):
            view.apply_updates(batch)
            assert_consistent(view)
        view.close()
