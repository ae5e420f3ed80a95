"""The plan IR and its VM: lowered plans are linear and dependency
ordered, share prepared metadata across views, short-circuit a foreign
document's empty delta, and — scheduled linearly — maintain every view
of the xmark/bib set equal to recursive recomputation under randomized
mixed update streams.
"""

from __future__ import annotations

import pytest

from repro import Database, StorageManager, UpdateRequest, ViewRegistry
from repro.engine.opstate import subplan_signature
from repro.plan import PlanVM, lower
from repro.plan.ir import _OPCODES, opcode_for
from repro.translate import translate_query
from repro.workloads import bib as bibload
from repro.workloads import xmark
from repro.xat.base import (DELTA, FULL, MODIFY, DeltaRoot, DeltaSpec,
                            ExecutionContext, obs_op_stats)

from .helpers import (ALL_MUTATORS, FUZZ_VIEWS, GROUPED_VIEWS,
                      SHARING_POLICIES, SHARING_VIEWS, assert_consistent,
                      books_of, pin, run_differential, running_example,
                      site_view)

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

    def test_one_plan_form(self):
        """Every concrete operator lowers to an opcode of its own and is
        keyed by its structure (its own ``signature_core``): no operator
        falls back to an instance key or an untyped instruction."""
        import repro.xat as xat
        from repro.xat.base import XatOperator
        from repro.xat.relational import _BinaryJoinBase

        def concrete(cls):
            for sub in cls.__subclasses__():
                if sub.__module__.startswith("repro.") \
                        and sub is not _BinaryJoinBase:
                    yield sub
                yield from concrete(sub)

        operators = set(concrete(XatOperator))
        assert {xat.Tagger, xat.Join, xat.GroupBy, xat.Source} <= operators
        assert set(_OPCODES) == {cls.__name__ for cls in operators}
        for cls in operators:
            assert "signature_core" in vars(cls), cls

    def test_an_operator_without_an_opcode_is_refused(self):
        """An operator class the IR has no opcode for does not lower: it
        is never run as an untyped instruction."""
        from repro.xat.base import XatOperator

        class Unknown(XatOperator):
            def signature_core(self) -> tuple:
                return ("unknown",)

        with pytest.raises(KeyError):
            opcode_for(Unknown(), FULL)

    def test_shared_prefix_across_views(self):
        """Structurally-equal subplans of different views compile against
        the same prepared metadata (signature-keyed hits)."""
        storage = StorageManager()
        xmark.register_site(storage, 10, seed=1)
        registry = ViewRegistry(storage)
        registry.register("one", xmark.SELECTION_QUERY)
        misses_after_one = registry.plan_cache.misses
        # A lone view's Δ compile hits the records of its own FULL
        # compile; that is not a prefix another view can fill.
        registry.apply_updates([UpdateRequest.modify(
            "site.xml", storage.find_by_path("site.xml", CITY_PATH)[0],
            "Tampere")])
        one = registry.view("one").pipeline.plan
        lone = registry.plan_cache.plans_for(one)
        assert [p.mode for p in lone] == [FULL, DELTA]
        assert all(p.shared_prefix_instructions == 0 for p in lone)
        assert "shared-prefix=" not in registry.explain("one")
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
            pin(db.registry.view("by-city"))
            db.execute('for $p in document("site.xml")'
                       '/site/people/person[1] update $p '
                       'replace $p/address/city with "Tampere"')
            text = db.render_prometheus()
            for family in ("repro_plan_compile_seconds",
                           "repro_plan_cache_hits",
                           "repro_plan_cache_misses",
                           "repro_vm_instructions_executed",
                           "repro_vm_instructions_reused"):
                assert family in text, f"{family} missing"
            stats = db.registry.plan_cache.stats()
            assert stats["compiles"] >= 2      # FULL + DELTA
            assert stats["instructions_executed"] > 0
            assert stats["instructions_reused"] == 0   # nobody to share with
            db.create_view("twin", xmark.PERSONS_BY_CITY_QUERY)
            pin(db.registry.view("twin"))
            db.execute('for $p in document("site.xml")'
                       '/site/people/person[2] update $p '
                       'replace $p/address/city with "Tampere"')
            reused = db.registry.plan_cache.stats()["instructions_reused"]
            assert reused > 0
            assert (f"repro_vm_instructions_reused {reused}"
                    in db.render_prometheus())

    def test_grouped_views_execute_each_shared_delta_once(self):
        """``bycity`` + ``headcount`` + ``cities`` lower to 16 + 14 + 8
        Δ instructions of which 26 are structurally distinct: one
        dispatch executes those and fills the other 12 registers from
        its memo."""
        storage = StorageManager()
        xmark.register_site(storage, 40, seed=1)
        registry = ViewRegistry(storage)
        for name, query in GROUPED_VIEWS.items():
            pin(registry.register(name, query))
        cities = storage.find_by_path("site.xml", CITY_PATH)
        before = registry.plan_cache.stats()
        registry.apply_updates(
            [UpdateRequest.modify("site.xml", cities[0], "Tampere"),
             UpdateRequest.modify("site.xml", cities[1], "Oslo")])
        after = registry.plan_cache.stats()
        assert (after["instructions_executed"]
                - before["instructions_executed"]) == 26
        assert (after["instructions_reused"]
                - before["instructions_reused"]) == 12
        for name in GROUPED_VIEWS:
            assert registry.to_xml(name) == registry.recompute_xml(name)
            assert registry.view(name).stats.recomputes == 0
        registry.close()

    def test_explain_lists_compiled_plans(self):
        with Database() as db:
            db.load("site.xml", xmark.generate_site(10, seed=1))
            db.create_view("by-city", xmark.PERSONS_BY_CITY_QUERY)
            pin(db.registry.view("by-city"))
            db.execute('for $p in document("site.xml")'
                       '/site/people/person[1] update $p '
                       'replace $p/address/city with "Tampere"')
            text = db.explain("by-city")
            assert "compiled plan [full]" in text
            assert "compiled plan [delta]" in text
            assert "reuse=" not in text and "shared-prefix=" not in text
            # A follower of a twin pair fills its Δ registers from the
            # first view's pass: reuse= counts, runs= stays.
            db.create_view("twin", xmark.PERSONS_BY_CITY_QUERY)
            pin(db.registry.view("twin"))
            db.execute('for $p in document("site.xml")'
                       '/site/people/person[2] update $p '
                       'replace $p/address/city with "Tampere"')
            twin = db.registry.view("twin").pipeline.plan
            delta_plan = db.registry.plan_cache.plans_for(twin)[1]
            assert [(i.executed, i.reused)
                    for i in delta_plan.instructions] \
                == [(0, 1)] * len(delta_plan)
            listing = db.explain("twin").split("compiled plan [delta]")[1]
            assert listing.count(" runs=0 reuse=1 ") == len(delta_plan)
            assert "shared-prefix=" in listing


# -- FULL-run liveness -----------------------------------------------------------------


class TestFullLiveness:
    """A FULL run over a memo of its own keeps only the tables a later
    step still reads; every instruction still runs once per run."""

    def test_vm_keeps_only_the_root_and_runs_each_instruction_once(self):
        storage = StorageManager()
        xmark.register_site(storage, 20, seed=1)
        plan = translate_query(xmark.JOIN_QUERY)
        vm = PlanVM()
        compiled = vm.cache.plan(plan, FULL)
        root_key = compiled.instructions[compiled.root].key
        for _run in range(2):
            before = [(i.executed + i.reused, i.op_stats["runs"])
                      for i in compiled.instructions]
            ctx = ExecutionContext(storage)
            table = vm.execute(compiled, ctx)
            assert list(ctx.memo) == [root_key]
            assert ctx.memo[root_key] is table
            # once per instruction, and never again through ctx.evaluate
            assert [(i.executed + i.reused - steps, i.op_stats["runs"] - runs)
                    for i, (steps, runs) in zip(compiled.instructions, before)
                    ] == [(1, 1)] * len(compiled)
        assert all(i.executed == 2 for i in compiled.instructions)
        assert len(table.tuples) == len(
            ExecutionContext(storage).evaluate(plan).tuples)

    def test_explain_reports_the_live_register_bound(self):
        storage = StorageManager()
        xmark.register_site(storage, 10, seed=1)
        registry = ViewRegistry(storage)
        registry.register("join", xmark.JOIN_QUERY)
        (full,) = registry.plan_cache.plans_for(
            registry.view("join").pipeline.plan)
        assert (full.nregs, full.live) == (14, 3)
        assert ("compiled plan [full] 14 instructions, 14 registers,"
                " root=r13, live≤3") in registry.explain("join")
        assert lower(registry.view("join").pipeline.plan, DELTA).live \
            is None
        registry.close()

    def test_recompute_evaluates_each_subplan_once_and_frees(
            self, monkeypatch):
        storage, view = site_view(xmark.JOIN_QUERY, 20, seed=1)
        plan = view.pipeline.plan
        operators = list(plan.iter_operators())
        keys = {subplan_signature(op) for op in operators}
        runs = {id(op): obs_op_stats(op)["runs"] for op in operators}
        sizes, contexts = [], []
        evaluate = ExecutionContext.evaluate

        def spy(ctx, op, mode=None):
            result = evaluate(ctx, op, mode)
            sizes.append(len(ctx.memo))
            contexts.append(ctx)
            return result
        monkeypatch.setattr(ExecutionContext, "evaluate", spy)
        assert view.recompute_xml() == view.to_xml()
        assert sum(obs_op_stats(op)["runs"] - runs[id(op)]
                   for op in operators) == len(keys)
        assert max(sizes) < len(keys)
        assert list(contexts[-1].memo) == [(subplan_signature(plan), FULL)]
        view.close()


# -- operator-state stale-window regression ----------------------------------------------


class TestStaleWindowGuard:
    """A stale backlog belongs to one batch, named by its dispatch epoch:
    events of that epoch stack (same subtree or not) and the batch's own
    spec patches them, while a relevant event of another epoch — which no
    one spec can cover — invalidates the entry instead of stacking a
    record a later patch would silently half-apply."""

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

    @staticmethod
    def _spec(keys, epoch):
        return DeltaSpec("site.xml", tuple(DeltaRoot(key, MODIFY)
                                           for key in keys),
                         MODIFY, epoch)

    def test_events_of_one_epoch_stack_and_one_spec_covers_them(self):
        storage, view, entry, cities = self._warm_entry()
        epoch = view.registry.state_store.epoch
        address = storage.parent_key(cities[0])
        for key in (cities[0], cities[1], cities[0], address):
            entry.on_mutation(MODIFY, key, storage.tag_path(key),
                              "site.xml", epoch)
        assert entry.valid and len(entry.stale) == 4
        # the batch's own spec covers the backlog; a spec whose roots
        # coincide but that names another batch does not
        assert entry.stale_covered_by(
            self._spec([address, cities[1]], epoch))
        assert not entry.stale_covered_by(
            self._spec([address, cities[1]], epoch + 1))
        assert not entry.stale_covered_by(self._spec([cities[0]], epoch))
        view.close()

    def test_event_of_a_second_epoch_invalidates(self):
        storage, view, entry, cities = self._warm_entry()
        epoch = view.registry.state_store.epoch
        address = storage.parent_key(cities[0])
        assert address.is_ancestor_of(cities[0])
        entry.on_mutation(MODIFY, cities[0],
                          storage.tag_path(cities[0]), "site.xml", epoch)
        entry.on_mutation(MODIFY, cities[1],
                          storage.tag_path(cities[1]), "site.xml", epoch)
        assert entry.valid and len(entry.stale) == 2
        entry.on_mutation(MODIFY, address,
                          storage.tag_path(address), "site.xml", epoch + 1)
        assert not entry.valid
        view.close()

    def test_event_of_a_second_epoch_invalidates_on_a_disjoint_subtree(self):
        storage, view, entry, cities = self._warm_entry()
        epoch = view.registry.state_store.epoch
        entry.on_mutation(MODIFY, cities[0],
                          storage.tag_path(cities[0]), "site.xml", epoch)
        entry.on_mutation(MODIFY, cities[1],
                          storage.tag_path(cities[1]), "site.xml", epoch + 1)
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
        """All fuzz views over one storage: one store, one plan cache,
        each view propagating its own routed subset of every batch."""
        run_differential(seed, 30, ALL_MUTATORS, FUZZ_VIEWS.values(),
                         num_persons=20, site_seed=1, shared=True)

    def test_duplicate_and_overlapping_views_in_one_registry(self):
        """Ten views, two of them registered twice: every dispatch has
        followers filling registers from another view's pass."""
        run_differential(7, 30, ALL_MUTATORS, SHARING_VIEWS,
                         num_persons=20, site_seed=1, shared=True)

    def test_deferred_and_threshold_views_in_one_registry(self):
        """The same ten views with two deferred and one threshold view:
        their queues of Δ forests span several batches (and epochs)
        between reads, each forest computed in its own dispatch."""
        run_differential(5, 40, ALL_MUTATORS, SHARING_VIEWS,
                         num_persons=20, site_seed=1, shared=True,
                         policies=SHARING_POLICIES)

    @pytest.mark.parametrize("name,query", list(FUZZ_VIEWS.items()))
    def test_ad_hoc_answers(self, name, query):
        """Each view's query also asked through ``ask`` every step: a
        kept entry (the per-item linear ones) or a fresh evaluation
        (grouping, join and dedup ones) beside the view, equal to
        ``Engine.query``."""
        run_differential(7, 8, ALL_MUTATORS, query,
                         num_persons=20, site_seed=1, ad_hoc=True)

    def test_ad_hoc_answers_sharing_one_registry(self):
        run_differential(2, 30, ALL_MUTATORS, FUZZ_VIEWS.values(),
                         num_persons=20, site_seed=1, shared=True,
                         ad_hoc=True)

    def test_ad_hoc_answers_beside_queued_views(self):
        """Eight distinct texts (a full entry table) asked beside the
        deferred and threshold views: entries propagate in the same
        dispatches and share registers with them."""
        run_differential(3, 30, ALL_MUTATORS, SHARING_VIEWS,
                         num_persons=20, site_seed=1, shared=True,
                         policies=SHARING_POLICIES, ad_hoc=True)

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
