"""Tests for the counting solution (Chapter 6): count annotations across
operators and multiple-derivation deletes."""

import random

import pytest

from repro import (StorageManager, UpdateRequest, ViewRegistry,
                   XmlDocument)
from repro.engine import Engine
from repro.workloads import xmark
from repro.xat import (Aggregate, ColumnRef, Combine, Comparison, Distinct,
                       GroupBy, Join, NavigateCollection, NavigateUnnest,
                       Path, Source, single_item)
from repro.xat.base import ExecutionContext

from .helpers import (ALL_MUTATORS, SHARING_VIEWS, MaintainedView, pin,
                      random_batch)

#: a view of several top-level roots (each keeps its real count) and one
#: whose single root sits over the "all" tuple of an Aggregate
SENIORS_QUERY = ('for $p in doc("site.xml")/site/people/person '
                 'where $p/profile/age > "40" '
                 'return <senior>{$p/name}</senior>')
HEADCOUNT_QUERY = '<result>{count(doc("site.xml")/site/people/person)}</result>'


def storage_with(bib_xml):
    sm = StorageManager()
    sm.register(XmlDocument.from_string("bib.xml", bib_xml))
    return sm


THREE_BOOKS = ("<bib><book year='1994'><title>A</title></book>"
               "<book year='1994'><title>B</title></book>"
               "<book year='2000'><title>C</title></book></bib>")


class TestCountAnnotationsAtQueryTime:
    def test_distinct_sums_duplicates(self):
        """Duplicate counts sum into a value's *support*; the output is
        set-semantic — one tuple of count 1 per supported value."""
        sm = storage_with(THREE_BOOKS)
        years = NavigateUnnest(
            NavigateUnnest(Source("bib.xml", "$S"), "$S",
                           Path.parse("bib/book"), "$b"),
            "$b", Path.parse("@year"), "$y")
        table = ExecutionContext(sm).evaluate(
            Distinct(years, "$y").prepare())
        counts = {single_item(t["$y"]).value: t.count for t in table}
        assert counts == {"1994": 1, "2000": 1}

    def test_join_multiplies_counts(self):
        """Output count = left count x right count: a Group By tuple
        carries its members' summed count into the join, a Distinct
        tuple counts once however many duplicates support its value."""
        sm = storage_with(THREE_BOOKS)

        def years():
            return NavigateUnnest(
                NavigateUnnest(Source("bib.xml", "$S"), "$S",
                               Path.parse("bib/book"), "$b"),
                "$b", Path.parse("@year"), "$y")

        for left, expected in (
                (GroupBy(years(), ("$y",), combine_col="$b"), [1, 2, 2]),
                (Distinct(years(), "$y"), [1, 1, 1])):
            books = NavigateUnnest(
                NavigateUnnest(Source("bib.xml", "$S2"), "$S2",
                               Path.parse("bib/book"), "$b2"),
                "$b2", Path.parse("@year"), "$y2")
            join = Join(left, books, Comparison(ColumnRef("$y"), "=",
                                                ColumnRef("$y2"))).prepare()
            table = ExecutionContext(sm).evaluate(join)
            assert sorted(t.count for t in table) == expected

    def test_groupby_sums_member_counts(self):
        sm = storage_with(THREE_BOOKS)
        years = NavigateUnnest(
            NavigateUnnest(Source("bib.xml", "$S"), "$S",
                           Path.parse("bib/book"), "$b"),
            "$b", Path.parse("@year"), "$y")
        grouped = GroupBy(years, ("$y",), combine_col="$b").prepare()
        table = ExecutionContext(sm).evaluate(grouped)
        counts = {single_item(t["$y"]).value: t.count for t in table}
        assert counts == {"1994": 2, "2000": 1}


class TestMultipleDerivations:
    """A view node with several derivations survives losing one of them."""

    QUERY = """<result>{
    for $y in distinct-values(doc("bib.xml")/bib/book/@year)
    return <g Y="{$y}">{
      for $b in doc("bib.xml")/bib/book where $y = $b/@year
      return $b/title}</g>
    }</result>"""

    def _view(self):
        sm = storage_with(THREE_BOOKS)
        return sm, MaintainedView(sm, self.QUERY)

    def test_group_node_counts_match_derivations(self):
        _sm, view = self._view()
        forest = view.pipeline.extent
        groups = {c.attributes["Y"]: c for c in forest.children[0].children
                  if c.tag == "g"}
        # yGroup count reflects the Z-multiplicity (distinct count x members)
        assert groups["1994"].count > groups["2000"].count

    def test_delete_one_derivation_keeps_group(self):
        sm, view = self._view()
        books = sm.children(sm.root_key("bib.xml"), "book")
        view.apply_updates([UpdateRequest.delete("bib.xml", books[0])])
        xml = view.to_xml()
        assert 'Y="1994"' in xml and ">B<" in xml and ">A<" not in xml
        assert view.to_xml() == view.recompute_xml()

    def test_delete_all_derivations_removes_group(self):
        sm, view = self._view()
        books = sm.children(sm.root_key("bib.xml"), "book")
        view.apply_updates([UpdateRequest.delete("bib.xml", books[0]),
                            UpdateRequest.delete("bib.xml", books[1])])
        assert 'Y="1994"' not in view.to_xml()
        assert view.to_xml() == view.recompute_xml()

    def test_fragment_deleted_from_root_not_node_by_node(self):
        sm, view = self._view()
        books = sm.children(sm.root_key("bib.xml"), "book")
        view.apply_updates(
            [UpdateRequest.delete("bib.xml", books[2])])  # only 2000 book
        # one root disconnect removed the whole <g Y="2000"> fragment
        fusion = view.registered.report.fusion
        assert fusion.removed_roots == 1
        assert fusion.removed_nodes >= 3
        assert view.to_xml() == view.recompute_xml()

    def test_reinsert_after_full_delete(self):
        sm, view = self._view()
        books = sm.children(sm.root_key("bib.xml"), "book")
        view.apply_updates([UpdateRequest.delete("bib.xml", books[2])])
        remaining = sm.children(sm.root_key("bib.xml"), "book")
        view.apply_updates([UpdateRequest.insert(
            "bib.xml", remaining[-1],
            "<book year='2000'><title>C2</title></book>", "after")])
        assert 'Y="2000"' in view.to_xml()
        assert view.to_xml() == view.recompute_xml()


def counted_tree(node) -> tuple:
    """An extent subtree as nested ``(match key, count, children)``
    tuples, children in their extent order: two extents hold the same
    derivation counts everywhere exactly when these compare equal."""
    return (node.match_key(), node.count,
            [counted_tree(child) for child in node.children])


class TestRootCounts:
    """A Δ pass leaves every extent node at the count a fresh
    materialization gives it: the forest wrapper at 1, each view root at
    its real derivation count (the "all" tuple of Combine / Aggregate is
    count-neutral under Δ, and so is the wrapper every root fuses under),
    and a constructed node nested in another constructor of the same
    tuple (``bycity``'s ``<persons-list>``) at 1 whatever the signs of
    the members its group gains or loses."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_count_equals_a_fresh_materialization(self, seed):
        storage = StorageManager()
        xmark.register_site(storage, 20, seed=1)
        registry = ViewRegistry(storage)
        queries = SHARING_VIEWS + (SENIORS_QUERY, HEADCOUNT_QUERY)
        for index, query in enumerate(queries):
            pin(registry.register(f"view{index}", query))
        rng = random.Random(seed)
        for step in range(12):
            registry.apply_updates(
                random_batch(rng, storage, step, ALL_MUTATORS))
        for name in registry.names():
            pipeline = registry.view(name).pipeline
            fresh, _report = Engine(storage).materialize(pipeline.plan)
            extent = pipeline.extent
            assert extent.count == fresh.count == 1, name
            assert counted_tree(extent) == counted_tree(fresh), name
            assert registry.view(name).stats.recomputes == 0
        # no operator-state entry is rooted at an "all" operator: Combine
        # and Aggregate keep no merge rule of their own
        assert not any(isinstance(entry.op, (Combine, Aggregate))
                       for entry in registry.state_store._entries.values())
        registry.close()
