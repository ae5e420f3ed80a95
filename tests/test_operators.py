"""Unit tests for individual XAT operators (Section 2.2.2)."""

import pytest

from repro.engine import Engine
from repro.storage import StorageManager
from repro.xat import (Aggregate, And, CartesianProduct, ColumnRef, Combine,
                       Comparison, Distinct, Expose, GroupBy, Join,
                       LeftOuterJoin, Literal, Map, Merge,
                       NavigateCollection, NavigateUnnest, OrderBy, Path,
                       Pattern, PlanError, Rename, Select, Source, Tagger,
                       VariableBinding, XmlUnion, XmlUnique,
                       AtomicItem, NodeItem, items_of, single_item)
from repro.xat.base import ExecutionContext
from repro.xat.grouping import TupleFunction
from repro.xmlmodel import XmlDocument


@pytest.fixture
def storage():
    sm = StorageManager()
    sm.register(XmlDocument.from_string("bib.xml", (
        "<bib>"
        "<book year='1994'><title>Alpha</title><price>10</price></book>"
        "<book year='2000'><title>Beta</title><price>20</price></book>"
        "<book year='1994'><title>Gamma</title><price>30</price></book>"
        "</bib>")))
    sm.register(XmlDocument.from_string("tags.xml", (
        "<tags><tag name='Alpha'/><tag name='Beta'/>"
        "<tag name='Delta'/></tags>")))
    return sm


def run(storage, plan):
    plan.prepare()
    ctx = ExecutionContext(storage)
    return ctx.evaluate(plan)


def books(storage):
    return NavigateUnnest(Source("bib.xml", "$S"), "$S",
                          Path.parse("bib/book"), "$b")


class TestSourceAndNavigation:
    def test_source_single_tuple(self, storage):
        table = run(storage, Source("bib.xml", "$S"))
        assert len(table) == 1
        item = single_item(table.tuples[0]["$S"])
        assert item.key == storage.root_key("bib.xml")

    def test_unnest_creates_tuple_per_node(self, storage):
        table = run(storage, books(storage))
        assert len(table) == 3
        assert table.schema.order_schema == ("$b",)

    def test_unnest_to_attribute_values(self, storage):
        plan = NavigateUnnest(books(storage), "$b", Path.parse("@year"), "$y")
        table = run(storage, plan)
        values = [single_item(t["$y"]).value for t in table]
        assert values == ["1994", "2000", "1994"]

    def test_unnest_to_text(self, storage):
        plan = NavigateUnnest(books(storage), "$b",
                              Path.parse("title/text()"), "$t")
        values = [single_item(t["$t"]).value for t in run(storage, plan)]
        assert values == ["Alpha", "Beta", "Gamma"]

    def test_unnest_descendant_axis(self, storage):
        plan = NavigateUnnest(Source("bib.xml", "$S"), "$S",
                              Path.parse("bib//title"), "$t")
        assert len(run(storage, plan)) == 3

    def test_collection_keeps_tuples(self, storage):
        plan = NavigateCollection(books(storage), "$b",
                                  Path.parse("title"), "$t")
        table = run(storage, plan)
        assert len(table) == 3
        assert all(len(items_of(t["$t"])) == 1 for t in table)

    def test_collection_missing_yields_empty(self, storage):
        plan = NavigateCollection(books(storage), "$b",
                                  Path.parse("nope"), "$n")
        table = run(storage, plan)
        assert all(items_of(t["$n"]) == [] for t in table)

    def test_keep_empty_unnest(self, storage):
        plan = NavigateUnnest(books(storage), "$b", Path.parse("nope"),
                              "$n", keep_empty=True)
        table = run(storage, plan)
        assert len(table) == 3
        assert all(t["$n"] is None for t in table)


class TestSelectJoin:
    def test_select_by_value(self, storage):
        plan = Select(NavigateUnnest(books(storage), "$b",
                                     Path.parse("@year"), "$y"),
                      Comparison(ColumnRef("$y"), "=", Literal("1994")))
        assert len(run(storage, plan)) == 2

    def test_select_numeric_coercion(self, storage):
        probe = NavigateCollection(books(storage), "$b",
                                   Path.parse("price"), "$p")
        plan = Select(probe, Comparison(ColumnRef("$p"), ">", Literal("15")))
        assert len(run(storage, plan)) == 2

    def test_and_condition(self, storage):
        probe = NavigateCollection(
            NavigateUnnest(books(storage), "$b", Path.parse("@year"), "$y"),
            "$b", Path.parse("price"), "$p")
        plan = Select(probe, And((
            Comparison(ColumnRef("$y"), "=", Literal("1994")),
            Comparison(ColumnRef("$p"), "<", Literal("20")))))
        assert len(run(storage, plan)) == 1

    def _tags(self):
        return NavigateUnnest(Source("tags.xml", "$S2"), "$S2",
                              Path.parse("tags/tag"), "$g")

    def test_hash_join(self, storage):
        left = NavigateCollection(books(storage), "$b",
                                  Path.parse("title"), "$t")
        right = NavigateUnnest(self._tags(), "$g", Path.parse("@name"), "$n")
        plan = Join(left, right,
                    Comparison(ColumnRef("$t"), "=", ColumnRef("$n")))
        table = run(storage, plan)
        assert len(table) == 2  # Alpha, Beta match
        # join order schema = left OS + right OS
        assert table.schema.order_schema == ("$b", "$g")

    def test_theta_join_nested_loop(self, storage):
        left = NavigateCollection(books(storage), "$b",
                                  Path.parse("price"), "$p")
        right = self._tags()
        plan = Join(left, right,
                    Comparison(ColumnRef("$p"), ">", Literal("5")))
        # non-equi condition referencing one column -> nested loop, all pass
        assert len(run(storage, plan)) == 9

    def test_cartesian(self, storage):
        plan = CartesianProduct(books(storage), self._tags())
        assert len(run(storage, plan)) == 9

    def test_join_rejects_column_overlap(self, storage):
        with pytest.raises(PlanError):
            run(storage, Join(books(storage), books(storage),
                              Comparison(ColumnRef("$b"), "=",
                                         ColumnRef("$b"))))

    def test_loj_pads_dangling(self, storage):
        left = NavigateCollection(books(storage), "$b",
                                  Path.parse("title"), "$t")
        right = NavigateUnnest(self._tags(), "$g", Path.parse("@name"), "$n")
        plan = LeftOuterJoin(left, right,
                             Comparison(ColumnRef("$t"), "=",
                                        ColumnRef("$n")))
        table = run(storage, plan)
        assert len(table) == 3
        padded = [t for t in table if t["$g"] is None]
        assert len(padded) == 1  # Gamma has no tag


class TestDistinctGroupOrder:
    def test_distinct_counts_duplicates(self, storage):
        plan = Distinct(NavigateUnnest(books(storage), "$b",
                                       Path.parse("@year"), "$y"), "$y")
        table = run(storage, plan)
        # two 1994 books support one output tuple of count 1
        counts = {single_item(t["$y"]).value: t.count for t in table}
        assert counts == {"1994": 1, "2000": 1}
        assert table.schema.order_schema == ()

    def test_groupby_combine(self, storage):
        years = NavigateUnnest(books(storage), "$b",
                               Path.parse("@year"), "$y")
        plan = GroupBy(years, ("$y",), combine_col="$b")
        table = run(storage, plan)
        sizes = {single_item(t["$y"]).value: len(items_of(t["$b"]))
                 for t in table}
        assert sizes == {"1994": 2, "2000": 1}

    def test_groupby_aggregate(self, storage):
        years = NavigateUnnest(
            NavigateUnnest(books(storage), "$b", Path.parse("@year"), "$y"),
            "$b", Path.parse("price/text()"), "$p")
        plan = GroupBy(years, ("$y",), agg=("sum", "$p", "$total"))
        table = run(storage, plan)
        totals = {single_item(t["$y"]).value:
                  single_item(t["$total"]).value for t in table}
        assert totals == {"1994": "40", "2000": "20"}

    def test_groupby_requires_exactly_one_func(self, storage):
        with pytest.raises(ValueError):
            GroupBy(books(storage), ("$b",))
        with pytest.raises(ValueError):
            GroupBy(books(storage), ("$b",), combine_col="$x",
                    agg=("sum", "$x", "$y"))

    def test_orderby_sorts_and_sets_order_schema(self, storage):
        years = NavigateUnnest(books(storage), "$b",
                               Path.parse("title/text()"), "$t")
        plan = OrderBy(years, ("$t",))
        table = run(storage, plan)
        values = [single_item(t["$t"]).value for t in table]
        assert values == sorted(values)
        assert table.schema.order_schema == ("$t",)

    def test_orderby_numeric(self, storage):
        prices = NavigateUnnest(books(storage), "$b",
                                Path.parse("price/text()"), "$p")
        table = run(storage, OrderBy(prices, ("$p",)))
        values = [float(single_item(t["$p"]).value) for t in table]
        assert values == sorted(values)

    def test_combine_single_tuple(self, storage):
        plan = Combine(books(storage), "$b")
        table = run(storage, plan)
        assert len(table) == 1
        assert len(items_of(table.tuples[0]["$b"])) == 3

    def test_combine_assigns_overriding_orders(self, storage):
        # after a join, combined items carry composed overriding orders
        years = NavigateUnnest(books(storage), "$b",
                               Path.parse("@year"), "$y")
        plan = Combine(years, "$y")
        table = run(storage, plan)
        items = items_of(table.tuples[0]["$y"])
        tokens = [i.order_token() for i in items]
        assert tokens == sorted(tokens)  # document order preserved


class TestConstruction:
    def test_tagger_semantic_id_from_value_lineage(self, storage):
        years = Distinct(NavigateUnnest(books(storage), "$b",
                                        Path.parse("@year"), "$y"), "$y")
        plan = Tagger(years, Pattern("g", (("Y", ColumnRef("$y")),),
                                     ("$y",)), "$out")
        table = run(storage, plan)
        ids = [single_item(t["$out"]).key.value for t in table]
        assert ids == ["1994c", "2000c"]

    def test_tagger_id_from_node_lineage(self, storage):
        plan = Tagger(books(storage), Pattern("wrap", (), ("$b",)), "$w")
        table = run(storage, plan)
        first = single_item(table.tuples[0]["$w"])
        assert first.key.value.endswith("c")
        assert first.is_constructed
        assert first.skeleton.tag == "wrap"

    def test_tagger_skips_null_content(self, storage):
        nav = NavigateUnnest(books(storage), "$b", Path.parse("nope"),
                             "$n", keep_empty=True)
        plan = Tagger(nav, Pattern("wrap", (), ("$n",)), "$w")
        table = run(storage, plan)
        assert all(t["$w"] is None for t in table)

    def test_tagger_literal_content(self, storage):
        plan = Tagger(books(storage),
                      Pattern("x", (), ("$b", ("literal", "fixed"))), "$w")
        item = single_item(run(storage, plan).tuples[0]["$w"])
        node, literal = item.skeleton.content
        assert isinstance(node, NodeItem) and not node.is_constructed
        assert isinstance(literal, AtomicItem) and literal.value == "fixed"

    def test_xml_union_prefixes_reflect_side(self, storage):
        t = NavigateCollection(books(storage), "$b", Path.parse("title"),
                               "$t")
        p = NavigateCollection(t, "$b", Path.parse("price"), "$p")
        plan = XmlUnion(p, "$t", "$p", "$u")
        table = run(storage, plan)
        items = items_of(table.tuples[0]["$u"])
        assert len(items) == 2
        assert items[0].order_token() < items[1].order_token()
        assert items[0].order_token().startswith("a")
        assert items[1].order_token().startswith("b")

    def test_xml_unique(self, storage):
        t = NavigateCollection(books(storage), "$b", Path.parse("title"),
                               "$t")
        union = XmlUnion(NavigateCollection(t, "$b", Path.parse("title"),
                                            "$t2"), "$t", "$t2", "$u")
        plan = XmlUnique(union, "$u", "$uq")
        table = run(storage, plan)
        assert len(items_of(table.tuples[0]["$uq"])) == 1

    def test_merge(self, storage):
        left = Combine(books(storage), "$b")
        right = Combine(NavigateUnnest(Source("tags.xml", "$S2"), "$S2",
                                       Path.parse("tags/tag"), "$g"), "$g")
        table = run(storage, Merge(left, right))
        assert len(table) == 1
        assert len(items_of(table.tuples[0]["$b"])) == 3
        assert len(items_of(table.tuples[0]["$g"])) == 3

    def test_rename(self, storage):
        plan = Rename(books(storage), "$b", "$book")
        table = run(storage, plan)
        assert "$book" in table.columns and "$b" not in table.columns
        assert table.schema.order_schema == ("$book",)

    def test_map_nested_loop(self, storage):
        inner = Combine(
            NavigateUnnest(VariableBinding(("$b",)), "$b",
                           Path.parse("title"), "$t"), "$t")
        plan = Map(books(storage), inner)
        table = run(storage, plan)
        assert len(table) == 3
        assert all(len(items_of(t["$t"])) == 1 for t in table)

    def test_variable_binding_outside_map(self, storage):
        with pytest.raises(PlanError):
            run(storage, VariableBinding(("$b",)))


class TestAggregates:
    def test_whole_table_aggregates(self, storage):
        prices = NavigateUnnest(books(storage), "$b",
                                Path.parse("price/text()"), "$p")
        for kind, expected in [("count", "3"), ("sum", "60"),
                               ("avg", "20"), ("min", "10"), ("max", "30")]:
            plan = Aggregate(prices, kind, "$p", "$out")
            table = run(storage, plan)
            assert single_item(table.tuples[0]["$out"]).value == expected

    def test_tuple_function(self, storage):
        titles = NavigateCollection(books(storage), "$b",
                                    Path.parse("title"), "$t")
        plan = TupleFunction(titles, "count", "$t", "$n")
        table = run(storage, plan)
        assert [single_item(t["$n"]).value for t in table] == ["1"] * 3

    def test_unknown_aggregate_rejected(self, storage):
        with pytest.raises(ValueError):
            Aggregate(books(storage), "median", "$b", "$x").prepare()


class TestExpose:
    def test_expose_and_engine_query(self, storage):
        plan = Expose(Combine(Tagger(books(storage),
                                     Pattern("w", (), ("$b",)), "$w"),
                              "$w"), "$w").prepare()
        out = Engine(storage).query(plan)
        assert out.count("<w>") == 3
        assert "Alpha" in out
