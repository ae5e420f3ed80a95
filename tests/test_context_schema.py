"""Tests for Context Schema rules (Table 4.1) and semantic identifiers
(Chapter 4) — checked against the Fig 4.2 annotations."""

from repro import StorageManager, XmlDocument
from repro.engine import Engine
from repro.xat import (ColumnRef, Combine, Comparison, Distinct, GroupBy,
                       LeftOuterJoin, NavigateCollection, NavigateUnnest,
                       OrderBy, Path, Pattern, Source, Tagger, XmlUnion,
                       items_of, single_item)
from repro.xat.base import ExecutionContext
from repro.xat.semantic_ids import (constructed_id, lineage_terminals,
                                    resolve_lineage, resolve_order)

BIB = ("<bib><book year='1994'><title>T1</title></book>"
       "<book year='2000'><title>T2</title></book></bib>")
PRICES = ("<prices><entry><price>39</price><b-title>T2</b-title></entry>"
          "<entry><price>65</price><b-title>T1</b-title></entry></prices>")


def storage():
    sm = StorageManager()
    sm.register(XmlDocument.from_string("bib.xml", BIB))
    sm.register(XmlDocument.from_string("prices.xml", PRICES))
    return sm


def fig42_plan():
    """The running example plan, built by hand like Fig 4.2."""
    s1 = Source("bib.xml", "$S1")
    y = NavigateUnnest(s1, "$S1", Path.parse("bib/book/@year"), "$y")
    dy = Distinct(y, "$y")
    s2 = Source("bib.xml", "$S2")
    b = NavigateUnnest(s2, "$S2", Path.parse("bib/book"), "$b")
    col1 = NavigateUnnest(b, "$b", Path.parse("@year"), "$col1")
    loj = LeftOuterJoin(dy, col1, Comparison(ColumnRef("$y"), "=",
                                             ColumnRef("$col1")))
    col2 = NavigateCollection(loj, "$b", Path.parse("title"), "$col2")
    return col2


class TestTable41Rules:
    def test_source_self_context(self):
        op = Source("bib.xml", "$S").prepare()
        spec = op.schema.spec("$S")
        assert spec.order == () and spec.lineage == ()

    def test_unnest_self_lineage(self):
        plan = fig42_plan().prepare()
        # $b: self lineage, order from itself
        b_spec = plan.schema.spec("$b")
        assert b_spec.lineage == ()

    def test_value_unnest_lineage_follows_entry(self):
        plan = fig42_plan().prepare()
        col1 = plan.schema.spec("$col1")
        assert col1.lineage == (("$b", None),)

    def test_collection_lineage_follows_entry(self):
        plan = fig42_plan().prepare()
        col2 = plan.schema.spec("$col2")
        assert col2.lineage == (("$b", None),)

    def test_distinct_destroys_order(self):
        y = NavigateUnnest(Source("bib.xml", "$S1"), "$S1",
                           Path.parse("bib/book/@year"), "$y")
        op = Distinct(y, "$y").prepare()
        spec = op.schema.spec("$y")
        assert spec.order is None and spec.lineage == ()

    def test_combine_all_lineage(self):
        b = NavigateUnnest(Source("bib.xml", "$S"), "$S",
                           Path.parse("bib/book"), "$b")
        op = Combine(b, "$b").prepare()
        assert op.schema.spec("$b").is_all_lineage

    def test_union_lineage_with_column_ids(self):
        b = NavigateUnnest(Source("bib.xml", "$S"), "$S",
                           Path.parse("bib/book"), "$b")
        t = NavigateCollection(b, "$b", Path.parse("title"), "$t")
        t2 = NavigateCollection(t, "$b", Path.parse("title"), "$t2")
        op = XmlUnion(t2, "$t", "$t2", "$u").prepare()
        assert op.schema.spec("$u").lineage == (("$t", "a"), ("$t2", "b"))

    def test_groupby_lineage_composition(self):
        y = NavigateUnnest(
            NavigateUnnest(Source("bib.xml", "$S"), "$S",
                           Path.parse("bib/book"), "$b"),
            "$b", Path.parse("@year"), "$y")
        op = GroupBy(y, ("$y",), combine_col="$b").prepare()
        assert op.schema.spec("$b").lineage == (("$y", None),)
        assert op.schema.spec("$y").lineage == ()

    def test_ecc_columns(self):
        plan = fig42_plan().prepare()
        # self-lineage columns identify tuples (Theorem 4.3.1)
        assert "$b" in plan.schema.ecc
        assert "$col1" not in plan.schema.ecc


class TestSemanticIds:
    def test_constructed_id_suffix(self):
        assert constructed_id(["1994"]).value == "1994c"
        assert constructed_id(["b.b", "e.f"]).value == "b.b..e.fc"
        assert constructed_id([]).value == "*c"

    def test_value_based_ids_reproducible(self):
        """Fig 4.2: yGroup gets id <year>c regardless of which run built it."""
        sm = storage()
        y = NavigateUnnest(Source("bib.xml", "$S1"), "$S1",
                           Path.parse("bib/book/@year"), "$y")
        dy = Distinct(y, "$y")
        tag = Tagger(dy, Pattern("yGroup", (("Y", ColumnRef("$y")),),
                                 ("$y",)), "$g").prepare()
        table = ExecutionContext(sm).evaluate(tag)
        ids = sorted(single_item(t["$g"]).key.value for t in table)
        assert ids == ["1994c", "2000c"]

    def test_node_based_ids_encode_join_lineage(self):
        """Fig 4.2: entry ids compose the book and entry FlexKeys."""
        sm = storage()
        b = NavigateUnnest(Source("bib.xml", "$S2"), "$S2",
                           Path.parse("bib/book"), "$b")
        bt = NavigateCollection(b, "$b", Path.parse("title"), "$t")
        e = NavigateUnnest(Source("prices.xml", "$S3"), "$S3",
                           Path.parse("prices/entry"), "$e")
        et = NavigateCollection(e, "$e", Path.parse("b-title"), "$bt")
        from repro.xat import Join
        join = Join(bt, et, Comparison(ColumnRef("$t"), "=",
                                       ColumnRef("$bt")))
        price = NavigateCollection(join, "$e", Path.parse("price"), "$p")
        union = XmlUnion(price, "$t", "$p", "$u")
        tag = Tagger(union, Pattern("entry", (), ("$u",)), "$x").prepare()
        table = ExecutionContext(sm).evaluate(tag)
        ids = sorted(single_item(t["$x"]).key.value for t in table)
        # book keys b.b/b.d joined with entry keys (prices doc root 'd')
        assert all(".." in i and i.endswith("c") for i in ids)
        assert len(set(ids)) == 2

    def test_stacked_constructor_keeps_body(self):
        """books over a group and yGroup over books share the id body."""
        sm = storage()
        y = NavigateUnnest(
            NavigateUnnest(Source("bib.xml", "$S"), "$S",
                           Path.parse("bib/book"), "$b"),
            "$b", Path.parse("@year"), "$y")
        grouped = GroupBy(y, ("$y",), combine_col="$b")
        books = Tagger(grouped, Pattern("books", (), ("$b",)), "$k")
        ygroup = Tagger(books, Pattern("yGroup", (), ("$k",)), "$g")
        ygroup.prepare()
        table = ExecutionContext(sm).evaluate(ygroup)
        for tup in table:
            inner = single_item(tup["$k"]).key.value
            outer = single_item(tup["$g"]).key.value
            assert inner == outer  # same body, locally unique by tag

    def test_lineage_tokens_all(self):
        sm = storage()
        b = NavigateUnnest(Source("bib.xml", "$S"), "$S",
                           Path.parse("bib/book"), "$b")
        combined = Combine(b, "$b").prepare()
        table = ExecutionContext(sm).evaluate(combined)
        terminals = lineage_terminals(combined.schema, "$b")
        assert resolve_lineage(terminals, table.tuples[0]) == ["*"]

    def test_order_tokens_after_orderby(self):
        sm = storage()
        y = NavigateUnnest(Source("bib.xml", "$S"), "$S",
                           Path.parse("bib/book/@year"), "$y")
        ordered = OrderBy(Distinct(y, "$y"), ("$y",)).prepare()
        # Sort columns themselves carry order () — derived from the item
        # (Fig 4.2, operator 17); the item's order token is the sortable
        # zero-padded value.
        assert ordered.schema.spec("$y").order == ()
        table = ExecutionContext(sm).evaluate(ordered)
        assert resolve_order(ordered.schema.spec("$y").order,
                             table.tuples[0]) == []
        tokens = [single_item(t["$y"]).order_token() for t in table]
        assert tokens == sorted(tokens)
