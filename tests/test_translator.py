"""Tests for XQuery -> XAT translation (Sections 2.3-2.4)."""

import pytest

from repro import StorageManager, XmlDocument, translate_query
from repro.engine import Engine
from repro.translate import TranslationError
from repro.xat import (Distinct, GroupBy, Join, LeftOuterJoin, Merge,
                       NavigateUnnest, OrderBy, Select, Source, Tagger)


def ops_of(plan, kind):
    return [op for op in plan.iter_operators() if isinstance(op, kind)]


def bib_storage():
    sm = StorageManager()
    sm.register(XmlDocument.from_string("bib.xml", (
        "<bib><book year='1994'><title>A</title><price>10</price></book>"
        "<book year='2000'><title>B</title><price>20</price></book></bib>")))
    return sm


class TestPlanShapes:
    def test_simple_for_becomes_source_navigate(self):
        plan = translate_query(
            '<r>{for $b in doc("b.xml")/bib/book return $b}</r>')
        assert len(ops_of(plan, Source)) == 1
        assert len(ops_of(plan, NavigateUnnest)) == 1

    def test_where_local_predicate_becomes_select(self):
        plan = translate_query(
            '<r>{for $b in doc("b.xml")/bib/book '
            'where $b/@year = "1994" return $b}</r>')
        assert len(ops_of(plan, Select)) == 1

    def test_two_sources_with_link_become_join(self):
        plan = translate_query(
            '<r>{for $a in doc("x.xml")/x/a, $b in doc("y.xml")/y/b '
            'where $a/k = $b/k return $a}</r>')
        assert len(ops_of(plan, Join)) == 1

    def test_correlated_inner_flwor_becomes_loj_groupby(self):
        plan = translate_query(
            '<r>{for $y in distinct-values(doc("b.xml")/bib/book/@year) '
            'return <g>{for $b in doc("b.xml")/bib/book '
            'where $y = $b/@year return $b/title}</g>}</r>')
        assert len(ops_of(plan, LeftOuterJoin)) == 1
        assert len(ops_of(plan, GroupBy)) == 1
        assert len(ops_of(plan, Distinct)) == 1

    def test_order_by_operator(self):
        plan = translate_query(
            '<r>{for $b in doc("b.xml")/bib/book order by $b/title '
            'return $b}</r>')
        assert len(ops_of(plan, OrderBy)) == 1

    def test_independent_subqueries_merge(self):
        plan = translate_query(
            '<r>{<a>{for $x in doc("x.xml")/x/i return $x}</a>}'
            '{<b>{for $y in doc("y.xml")/y/j return $y}</b>}</r>')
        assert len(ops_of(plan, Merge)) == 1

    def test_step_predicate_lifted_to_select(self):
        plan = translate_query(
            '<r>{for $b in doc("b.xml")/bib/book[title = "A"] '
            'return $b}</r>')
        assert len(ops_of(plan, Select)) == 1

    def test_taggers_per_constructor(self):
        plan = translate_query(
            '<r>{for $b in doc("b.xml")/bib/book '
            'return <x><y>{$b/title}</y></x>}</r>')
        assert len(ops_of(plan, Tagger)) == 3  # y, x, r


class TestTranslatedExecution:
    def test_predicate_path_execution(self):
        sm = bib_storage()
        out = Engine(sm).query(translate_query(
            '<r>{for $b in doc("bib.xml")/bib/book[title = "A"] '
            'return $b/price}</r>'))
        assert out == "<r><price>10</price></r>"

    def test_where_numeric_comparison(self):
        sm = bib_storage()
        out = Engine(sm).query(translate_query(
            '<r>{for $b in doc("bib.xml")/bib/book '
            'where $b/price > "15" return $b/title}</r>'))
        assert out == "<r><title>B</title></r>"

    def test_empty_result(self):
        sm = bib_storage()
        out = Engine(sm).query(translate_query(
            '<r>{for $b in doc("bib.xml")/bib/book '
            'where $b/@year = "1900" return $b}</r>'))
        assert out == "<r/>"

    def test_aggregate_content(self):
        sm = bib_storage()
        out = Engine(sm).query(translate_query(
            '<r>{count(doc("bib.xml")/bib/book)}</r>'))
        assert out == "<r>2</r>"

    def test_sequence_return(self):
        sm = bib_storage()
        out = Engine(sm).query(translate_query(
            '<r>{for $b in doc("bib.xml")/bib/book '
            'return <i>{$b/title} {$b/price}</i>}</r>'))
        assert out.count("<i>") == 2
        assert out.index("<title>A</title>") < out.index("<price>10</price>")

    def test_descendant_axis_execution(self):
        sm = bib_storage()
        out = Engine(sm).query(translate_query(
            '<r>{for $t in doc("bib.xml")/bib//title return $t}</r>'))
        assert out.count("<title>") == 2

    def test_group_shell_for_unmatched_outer(self):
        """A distinct value with no joining partner keeps an empty shell
        (the Left Outer Join decorrelation)."""
        sm = StorageManager()
        sm.register(XmlDocument.from_string("b.xml", (
            "<bib><book year='1994'/><book year='2000'/></bib>")))
        sm.register(XmlDocument.from_string("p.xml", (
            "<ps><p year='1994'><v>x</v></p></ps>")))
        out = Engine(sm).query(translate_query(
            '<r>{for $y in distinct-values(doc("b.xml")/bib/book/@year) '
            'return <g Y="{$y}">{for $p in doc("p.xml")/ps/p '
            'where $y = $p/@year return $p/v}</g>}</r>'))
        assert '<g Y="2000"/>' in out
        assert '<g Y="1994"><v>x</v></g>' in out


class TestUnsupported:
    @pytest.mark.parametrize("query", [
        # for-binding from an outer variable inside a correlated FLWOR
        '<r>{for $a in doc("x.xml")/x/a return <g>{for $t in $a/t '
        'where $t = $t return $t}</g>}</r>',
        # correlated FLWOR without a linking condition
        '<r>{for $a in doc("x.xml")/x/a return '
        '<g>{for $b in doc("y.xml")/y/b return $b}</g>}</r>',
    ])
    def test_rejected_shapes(self, query):
        with pytest.raises(TranslationError):
            translate_query(query)

    def test_an_inner_for_over_an_outer_variable_is_refused(self):
        """No plan correlates an inner for with its outer binding (there
        is no ``Map``): the translator asks for path content instead."""
        with pytest.raises(TranslationError, match="outer variable"):
            translate_query('<r>{for $a in doc("x.xml")/x/a return '
                            '<g>{for $t in $a/t return $t}</g>}</r>')

    def test_unbound_variable(self):
        with pytest.raises(TranslationError):
            translate_query('<r>{for $a in doc("x.xml")/x/a '
                            'where $zz = "1" return $a}</r>')
