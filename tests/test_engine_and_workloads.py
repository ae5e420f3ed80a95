"""Engine-level behaviour, workload generators, the figure benches' cost
breakdown, misc coverage."""

import importlib.util
import os

import pytest

from repro import (Engine, StorageManager, UpdateRequest, ViewRegistry,
                   XmlDocument, translate_query)
from repro.workloads import bib as bibload
from repro.workloads import xmark
from repro.xquery.updates import apply_xquery_update, parse_update

from .helpers import MaintainedView

BENCH_COMMON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "bench_common.py")


def _bench_common():
    """``benchmarks/bench_common.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("bench_common",
                                                  BENCH_COMMON)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestEngine:
    def _storage(self):
        sm = StorageManager()
        sm.register(XmlDocument.from_string("bib.xml", bibload.BIB_XML))
        sm.register(XmlDocument.from_string("prices.xml",
                                            bibload.PRICES_XML))
        return sm

    def test_unprepared_plan_rejected(self):
        from repro.xat import Source

        with pytest.raises(RuntimeError):
            Engine(self._storage()).run(Source("bib.xml", "$S"))

    def test_empty_query_result_serializes_empty(self):
        sm = self._storage()
        out = Engine(sm).query(translate_query(
            '<r>{for $b in doc("bib.xml")/bib/nothing return $b}</r>'))
        assert out == "<r/>"

    def test_serialize_extent_matches_the_xmlnode_serializer(self):
        """The direct ExtentNode writer is byte-identical to serialising
        the ``to_xml()`` copy: escaping, ``<e/>``, text-only and mixed
        content, attributes, forest and single-root extents."""
        from repro.apply import ExtentNode, forest_root
        from repro.xmlmodel import serialize

        def node(node_id, tag=None, text=None, attrs=None, children=()):
            made = ExtentNode(node_id, node_id, tag=tag, text=text,
                              attributes=attrs)
            for child in children:
                made.insert_child(child)
            return made

        tricky = node("a", "doc", attrs={"q": 'say "hi" & <go>', "n": ""},
                      children=[
            node("b", "empty"),
            node("c", "empty-attr", attrs={"k": "v>w"}),
            node("d", "only-text", children=[
                node("d1", text="1 < 2 & 3 > 2"), node("d2", text='"q"')]),
            node("e", "mixed", children=[
                node("e1", text="before "), node("e2", "i"),
                node("e3", text=None)]),
        ])
        forest = forest_root()
        forest.insert_child(tricky)
        forest.insert_child(node("z", "second"))
        assert Engine.serialize_extent(tricky) == serialize(tricky.to_xml())
        assert Engine.serialize_extent(forest) == "".join(
            serialize(child.to_xml()) for child in forest.children)
        assert Engine.serialize_extent(forest_root()) == ""
        assert Engine.serialize_extent(None) == ""
        sm = self._storage()
        for query in (bibload.YEAR_GROUP_QUERY,
                      '<r>{for $b in doc("bib.xml")/bib/book return $b}</r>'):
            extent, _report = Engine(sm).materialize(translate_query(query))
            assert Engine.serialize_extent(extent) == "".join(
                serialize(child.to_xml()) for child in extent.children)

    def test_timed_calls_times_every_breakdown_label(self):
        """The figure benches' cost breakdown: every label is timed through
        the recursive path (``Engine.query``) and through the plan VM (a
        maintained view's materialization and one Δ batch), and a target
        the source no longer has raises."""
        bench = _bench_common()
        sm = self._storage()
        with bench.timed_calls() as totals:
            Engine(sm).query(translate_query(bibload.YEAR_GROUP_QUERY))
        assert sorted(totals) == ["overriding_order", "semantic_id"]
        assert all(seconds > 0 for seconds in totals.values()), totals
        view = MaintainedView(sm, bibload.YEAR_GROUP_QUERY)
        last_book = sm.children(sm.root_key("bib.xml"), "book")[-1]
        with bench.timed_calls() as materialize:
            view.registry.materialize(view.name)
        with bench.timed_calls() as batch:
            view.apply_updates([UpdateRequest.insert(
                "bib.xml", last_book, bibload.NEW_BOOK_FRAGMENT, "after")])
        assert view.to_xml() == view.recompute_xml()
        for totals in (materialize, batch):
            assert all(seconds > 0 for seconds in totals.values()), totals
        view.close()
        with pytest.raises(AttributeError):
            with bench.timed_calls({"gone": [("repro.engine.executor",
                                              "no_such_function")]}):
                pass
        from repro.xat import construction
        assert not hasattr(construction._prefixed, "__wrapped__")


class TestWorkloadGenerators:
    def test_generate_bib_deterministic(self):
        assert bibload.generate_bib(20) == bibload.generate_bib(20)

    def test_generate_bib_scales(self):
        small = bibload.generate_bib(5)
        large = bibload.generate_bib(50)
        assert large.count("<book") == 50 > small.count("<book")

    def test_generate_prices_fraction(self):
        none = bibload.generate_prices(30, priced_fraction=0.0)
        full = bibload.generate_prices(30, priced_fraction=1.0)
        assert none.count("<entry>") == 0
        assert full.count("<entry>") == 30

    def test_site_structure(self):
        sm = StorageManager()
        xmark.register_site(sm, 15)
        root = sm.root_key("site.xml")
        people = sm.children(root, "people")
        assert len(people) == 1
        assert len(sm.children(people[0], "person")) == 15
        assert sm.children(root, "closed_auctions")
        assert sm.children(root, "open_auctions")

    def test_site_deterministic(self):
        assert xmark.generate_site(10) == xmark.generate_site(10)
        assert xmark.generate_site(10, seed=1) != xmark.generate_site(
            10, seed=2)

    def test_site_parses_and_queries(self):
        sm = StorageManager()
        xmark.register_site(sm, 10)
        out = Engine(sm).query(translate_query(xmark.ORDER_QUERY_2))
        assert out.startswith("<result>")


class TestUpdateLanguageEdges:
    def _storage(self):
        sm = StorageManager()
        sm.register(XmlDocument.from_string("bib.xml", bibload.BIB_XML))
        return sm

    def test_where_filters_to_nothing(self):
        sm = self._storage()
        requests = apply_xquery_update(
            'for $b in document("bib.xml")/bib/book '
            'where $b/title = "No Such Book" update $b delete $b', sm)
        assert requests == []

    def test_positional_out_of_range(self):
        sm = self._storage()
        requests = apply_xquery_update(
            'for $b in document("bib.xml")/bib/book[9] '
            'update $b delete $b', sm)
        assert requests == []

    def test_insert_into(self):
        sm = self._storage()
        requests = apply_xquery_update(
            'for $b in document("bib.xml")/bib/book[1] update $b '
            'insert <note>hi</note> into $b', sm)
        assert requests[0].position == "into"

    def test_numeric_where(self):
        sm = self._storage()
        requests = apply_xquery_update(
            'for $b in document("bib.xml")/bib/book '
            'where $b/@year > 1995 update $b delete $b', sm)
        assert len(requests) == 1

    def test_replace_whole_element_text(self):
        sm = self._storage()
        requests = apply_xquery_update(
            'for $b in document("bib.xml")/bib/book[1] update $b '
            'replace $b/title with "Renamed"', sm)
        assert requests[0].kind == "modify"

    def test_mismatched_update_variable(self):
        from repro.xquery.parser import XQueryParseError

        with pytest.raises(XQueryParseError):
            parse_update('for $a in document("d")/x update $b delete $b')

    def test_delete_by_relative_path(self):
        sm = self._storage()
        requests = apply_xquery_update(
            'for $b in document("bib.xml")/bib/book[1] update $b '
            'delete $b/author', sm)
        assert len(requests) == 1
        assert sm.node(requests[0].target).tag == "author"


class TestViewMisc:
    def test_view_accepts_prepared_plan(self):
        sm = StorageManager()
        sm.register(XmlDocument.from_string("bib.xml", bibload.BIB_XML))
        sm.register(XmlDocument.from_string("prices.xml",
                                            bibload.PRICES_XML))
        plan = translate_query(bibload.YEAR_GROUP_QUERY)
        view = MaintainedView(sm, plan)
        assert view.to_xml() == view.recompute_xml()

    def test_extent_size(self):
        sm = StorageManager()
        sm.register(XmlDocument.from_string("bib.xml", bibload.BIB_XML))
        sm.register(XmlDocument.from_string("prices.xml",
                                            bibload.PRICES_XML))
        with ViewRegistry(sm) as registry:
            pipeline = registry.register("v", bibload.YEAR_GROUP_QUERY,
                                         materialize=False).pipeline
            assert pipeline.extent_size() == 0
            registry.materialize("v")
            assert pipeline.extent_size() > 10

    def test_empty_update_list(self):
        sm = StorageManager()
        sm.register(XmlDocument.from_string("bib.xml", bibload.BIB_XML))
        sm.register(XmlDocument.from_string("prices.xml",
                                            bibload.PRICES_XML))
        view = MaintainedView(sm, bibload.YEAR_GROUP_QUERY)
        report = view.apply_updates([])
        assert report.updates == 0 and report.routed == 0
        own = report.views[view.name]
        assert own.batches == 0
        assert view.registered.stats.routed_trees == 0
