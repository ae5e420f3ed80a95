"""Unit tests for the count-aware Deep Union (Chapters 6, 8)."""

import pytest

from repro.apply import (ExtentNode, FusionReport, deep_union, forest_root,
                         fuse_forest)
from repro.apply.extent import WRITER_TALLY
from repro.durability.snapshot import _decode_extent, _encode_extent
from repro.engine import Engine
from repro.xat.grouping import AggState
from repro.xmlmodel.serializer import serialize


def element(node_id, tag, order=None, count=1, refresh=False,
            children=(), text_children=(), attrs=None):
    node = ExtentNode(node_id, order if order is not None else node_id,
                      tag=tag, attributes=dict(attrs or {}), count=count,
                      refresh=refresh)
    for child in children:
        node.insert_child(child)
    for value in text_children:
        node.insert_child(ExtentNode("#text", value, text=value))
    return node


def agg_node(members, kind="sum"):
    state = AggState(kind)
    for member_id, value, count in members:
        state.add(member_id, value, count)
    return ExtentNode("aggid", "x", text=state.value(), agg=state)


class TestInsertMerge:
    def test_empty_extent_takes_delta(self):
        extent, report = deep_union(None, element("ac", "r"))
        assert extent is not None and report.inserted == 1

    def test_negative_into_empty_is_noop(self):
        extent, _ = deep_union(None, element("ac", "r", count=-1))
        assert extent is None

    def test_root_mismatch_rejected(self):
        with pytest.raises(ValueError):
            deep_union(element("ac", "r"), element("bc", "r"))

    def test_new_child_inserted_in_order(self):
        extent = element("rc", "r", children=[
            element("b.b", "i", order="b.b"), element("b.f", "i", order="b.f")])
        delta = element("rc", "r", children=[
            element("b.d", "i", order="b.d")])
        extent, report = deep_union(extent, delta)
        assert [c.node_id for c in extent.children] == ["b.b", "b.d", "b.f"]
        assert report.inserted == 1

    def test_matching_child_counts_add(self):
        extent = element("rc", "r", children=[element("xc", "i", count=1)])
        delta = element("rc", "r", children=[element("xc", "i", count=2)])
        extent, _ = deep_union(extent, delta)
        assert extent.children[0].count == 3

    def test_merge_recurses(self):
        extent = element("rc", "r", children=[
            element("gc", "g", children=[element("b.b", "i")])])
        delta = element("rc", "r", children=[
            element("gc", "g", children=[element("b.d", "i")])])
        extent, _ = deep_union(extent, delta)
        group = extent.children[0]
        assert len(group.children) == 2


class TestDelete:
    def test_count_reaching_zero_disconnects_root(self):
        big = element("gc", "g", children=[
            element("b.b", "i", children=[element("b.b.b", "j")])])
        extent = element("rc", "r", children=[big])
        delta = element("rc", "r", children=[element("gc", "g", count=-1)])
        report = FusionReport()
        extent, report = deep_union(extent, delta, report)
        assert not extent.children
        assert report.removed_roots == 1
        # the whole fragment went at once — no per-descendant deletes
        assert report.removed_nodes == 3

    def test_partial_delete_keeps_node(self):
        extent = element("rc", "r", children=[element("gc", "g", count=2)])
        delta = element("rc", "r", children=[element("gc", "g", count=-1)])
        extent, _ = deep_union(extent, delta)
        assert extent.children[0].count == 1

    def test_delete_recurses_into_survivors(self):
        extent = element("rc", "r", children=[
            element("gc", "g", count=2, children=[
                element("b.b", "i"), element("b.d", "i")])])
        delta = element("rc", "r", children=[
            element("gc", "g", count=-1, children=[
                element("b.b", "i", count=-1)])])
        extent, _ = deep_union(extent, delta)
        group = extent.children[0]
        assert [c.node_id for c in group.children] == ["b.d"]

    def test_delete_of_absent_child_ignored(self):
        extent = element("rc", "r")
        delta = element("rc", "r", children=[element("gc", "g", count=-1)])
        extent, report = deep_union(extent, delta)
        assert not extent.children and report.inserted == 0


class TestRefresh:
    def test_refresh_replaces_text(self):
        extent = element("rc", "r", children=[
            element("pc", "p", text_children=["old"])])
        delta = element("rc", "r", children=[
            element("pc", "p", refresh=True, text_children=["new"])])
        report = FusionReport()
        extent, report = deep_union(extent, delta, report)
        texts = [c.text for c in extent.children[0].children if c.is_text]
        assert texts == ["new"]
        assert report.replaced_text == 1

    def test_refresh_does_not_change_counts(self):
        extent = element("rc", "r", children=[element("pc", "p", count=3)])
        delta = element("rc", "r", children=[
            element("pc", "p", refresh=True)])
        extent, _ = deep_union(extent, delta)
        assert extent.children[0].count == 3

    def test_refresh_updates_attributes(self):
        extent = element("rc", "r", children=[
            element("pc", "p", attrs={"a": "1"})])
        delta = element("rc", "r", children=[
            element("pc", "p", refresh=True, attrs={"a": "2"})])
        extent, _ = deep_union(extent, delta)
        assert extent.children[0].attributes == {"a": "2"}

    def test_refresh_inserts_missing_children(self):
        extent = element("rc", "r", children=[element("pc", "p")])
        delta = element("rc", "r", children=[
            element("pc", "p", refresh=True,
                    children=[element("b.b", "i")])])
        extent, _ = deep_union(extent, delta)
        assert len(extent.children[0].children) == 1
        # inserted nodes get a sane positive count
        assert extent.children[0].children[0].count == 1

    def test_identical_text_not_counted_as_replacement(self):
        extent = element("rc", "r", children=[
            element("pc", "p", text_children=["same"])])
        delta = element("rc", "r", children=[
            element("pc", "p", refresh=True, text_children=["same"])])
        report = FusionReport()
        extent, report = deep_union(extent, delta, report)
        assert report.replaced_text == 0


class TestAggregates:
    def test_sum_merges_incrementally(self):
        extent = element("rc", "r")
        extent.insert_child(agg_node([("m1", 10.0, 1), ("m2", 20.0, 1)]))
        delta = element("rc", "r")
        delta.insert_child(agg_node([("m3", 12.0, 1)]))
        extent, report = deep_union(extent, delta)
        merged = extent.children[0]
        assert merged.text == "42"

    def test_member_delete_updates_value(self):
        extent = element("rc", "r")
        extent.insert_child(agg_node([("m1", 10.0, 1), ("m2", 20.0, 1)]))
        delta = element("rc", "r")
        delta.insert_child(agg_node([("m1", 10.0, -1)]))
        extent, _ = deep_union(extent, delta)
        assert extent.children[0].text == "20"

    def test_min_delete_of_extremum_reevaluates(self):
        extent = element("rc", "r")
        extent.insert_child(agg_node(
            [("m1", 10.0, 1), ("m2", 30.0, 1)], kind="min"))
        delta = element("rc", "r")
        delta.insert_child(agg_node([("m1", 10.0, -1)], kind="min"))
        extent, report = deep_union(extent, delta)
        assert extent.children[0].text == "30"

    def test_refresh_contribution_overwrites_value(self):
        extent = element("rc", "r")
        extent.insert_child(agg_node([("m1", 10.0, 1)]))
        state = AggState("sum")
        state.add("m1", 99.0, 0, refresh=True)
        delta = element("rc", "r")
        delta.insert_child(ExtentNode("aggid", "x", text="", agg=state))
        extent, _ = deep_union(extent, delta)
        assert extent.children[0].text == "99"


class TestForest:
    def test_fuse_forest_wraps(self):
        extent, _ = fuse_forest(None, [element("ac", "a"),
                                       element("bc", "b")])
        assert extent.tag == "#forest"
        assert len(extent.children) == 2

    def test_fuse_forest_merges_same_root(self):
        extent, _ = fuse_forest(None, [element("ac", "a")])
        extent, _ = fuse_forest(extent, [element("ac", "a", count=-1)])
        assert not extent.children

    def test_forest_root_empty(self):
        assert forest_root().children == []


# -- the serialization cache: reads after fusion -----------------------------------------


def assert_read_fresh(extent):
    """The extent writer (cached strings reused) against the independent
    serializer over a fresh ``to_xml`` copy."""
    assert Engine.serialize_extent(extent) == serialize(extent.to_xml())


def cache_extent():
    base = element("bc", "b", children=[
        element("b.b", "k", text_children=["k1"])])
    base.base = True
    summary = element("sc", "s")
    summary.insert_child(agg_node([("m1", 1.0, 1)], kind="count"))
    extent = element("rc", "r", children=[
        element("gc", "g", children=[
            element("i1", "i", attrs={"n": "1"}, text_children=["one"]),
            element("i2", "i", text_children=["two & <2>"])]),
        element("pc", "p", text_children=["old"]),
        base, summary])
    extent.insert_child(agg_node([("m1", 10.0, 1), ("m2", 20.0, 1)]))
    return extent


def under_root(*children):
    return element("rc", "r", children=children)


def _base_replace():
    fragment = element("bc", "b", refresh=True, children=[
        element("b.d", "k", text_children=["k2"]),
        element("b.f", "k", attrs={"q": '"x"'})])
    fragment.base = True
    return under_root(fragment)


def _aggregate_patch():
    delta = under_root(element("sc", "s", refresh=True))
    delta.insert_child(agg_node([("m3", 12.0, 1)]))
    delta.children[0].insert_child(agg_node([("m2", 1.0, 1)],
                                            kind="count"))
    return delta


#: one delta per mutation kind Deep Union applies, in order
CACHE_STEPS = [
    ("subtree insert", lambda: under_root(element("gc", "g", children=[
        element("i3", "i", children=[
            element("i3.j", "j", text_children=["three"])])]))),
    ("removal at a root", lambda: under_root(element("gc", "g", children=[
        element("i1", "i", count=-1)]))),
    ("count-only merge", lambda: under_root(element("gc", "g", count=2))),
    ("refresh text replace", lambda: under_root(element(
        "pc", "p", refresh=True, text_children=["new"]))),
    ("graft", None),
    ("base fragment replaced wholesale", _base_replace),
    ("aggregate patch", _aggregate_patch),
    # same identities twice: inside a subtree entering the extent
    # (_fuse_duplicate_children) and under a matched parent, where the
    # first one may already have been written by the delta log
    ("duplicate identities", lambda: under_root(
        element("hc", "h", children=[
            element("x", "x", text_children=["a"]), element("y", "y"),
            element("x", "x", refresh=True, text_children=["b"])]),
        element("gc", "g", children=[
            element("z", "z", text_children=["c"]),
            element("z", "z", refresh=True, text_children=["d"])]))),
    ("after the graft", lambda: under_root(element("gc", "g", children=[
        element("i2", "i", refresh=True, text_children=["2"])]))),
]


class TestSerializationCache:
    """Every element caches its compact XML and ``_fuse`` empties the
    cache of each node it visits, so a read after any run of fusions —
    read between every step or only now and then, with the delta log
    writing inserted subtrees mid-fusion or not — is what the
    independent serializer writes."""

    @pytest.mark.parametrize("capture", [False, True])
    @pytest.mark.parametrize("reads", [
        range(len(CACHE_STEPS)), (0, 3, 6), (len(CACHE_STEPS) - 1,)])
    def test_reads_match_the_reference(self, capture, reads):
        extent = cache_extent()
        assert_read_fresh(extent)
        for index, (_kind, delta) in enumerate(CACHE_STEPS):
            if delta is None:     # a checkpoint restores the extent
                extent = _decode_extent(_encode_extent(extent))
            else:
                report = FusionReport(delta_log=[] if capture else None)
                extent, _ = deep_union(extent, delta(), report)
            if index in reads:
                assert_read_fresh(extent)
                assert_read_fresh(extent)     # all served from the cache
        assert_read_fresh(extent)
        xml = Engine.serialize_extent(extent)
        assert "<p>new</p>" in xml and "<i>2</i>" in xml
        assert '<b><k>k2</k><k q="&quot;x&quot;"/></b>' in xml
        assert "<h><x>b</x><y/></h>" in xml and "<z>d</z>" in xml
        assert "<s>2</s>" in xml and xml.endswith("42</r>")
        assert 'n="1"' not in xml

    def test_only_the_fused_path_is_rewritten(self):
        """Elements above a leaf keep their string; a leaf keeps none
        (its parent's string holds it) and is rewritten with its parent."""
        extent = cache_extent()
        Engine.serialize_extent(extent)
        group = extent.find_child(("g", "gc"))
        text = extent.find_child(("p", "pc"))
        cached = group.xml
        assert cached is not None and extent.xml is not None
        assert text.xml is None
        assert all(leaf.xml is None for leaf in group.children)
        deep_union(extent, under_root(element(
            "pc", "p", refresh=True, text_children=["new"])))
        assert extent.xml is None and text.xml is None
        assert group.xml is cached
        built = WRITER_TALLY.built
        assert_read_fresh(extent)
        # <r> and its two leaves, <p> and the aggregate's <s>; the cached
        # <g> and <b> are joined as they are
        assert WRITER_TALLY.built - built == 3
        assert group.xml is cached and text.xml is None
