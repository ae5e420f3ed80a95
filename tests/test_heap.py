"""Shared containers in the document and view trees.

Attribute maps are replaced, never written in place, so every
attribute-less node shares one read-only empty map, a copy shares the
map it copies, and a text node holds the empty tuple as its children.
Tag and attribute names are one string each (parsed, inserted or
restored), equal values of one parse are one string, only elements
above a leaf cache their XML, and only nodes wider than ``INDEX_WIDTH``
keep a child index.  These are identity checks and counts: they pin the
layout, not a byte count.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys

import pytest

from repro import StorageManager, UpdateRequest, ViewRegistry
from repro.api import Database
from repro.apply.deep_union import deep_union
from repro.apply.extent import (FOREST_TAG, INDEX_WIDTH, WRITER_TALLY,
                                ExtentNode, forest_root)
from repro.durability import manager as durability_manager
from repro.durability.checkpoint import CheckpointStore
from repro.durability.files import RealFileSystem
from repro.multiview import RegisteredView
from repro.workloads import xmark
from repro.xmlmodel import XmlNode, parse_document, parse_fragment
from repro.xmlmodel.node import EMPTY_ATTRIBUTES

from .helpers import (ALL_MUTATORS, NO_CHILDREN, assert_extents_canonical,
                      assert_path_lists_canonical, extent_nodes, heap_shape,
                      is_leaf, pin, random_batch)

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))

#: the eight views of the ``multiview_durable_mixed`` benchmark workload
VIEWS = {
    "profiles": xmark.ORDER_QUERY_1, "sales": xmark.ORDER_QUERY_3,
    "board": xmark.ORDER_QUERY_4, "join": xmark.JOIN_QUERY,
    "sel": xmark.SELECTION_QUERY,
    "ages": '<result>{for $a in doc("site.xml")/site/people/person/'
            'profile/age return <a>{$a}</a>}</result>',
    "dates": '<result>{for $d in doc("site.xml")/site/closed_auctions/'
             'closed_auction/date return <d>{$d}</d>}</result>',
    "initials": '<result>{for $i in doc("site.xml")/site/open_auctions/'
                'open_auction/initial return <i>{$i}</i>}</result>',
}


def site_registry(persons: int = 30) -> ViewRegistry:
    storage = StorageManager()
    xmark.register_site(storage, persons, seed=1)
    registry = ViewRegistry(storage)
    for name, query in VIEWS.items():
        pin(registry.register(name, query))
    return registry


def profile_copy(registry: ViewRegistry, key) -> ExtentNode:
    """The ``profiles`` extent's copy of the profile at ``key``."""
    [result] = registry.view("profiles").pipeline.extent.children
    return result.find_child(("profile", key.value))


def test_load_and_views_share_the_empty_containers():
    registry = site_registry()
    assert_path_lists_canonical(registry.storage)   # the document side
    assert_extents_canonical(registry)
    nodes = list(registry.storage.document("site.xml").root.iter_subtree())
    assert any(node.is_text for node in nodes)
    assert any(node.attributes is EMPTY_ATTRIBUTES for node in nodes)
    assert any(node.attributes is not EMPTY_ATTRIBUTES for node in nodes)
    registry.close()


def test_parsed_and_built_nodes_share_the_empty_containers():
    root = parse_document('<a x="1"><b>text</b><![CDATA[raw]]><c/></a>')
    b, raw, c = root.children
    assert root.attributes == {"x": "1"}
    assert b.attributes is c.attributes is EMPTY_ATTRIBUTES
    assert b.children[0].children is NO_CHILDREN
    assert raw.children is NO_CHILDREN
    assert XmlNode.text("t").children is NO_CHILDREN
    assert XmlNode.element("e").attributes is EMPTY_ATTRIBUTES
    clone = root.deep_copy()
    assert clone.attributes is root.attributes
    assert ExtentNode("#text", "a", text="t").children is NO_CHILDREN


def test_writing_into_the_shared_empty_map_raises():
    node = XmlNode.element("e")
    with pytest.raises(TypeError):
        node.attributes["x"] = "1"
    with pytest.raises(TypeError):
        EMPTY_ATTRIBUTES["x"] = "1"
    with pytest.raises(AttributeError):
        XmlNode.text("t").children.append(XmlNode.text("u"))
    assert len(EMPTY_ATTRIBUTES) == 0


def test_element_copies_the_dict_it_is_handed():
    attributes = {"a": "1"}
    node = XmlNode.element("e", attributes)
    attributes["a"] = "2"
    assert node.attributes == {"a": "1"}


def test_replace_attribute_leaves_a_copy_until_propagation():
    """A view's copy shares its source element's map; a write replaces
    the source's map, so the copy is unchanged until propagation
    re-derives it — and a refresh takes the new map, not one a later
    write could change."""
    registry = site_registry()
    storage = registry.storage
    profile = next(key for key in storage.find_by_path(
        "site.xml", [("child", "site"), ("child", "people"),
                     ("child", "person"), ("child", "profile")])
        if storage.attribute(key, "income") is not None)
    copy = profile_copy(registry, profile)
    assert copy.attributes is storage.node(profile).attributes
    before = registry.to_xml("profiles")
    storage.replace_attribute(profile, "income", "1")
    assert storage.attribute(profile, "income") == "1"
    assert registry.to_xml("profiles") == before
    assert registry.recompute_xml("profiles") != before
    # a text modify inside the profile refreshes the whole base copy
    [age] = storage.children(profile, "age")
    registry.apply_updates([UpdateRequest.modify("site.xml", age, "33")])
    refreshed = registry.to_xml("profiles")
    assert refreshed == registry.recompute_xml("profiles")
    assert 'income="1"' in refreshed
    assert registry.view("profiles").stats.recomputes == 0
    storage.replace_attribute(profile, "income", "2")
    assert registry.to_xml("profiles") == refreshed
    assert profile_copy(registry, profile).attributes == {"income": "1"}
    registry.close()


def test_deep_union_refresh_keeps_the_incoming_map():
    extent = forest_root()
    extent.insert_child(ExtentNode("1", "a", tag="e", attributes={"x": "0"},
                                   base=True))
    source = XmlNode.element("e", {"x": "1"})
    delta = forest_root()
    delta.refresh = True
    delta.insert_child(ExtentNode("1", "a", tag="e",
                                  attributes=source.attributes,
                                  refresh=True, base=True))
    deep_union(extent, delta)
    [node] = extent.children
    assert node.attributes == {"x": "1"}
    source.attributes = {**source.attributes, "x": "2"}   # a later write
    assert node.attributes == {"x": "1"}


def test_checkpoint_restores_views_and_shared_maps(tmp_path):
    """A checkpoint restores byte for byte, with every container
    invariant and a base copy still sharing its source element's map."""
    db = Database(durable_path=tmp_path, fsync="always")
    db.load("site.xml", xmark.generate_site(20, seed=1))
    for name in ("profiles", "join", "ages"):
        db.create_view(name, VIEWS[name])
    db.execute('for $p in document("site.xml")/site/people/person[2] '
               f'update $p insert {xmark.new_person_xml(7)} after $p')
    lsn = db.checkpoint()
    expected = {name: db.read(name) for name in db.views()}
    del db                                      # crash after the cut
    db = Database(durable_path=tmp_path, fsync="always")
    assert db.recovery.checkpoint_lsn == lsn
    assert db.recovery.wal_records_replayed == 0
    assert {name: db.read(name) for name in db.views()} == expected
    assert_path_lists_canonical(db.storage)
    assert_extents_canonical(db.registry)
    profile = next(key for key in db.storage.find_by_path(
        "site.xml", [("child", "site"), ("child", "people"),
                     ("child", "person"), ("child", "profile")])
        if db.storage.attribute(key, "income") is not None)
    assert profile_copy(db.registry, profile).attributes \
        is db.storage.node(profile).attributes
    db.close()


def test_format3_fixture_restores_with_shared_containers(tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(RegisteredView, "over_work_bound",
                        lambda self: False)
    fixture = os.path.join(TESTS_DIR, "fixtures", "format3-path-lists")
    shutil.copy(os.path.join(fixture, "checkpoint-00000000000000000013.ckpt"),
                tmp_path)
    with open(os.path.join(fixture, "views.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    db = Database(durable_path=tmp_path)
    assert db.recovery.checkpoint_lsn == 13
    assert {name: db.read(name) for name in db.views()} == expected
    assert_path_lists_canonical(db.storage)
    assert_extents_canonical(db.registry)
    db.close()


# -- part 2: one string per name, caches above leaves, wide-node indexes ---------------


def fresh(name: str) -> str:
    """An equal string that is another object (names of more than one
    character; CPython keeps one object per one-character string)."""
    return name.encode().decode()


def assert_names_shared(registry: ViewRegistry) -> dict:
    shape = heap_shape(registry)
    assert shape["names"] == shape["name_objects"], shape
    return shape


def test_parsed_and_inserted_names_are_one_object_each():
    registry = site_registry()
    shape = assert_names_shared(registry)
    assert shape["names"] > 20
    storage = registry.storage
    [person] = storage.find_by_path("site.xml", [
        ("child", "site"), ("child", "people"), ("child", "person")])[:1]
    registry.apply_updates([UpdateRequest.insert(
        "site.xml", person, xmark.new_person_xml(900, city="Oslo"),
        "after")])
    assert assert_names_shared(registry)["names"] == shape["names"]
    [fragment] = parse_fragment(fresh('<person id="p"><name>n</name>'
                                      '</person>'))
    assert fragment.tag is sys.intern("person")
    assert next(iter(fragment.attributes)) is sys.intern("id")
    assert XmlNode.element(fresh("person"), {fresh("id"): "1"}).tag \
        is fragment.tag
    registry.close()


def test_equal_values_are_one_object_within_a_parse():
    root = parse_document('<a k="v1"><b>v1</b><c>v1</c><d><![CDATA[v1]]>'
                          '</d><e k="v2">v2</e></a>')
    b, c, d, e = root.children
    assert root.attributes["k"] is b.children[0].value \
        is c.children[0].value is d.children[0].value
    assert e.attributes["k"] is e.children[0].value
    # a second parse pools on its own: its values are other objects
    again = parse_document(fresh("<a><b>xy</b></a>"))
    other = parse_document(fresh("<a><b>xy</b></a>"))
    assert again.children[0].children[0].value \
        is not other.children[0].children[0].value
    # the generated site: one object per distinct text value
    site = parse_document(xmark.generate_site(50, seed=1))
    values = [node.value for node in site.iter_subtree() if node.is_text]
    assert len({id(value) for value in values}) == len(set(values)) \
        < len(values)


def test_reads_cache_above_leaves_and_rewrite_the_changed_path():
    registry = site_registry()
    for name in VIEWS:
        assert registry.to_xml(name) == registry.recompute_xml(name)
    shape = heap_shape(registry)
    assert shape["cached"] > 0 and shape["cached_leaves"] == 0, shape
    for name in VIEWS:   # every element above a leaf is cached
        for node in extent_nodes(registry.view(name).pipeline.extent):
            if node.tag not in (None, FOREST_TAG):
                assert (node.xml is None) == is_leaf(node), node
    [result] = registry.view("ages").pipeline.extent.children
    first, second = result.children[:2]
    kept = second.xml
    [age] = first.children
    registry.apply_updates([UpdateRequest.modify(
        "site.xml", registry.storage.find_by_path("site.xml", [
            ("child", "site"), ("child", "people"), ("child", "person"),
            ("child", "profile"), ("child", "age")])[0], "99")])
    built = WRITER_TALLY.built
    xml = registry.to_xml("ages")
    # <result>, the changed <a> and its <age> leaf; the siblings' strings
    # are joined as they are
    assert WRITER_TALLY.built - built == 3
    assert xml == registry.recompute_xml("ages")
    assert "<age>99</age>" in first.xml and age.xml is None
    assert second.xml is kept
    registry.close()


def test_only_wide_nodes_keep_a_child_index():
    registry = site_registry()
    rng = random.Random(3)
    for step in range(20):
        registry.apply_updates(
            random_batch(rng, registry.storage, step, ALL_MUTATORS))
    for name in VIEWS:
        assert registry.to_xml(name) == registry.recompute_xml(name)
    assert_extents_canonical(registry)
    shape = heap_shape(registry)
    assert shape["indexed"] > 0 and shape["narrow_indexed"] == 0, shape
    registry.close()


def test_a_narrow_node_drops_its_index():
    node = ExtentNode("r", "", tag="r")
    children = [ExtentNode(f"c{i}", f"{i:02d}", tag="c")
                for i in range(INDEX_WIDTH + 1)]
    for child in children[:INDEX_WIDTH]:
        node.insert_child(child)
    assert node.find_child(("c", "c3")) is children[3]
    assert node.find_child(("c", "absent")) is None
    assert node._child_index is None
    node.insert_child(children[-1])
    assert node.find_child(("c", "c3")) is children[3]
    assert node._child_index is not None
    node.remove_child(children[0])
    assert node._child_index is None
    assert node.find_child(("c", "c0")) is None
    assert node.find_child(("c", f"c{INDEX_WIDTH}")) is children[-1]


def test_restore_shares_the_names_of_an_unshared_checkpoint(tmp_path,
                                                            monkeypatch):
    """A checkpoint whose tags and attribute names pickled as one object
    per occurrence (as every file written before names were interned)
    restores with one object per distinct name."""
    def unshared(state):
        for columns in [*state["documents"].values(),
                        *(view["extent"] for view in state["views"])]:
            columns["tags"] = [tag and fresh(tag)
                               for tag in columns["tags"]]
            columns["attributes"] = {
                position: {fresh(name): value
                           for name, value in attributes.items()}
                for position, attributes in columns["attributes"].items()}
        return state

    db = Database(durable_path=tmp_path, fsync="always")
    db.load("site.xml", xmark.generate_site(20, seed=1))
    for name in ("profiles", "join", "ages"):
        db.create_view(name, VIEWS[name])
    capture = durability_manager.capture_state
    monkeypatch.setattr(durability_manager, "capture_state",
                        lambda registry: unshared(capture(registry)))
    lsn = db.checkpoint()
    monkeypatch.undo()
    expected = {name: db.read(name) for name in db.views()}
    del db                                      # crash after the cut
    state = CheckpointStore(RealFileSystem(), str(tmp_path)).load_latest()[1]
    tags = [tag for tag in state["documents"]["site.xml"]["tags"] if tag]
    assert len({id(tag) for tag in tags}) == len(tags)   # unshared
    db = Database(durable_path=tmp_path, fsync="always")
    assert db.recovery.checkpoint_lsn == lsn
    assert {name: db.read(name) for name in db.views()} == expected
    assert_names_shared(db.registry)
    assert_extents_canonical(db.registry)
    db.close()


def test_format3_fixture_restores_with_shared_names(tmp_path, monkeypatch):
    monkeypatch.setattr(RegisteredView, "over_work_bound",
                        lambda self: False)
    fixture = os.path.join(TESTS_DIR, "fixtures", "format3-path-lists")
    shutil.copy(os.path.join(fixture, "checkpoint-00000000000000000013.ckpt"),
                tmp_path)
    db = Database(durable_path=tmp_path)
    assert db.recovery.checkpoint_lsn == 13
    shape = assert_names_shared(db.registry)
    assert shape["names"] > 20
    db.close()
