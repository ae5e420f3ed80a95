"""Shared containers in the document and view trees.

Attribute maps are replaced, never written in place, so every
attribute-less node shares one read-only empty map, a copy shares the
map it copies, and a text node holds the empty tuple as its children.
These are identity checks: they pin the layout, not a byte count.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro import StorageManager, UpdateRequest, ViewRegistry
from repro.api import Database
from repro.apply.deep_union import deep_union
from repro.apply.extent import ExtentNode, forest_root
from repro.multiview import RegisteredView
from repro.workloads import xmark
from repro.xmlmodel import XmlNode, parse_document
from repro.xmlmodel.node import EMPTY_ATTRIBUTES

from .helpers import (NO_CHILDREN, assert_extents_canonical,
                      assert_path_lists_canonical, pin)

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
