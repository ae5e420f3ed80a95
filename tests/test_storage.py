"""Tests for the storage manager (MASS substitute)."""

import pytest

from repro.flexkeys import FlexKey
from repro.storage import StorageManager, StorageError
from repro.xmlmodel import XmlDocument, XmlNode, parse_fragment


@pytest.fixture
def storage():
    sm = StorageManager()
    sm.register(XmlDocument.from_string("bib.xml", (
        "<bib><book year='1994'><title>T1</title></book>"
        "<book year='2000'><title>T2</title></book></bib>")))
    return sm


class TestRegistration:
    def test_root_keys_distinct(self, storage):
        storage.register(XmlDocument.from_string("p.xml", "<p/>"))
        assert storage.root_key("bib.xml") != storage.root_key("p.xml")
        assert set(storage.document_names) == {"bib.xml", "p.xml"}

    def test_duplicate_rejected(self, storage):
        with pytest.raises(StorageError):
            storage.register(XmlDocument.from_string("bib.xml", "<x/>"))

    def test_every_node_keyed_in_document_order(self, storage):
        root = storage.root_key("bib.xml")
        keys = [node.key for node in storage.node(root).iter_subtree()]
        assert len(keys) == storage.document("bib.xml").node_count()
        assert keys == sorted(keys, key=lambda k: k.value)

    def test_document_of_key(self, storage):
        book = storage.children(storage.root_key("bib.xml"), "book")[0]
        assert storage.document_of_key(book) == "bib.xml"

    def test_unknown_lookups(self, storage):
        with pytest.raises(StorageError):
            storage.document("nope.xml")
        with pytest.raises(StorageError):
            storage.root_key("nope.xml")
        with pytest.raises(StorageError):
            storage.node(FlexKey("zz.zz"))


class TestNavigation:
    def test_children_by_tag(self, storage):
        root = storage.root_key("bib.xml")
        assert len(storage.children(root, "book")) == 2
        assert storage.children(root, "nope") == []

    def test_descendants(self, storage):
        root = storage.root_key("bib.xml")
        titles = storage.descendants(root, "title")
        assert [storage.text(t) for t in titles] == ["T1", "T2"]

    def test_attribute_and_text(self, storage):
        book = storage.children(storage.root_key("bib.xml"), "book")[0]
        assert storage.attribute(book, "year") == "1994"
        assert storage.attribute(book, "nope") is None
        assert storage.text(book) == "T1"

    def test_parent_key(self, storage):
        root = storage.root_key("bib.xml")
        book = storage.children(root, "book")[0]
        assert storage.parent_key(book) == root
        assert storage.parent_key(root) is None

    def test_find_by_path_child(self, storage):
        keys = storage.find_by_path(
            "bib.xml", [("child", "bib"), ("child", "book")])
        assert len(keys) == 2

    def test_find_by_path_first_step_names_document_element(self, storage):
        assert storage.find_by_path("bib.xml", [("child", "nope")]) == []
        assert len(storage.find_by_path("bib.xml", [("child", "bib")])) == 1

    def test_find_by_path_descendant(self, storage):
        keys = storage.find_by_path("bib.xml", [("descendant", "title")])
        assert len(keys) == 2


class TestUpdates:
    def test_insert_between_keeps_neighbours(self, storage):
        root = storage.root_key("bib.xml")
        before = storage.children(root, "book")
        frag = parse_fragment("<book year='1995'><title>T3</title></book>")[0]
        new_key = storage.insert_fragment(root, frag, after=before[0])
        after = storage.children(root, "book")
        assert after == [before[0], new_key, before[1]]
        assert before[0] < new_key < before[1]
        # subtree got keys too
        assert storage.text(storage.children(new_key, "title")[0]) == "T3"

    def test_insert_positions(self, storage):
        root = storage.root_key("bib.xml")
        books = storage.children(root, "book")
        front = storage.insert_fragment(root, XmlNode.element("book"),
                                        before=books[0])
        back = storage.insert_fragment(root, XmlNode.element("book"))
        got = storage.children(root, "book")
        assert got[0] == front and got[-1] == back

    def test_insert_bad_anchor(self, storage):
        root = storage.root_key("bib.xml")
        title = storage.descendants(root, "title")[0]
        with pytest.raises(StorageError):
            storage.insert_fragment(root, XmlNode.element("x"), after=title)
        with pytest.raises(StorageError):
            storage.insert_fragment(root, XmlNode.element("x"),
                                    after=title, before=title)
        # a text node holds the empty tuple: it takes no children
        text = storage.node(title).children[0].key
        with pytest.raises(StorageError):
            storage.insert_fragment(text, XmlNode.element("x"))

    def test_delete_subtree_drops_keys(self, storage):
        root = storage.root_key("bib.xml")
        book = storage.children(root, "book")[0]
        title = storage.children(book, "title")[0]
        storage.delete_subtree(book)
        assert not storage.has_node(book)
        assert not storage.has_node(title)
        assert len(storage.children(root, "book")) == 1

    def test_delete_root_rejected(self, storage):
        with pytest.raises(StorageError):
            storage.delete_subtree(storage.root_key("bib.xml"))

    def test_replace_text(self, storage):
        title = storage.descendants(storage.root_key("bib.xml"), "title")[0]
        storage.replace_text(title, "New Title")
        assert storage.text(title) == "New Title"
        # replacing again works (old text key released)
        storage.replace_text(title, "Again")
        assert storage.text(title) == "Again"

    def test_replace_attribute(self, storage):
        book = storage.children(storage.root_key("bib.xml"), "book")[0]
        storage.replace_attribute(book, "year", "1999")
        assert storage.attribute(book, "year") == "1999"

    def test_keys_stable_across_updates(self, storage):
        """The no-relabeling guarantee: existing keys never change."""
        root = storage.root_key("bib.xml")
        books = storage.children(root, "book")
        frozen = [k.value for k in books]
        for _ in range(20):
            frag = XmlNode.element("book", {"year": "1990"})
            storage.insert_fragment(root, frag, after=books[0])
        assert [k.value for k in storage.children(root, "book")[:1]] \
            == frozen[:1]
        assert storage.children(root, "book")[-1].value == frozen[-1]
