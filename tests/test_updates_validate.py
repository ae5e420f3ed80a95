"""Tests for the Validate phase: primitives, SAPT, batching (Chapter 5)."""

import pytest

from repro import StorageManager, UpdateRequest, XmlDocument
from repro.translate import translate_query
from repro.updates import RunBatcher, Sapt, UpdateTree, spec_for_run
from repro.updates.sapt import EXPOSED, PREDICATE
from repro.flexkeys import FlexKey
from repro.xat.base import DELETE, INSERT, MODIFY


def bib_storage():
    sm = StorageManager()
    sm.register(XmlDocument.from_string("bib.xml", (
        "<bib><book year='1994'><title>A</title>"
        "<author><last>L</last></author></book></bib>")))
    return sm


class TestPrimitives:
    def test_insert_requires_fragment(self):
        with pytest.raises(ValueError):
            UpdateRequest(INSERT, "d.xml", FlexKey("b"))

    def test_insert_parses_string_fragment(self):
        request = UpdateRequest.insert("d.xml", FlexKey("b"), "<x/>")
        assert request.fragment.tag == "x"

    def test_insert_rejects_multi_fragment(self):
        with pytest.raises(ValueError):
            UpdateRequest.insert("d.xml", FlexKey("b"), "<x/><y/>")

    def test_modify_requires_value(self):
        with pytest.raises(ValueError):
            UpdateRequest(MODIFY, "d.xml", FlexKey("b"))

    def test_bad_position(self):
        with pytest.raises(ValueError):
            UpdateRequest.insert("d.xml", FlexKey("b"), "<x/>",
                                 position="inside")

    def test_update_tree_signs(self):
        key = FlexKey("b.b")
        assert UpdateTree("d", key, INSERT).sign == 1
        assert UpdateTree("d", key, DELETE).sign == -1
        assert UpdateTree("d", key, MODIFY).sign == 0


class TestSapt:
    QUERY = ('<r>{for $b in doc("bib.xml")/bib/book '
             'where $b/@year = "1994" return $b/title}</r>')

    def _sapt(self, query=QUERY):
        return Sapt.from_plan(translate_query(query))

    def test_documents(self):
        assert self._sapt().documents() == ["bib.xml"]

    def test_access_paths_recorded(self):
        sapt = self._sapt()
        steps = {a.steps for a in sapt.paths["bib.xml"]}
        assert ("bib", "book") in steps
        assert ("bib", "book", "title") in steps
        assert ("bib", "book", "@year") in steps

    def test_predicate_usage_marked(self):
        sapt = self._sapt()
        by_steps = {a.steps: a.usages for a in sapt.paths["bib.xml"]}
        assert PREDICATE in by_steps[("bib", "book", "@year")]
        assert EXPOSED in by_steps[("bib", "book", "title")]

    def test_relevancy_above_and_below(self):
        sapt = self._sapt()
        sm = bib_storage()
        root = sm.root_key("bib.xml")
        book = sm.children(root, "book")[0]
        title = sm.children(book, "title")[0]
        author = sm.children(book, "author")[0]
        last = sm.children(author, "last")[0]
        assert sapt.is_relevant(sm, "bib.xml", book)     # at a binding
        assert sapt.is_relevant(sm, "bib.xml", title)    # exposed subtree
        assert not sapt.is_relevant(sm, "bib.xml", author)  # unread branch
        assert not sapt.is_relevant(sm, "bib.xml", last)

    def test_relevancy_unknown_document(self):
        sapt = self._sapt()
        sm = bib_storage()
        sm.register(XmlDocument.from_string("o.xml", "<o><i/></o>"))
        item = sm.children(sm.root_key("o.xml"), "i")[0]
        assert not sapt.is_relevant(sm, "o.xml", item)

    def test_descendant_axis_conservative(self):
        sapt = self._sapt('<r>{for $t in doc("bib.xml")/bib//title '
                          'return $t}</r>')
        sm = bib_storage()
        book = sm.children(sm.root_key("bib.xml"), "book")[0]
        author = sm.children(book, "author")[0]
        assert sapt.is_relevant(sm, "bib.xml", author)

    def test_modify_hits_predicate(self):
        sapt = self._sapt('<r>{for $b in doc("bib.xml")/bib/book '
                          'where $b/title = "A" return $b/author}</r>')
        sm = bib_storage()
        book = sm.children(sm.root_key("bib.xml"), "book")[0]
        title = sm.children(book, "title")[0]
        assert sapt.modify_hits_predicate(sm, "bib.xml", title)
        author = sm.children(book, "author")[0]
        assert not sapt.modify_hits_predicate(sm, "bib.xml", author)

    def test_binding_anchor(self):
        sapt = self._sapt()
        sm = bib_storage()
        book = sm.children(sm.root_key("bib.xml"), "book")[0]
        title = sm.children(book, "title")[0]
        assert sapt.binding_anchor(sm, "bib.xml", title) == book
        assert sapt.binding_anchor(sm, "bib.xml", book) == book


class TestBatching:
    def _tree(self, doc, key, kind):
        return UpdateTree(doc, FlexKey(key), kind)

    @staticmethod
    def _runs(trees):
        """Push ``trees`` through one :class:`RunBatcher`; the closed
        runs, each as the spec of its propagation pass."""
        batcher = RunBatcher()
        runs = [batcher.push(tree)[0] for tree in trees] + [batcher.close()]
        return [spec_for_run(run) for run in runs if run is not None]

    def test_same_kind_same_doc_one_batch(self):
        trees = [self._tree("d", "b.b", INSERT),
                 self._tree("d", "b.d", INSERT)]
        batches = self._runs(trees)
        assert len(batches) == 1
        assert len(batches[0].roots) == 2

    def test_kind_change_splits(self):
        trees = [self._tree("d", "b.b", INSERT),
                 self._tree("d", "b.d", DELETE),
                 self._tree("d", "b.f", DELETE)]
        batches = self._runs(trees)
        assert [b.phase for b in batches] == [INSERT, DELETE]

    def test_document_change_splits(self):
        trees = [self._tree("d1", "b.b", INSERT),
                 self._tree("d2", "b.b", INSERT)]
        assert len(self._runs(trees)) == 2

    def test_nested_roots_deduplicated(self):
        trees = [self._tree("d", "b.b", DELETE),
                 self._tree("d", "b.b.d", DELETE)]  # inside the first
        batches = self._runs(trees)
        assert len(batches[0].roots) == 1
        assert batches[0].roots[0].key.value == "b.b"

    def test_enclosing_root_replaces_nested(self):
        trees = [self._tree("d", "b.b.d", DELETE),
                 self._tree("d", "b.b", DELETE)]
        batches = self._runs(trees)
        assert [r.key.value for r in batches[0].roots] == ["b.b"]


class TestDeltaSpec:
    def test_classify(self):
        from repro.xat.base import DeltaRoot, DeltaSpec

        spec = DeltaSpec("d", (DeltaRoot(FlexKey("b.d"), INSERT),), INSERT)
        assert spec.classify(FlexKey("b.d")) == "at"
        assert spec.classify(FlexKey("b.d.f")) == "at"
        assert spec.classify(FlexKey("b")) == "ancestor"
        assert spec.classify(FlexKey("b.f")) is None
        assert spec.sign_at(FlexKey("b.d.f")) == 1
