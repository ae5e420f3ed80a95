"""Consistency tests for the incremental structural index.

The contract under test: after ANY interleaving of the storage mutation
primitives, the indexed navigation paths (``children`` / ``descendants``
/ ``find_by_path`` / ``tag_path``) return exactly what the walk oracle
in ``tests/helpers.py`` returns.  The walk re-derives answers from the
node tree on every call, so it is the oracle.
"""

import bisect
import inspect
import random
import sys

import pytest

from .helpers import (assert_path_lists_canonical, walk_children,
                      walk_descendants, walk_find_by_path,
                      walk_nth_per_parent, walk_tag_path)
from repro.api import Database
from repro.apply.extent import ExtentNode, node_from_item
from repro.flexkeys import FlexKey, order_of
from repro.storage import StorageError, StorageManager, StructuralIndex
from repro.storage import index as index_module
from repro.workloads import xmark
from repro.xmlmodel import XmlDocument, XmlNode, parse_fragment
from repro.xat.paths import Path
from repro.xat.table import NodeItem
from repro.xquery.updates import parse_document_path, resolve_path_expr

TAGS = ["person", "name", "city", "interest", "profile", "note", "nope"]

PATHS = [
    [("descendant", "city")],
    [("descendant", "person"), ("descendant", "city")],
    [("descendant", "site"), ("descendant", "interest")],
    [("child", "site"), ("child", "people"), ("child", "person")],
    [("child", "site"), ("descendant", "name")],
]
PERSON_STEPS = PATHS[3]


def build_site(num_persons: int = 12) -> StorageManager:
    storage = StorageManager()
    xmark.register_site(storage, num_persons, seed=7)
    return storage


def live_element_keys(storage: StorageManager) -> list[FlexKey]:
    root = storage.root_key("site.xml")
    return [root] + walk_descendants(storage, root)


def assert_storage_consistent(storage: StorageManager) -> None:
    """Every navigation path equals the walk oracle."""
    root = storage.root_key("site.xml")
    keys = live_element_keys(storage)
    for tag in TAGS + [None]:
        assert storage.descendants(root, tag) \
            == walk_descendants(storage, root, tag), tag
    for key in keys:
        for tag in (None, "city", "person", "interest"):
            assert storage.children(key, tag) \
                == walk_children(storage, key, tag), (key, tag)
        assert storage.descendants(key, "city") \
            == walk_descendants(storage, key, "city"), key
        assert storage.tag_path(key) == walk_tag_path(storage, key), key
    for steps in PATHS:
        assert storage.find_by_path("site.xml", steps) \
            == walk_find_by_path(storage, "site.xml", steps), steps


class TestRandomInterleavings:
    """Random insert/delete/replace streams keep every path equal to
    the walk."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_mutation_stream(self, seed):
        rng = random.Random(seed)
        storage = build_site(10)
        root = storage.root_key("site.xml")
        fragment_counter = 0
        for step in range(60):
            keys = live_element_keys(storage)
            op = rng.choice(["insert", "insert", "delete", "replace_text",
                             "replace_attribute"])
            if op == "insert":
                parent = rng.choice(keys)
                fragment_counter += 1
                fragment = parse_fragment(
                    f'<note id="n{fragment_counter}">'
                    f'<city>Quincy</city>note text</note>')[0]
                children = storage.children(parent)
                if children and rng.random() < 0.6:
                    anchor = rng.choice(children)
                    if rng.random() < 0.5:
                        storage.insert_fragment(parent, fragment,
                                                after=anchor)
                    else:
                        storage.insert_fragment(parent, fragment,
                                                before=anchor)
                else:
                    storage.insert_fragment(parent, fragment)
            elif op == "delete":
                candidates = [k for k in keys if k != root]
                if candidates:
                    storage.delete_subtree(rng.choice(candidates))
            elif op == "replace_text":
                storage.replace_text(rng.choice(keys), f"text-{step}")
            else:
                storage.replace_attribute(rng.choice(keys), "mark",
                                          str(step))
            if step % 10 == 9:
                assert_storage_consistent(storage)
        assert_storage_consistent(storage)

    def test_extended_atoms_stay_in_range(self):
        """Repeated same-anchor inserts force extended sibling atoms
        ("we can always create new gaps"); the prefix-range scans must
        keep seeing every key exactly once."""
        storage = build_site(3)
        root = storage.root_key("site.xml")
        people = storage.children(root, "people")[0]
        anchor = storage.children(people, "person")[0]
        for i in range(25):
            storage.insert_fragment(
                people, XmlNode.element("person", {"id": f"x{i}"}),
                after=anchor)
        assert_storage_consistent(storage)
        got = storage.children(people, "person")
        assert got == walk_children(storage, people, "person")
        assert [k.value for k in got] \
            == sorted(k.value for k in got)


CHURN_DOC = (
    "<lib><name>Lib</name>"
    "<section id='s1'><name>Outer</name>"
    "<section id='s2'><name>Inner</name><item><name>I1</name></item>"
    "</section><item><name>I2</name>tail</item><empty/></section>"
    "<mixed>lead<b>bold</b>trail</mixed></lib>")

CHURN_FRAGMENTS = [
    "<item><name>N</name></item>",
    "<section><name>S</name><section><item><name>D</name></item>"
    "</section></section>",
    "<name>Bare</name>",
    "<mixed>a<b>b</b>c</mixed>",
    "<empty/>",
    "<wide>" + "<item><name>W</name></item>" * 14 + "</wide>",
]


class TestSubtreeChurn:
    """Whole subtrees enter and leave the index as one run per list: after
    every step of a random churn the node map, the tag-path cache and
    the per-tag-path sorted lists equal a from-scratch walk, and
    listeners saw one event per primitive."""

    @pytest.mark.parametrize("seed", range(6),
                             ids=[f"{seed}-True" for seed in range(6)])
    def test_churn_keeps_every_structure_canonical(self, seed):
        rng = random.Random(seed)
        storage = StorageManager()
        storage.register(XmlDocument.from_string("lib.xml", CHURN_DOC))
        storage.register(XmlDocument.from_string("other.xml", "<lib/>"))
        root = storage.document("lib.xml").root
        events = []
        storage.add_mutation_listener(
            lambda op, key, tags: events.append((op, key.value, tags)))
        assert_path_lists_canonical(storage)
        for step in range(120):
            nodes = list(root.iter_subtree())
            elements = [n for n in nodes if n.is_element]
            op = rng.choice(["insert", "insert", "insert_text", "delete",
                             "delete_text", "replace_text"])
            expected = None
            if op in ("insert", "insert_text"):
                fragment = (XmlNode.text(f"t{step}") if op == "insert_text"
                            else parse_fragment(
                                rng.choice(CHURN_FRAGMENTS))[0])
                parent = rng.choice(elements)
                where = rng.choice(["front", "middle", "end"])
                siblings = parent.children
                if where == "end" or not siblings:
                    key = storage.insert_fragment(parent.key, fragment)
                elif where == "front":
                    key = storage.insert_fragment(parent.key, fragment,
                                                  before=siblings[0].key)
                else:
                    key = storage.insert_fragment(
                        parent.key, fragment,
                        after=rng.choice(siblings).key)
                assert fragment.parent is parent and fragment.key is key
                expected = ("insert", key.value, storage.tag_path(key))
            elif op in ("delete", "delete_text"):
                victims = [n for n in nodes if n is not root
                           and n.is_text == (op == "delete_text")]
                if victims:
                    victim = rng.choice(victims)
                    key, tags = victim.key, storage.tag_path(victim.key)
                    assert storage.delete_subtree(key) is victim
                    assert victim.parent is None
                    assert not storage.has_node(key)
                    expected = ("delete", key.value, tags)
            else:
                target = rng.choice(nodes)
                storage.replace_text(target.key, f"v{step}")
                assert (target.value if target.is_text else "".join(
                    c.value for c in target.children if c.is_text)) \
                    == f"v{step}"
                expected = ("modify", target.key.value,
                            storage.tag_path(target.key))
            assert events == ([expected] if expected else [])
            events.clear()
            assert_path_lists_canonical(storage)

    def test_replace_text_keeps_the_text_node_and_burns_no_slot(self):
        """A modify of single-text content is a value change on the node
        that is there: no key leaves or re-enters the node map, so 20 000
        of them never grow it."""
        storage = build_site(10)
        city = storage.find_by_path(
            "site.xml", [("descendant", "city")])[0]
        text = storage.node(city).children[0]
        text_key = text.key
        interned = storage.index.stats()["interned_keys"]
        node_map_bytes = sys.getsizeof(storage._nodes)
        events = []
        storage.add_listener(lambda op, key: events.append((op, key)))
        for step in range(20_000):
            storage.replace_text(city, f"City {step}")
        assert events == [("modify", city)] * 20_000
        assert storage.node(city).children == [text]
        assert text.key is text_key and text.value == "City 19999"
        assert storage._nodes[text_key.value] is text
        assert storage.index.stats()["interned_keys"] == interned
        assert sys.getsizeof(storage._nodes) == node_map_bytes
        assert_path_lists_canonical(storage)

    def test_keys_stay_short_under_a_wide_node(self):
        """Sibling atoms grow with the logarithm of the sibling index, so
        the 8000th person's subtree is keyed as cheaply as the first's
        (677 characters under the unary ``z`` blocks)."""
        storage = StorageManager()
        people = XmlNode.element("people", children=[
            XmlNode.element("person", children=[
                XmlNode.element("address", children=[
                    XmlNode.element("city", children=[XmlNode.text("C")])])])
            for _ in range(8000)])
        storage.register(XmlDocument("site.xml",
                                     XmlNode.element("site", None, [people])))
        lengths = [len(value) for value in storage._nodes]
        assert max(lengths) <= 40
        assert sum(lengths) / len(lengths) <= 20
        assert_path_lists_canonical(storage)


def positional_paths(storage: StorageManager) -> list[str]:
    """The fixed probe set of the differential test, sized to the
    current ``/site/people/person`` population."""
    persons = walk_find_by_path(storage, "site.xml", PERSON_STEPS)
    last = len(persons)
    mid = max(1, last // 2)
    name = storage.text(walk_children(storage, persons[mid - 1], "name")[0])
    paths = [f"/site/people/person[{k}]" for k in (1, mid, last, last + 1)]
    paths += [
        "/site/people/person/address[1]",
        "/site/people/person/address[2]",
        "/site/people/person/watches/watch[2]",
        "/site/people/person/profile/interest[2]",
        f"/site/people/person[{mid}]/address/city",
        f"/site/people/person[{last}]/watches/watch[3]",
        f'/site/people/person[{mid}][name = "{name}"]',
        f'/site/people/person[1][name = "{name}"]',
        f'/site/people/person[name = "{name}"][1]',
        "//person[2]",
        "//note/city[1]",
        "/site//city[1]",
        "/site[1]",
        "/site[2]",
        "/nope[1]",
        "/site/people/nowhere[1]",
        "/site/people/person[0]",
    ]
    return paths


def resolve_values(storage: StorageManager, path: str, cache=None):
    """Resolved key strings, or the error the path raises."""
    try:
        keys = resolve_path_expr(
            storage, parse_document_path("site.xml", path), cache)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return [key.value for key in keys]


def walk_resolve(storage: StorageManager, path: str):
    """What ``path`` addresses, by walking: each step navigates the walk
    frontier, then filters it by that step's predicates — ``[k]``
    per parent, ``[child = "literal"]`` by the child's text.  ``None``
    for a path that must be refused (``[0]``)."""
    expr = parse_document_path("site.xml", path)
    frontier = None
    for index, step in enumerate(Path.parse(expr.path).as_pairs()):
        frontier = walk_find_by_path(storage, "site.xml", [step], frontier)
        for predicate in expr.predicates.get(index, ()):
            if predicate.path == "position()":
                k = int(predicate.literal)
                if k < 1:
                    return None
                frontier = walk_nth_per_parent(storage, frontier, k)
            else:
                assert predicate.op == "=", predicate
                frontier = [
                    key for key in frontier
                    if any(storage.text(child) == predicate.literal
                           for child in walk_children(storage, key,
                                                      predicate.path))]
    return [key.value for key in frontier]


def assert_positional_routes_match_the_walk(storage: StorageManager) -> None:
    batch_cache: dict = {}
    for path in positional_paths(storage):
        expected = walk_resolve(storage, path)
        if expected is None:
            assert resolve_values(storage, path)[0] == "ValueError", path
            continue
        assert resolve_values(storage, path) == expected, path
        # the flush-wide navigation cache must not change an answer
        assert resolve_values(storage, path, batch_cache) == expected, path
        assert expected == sorted(expected), path


class TestPositionalResolution:
    """``…/tag[k]`` through the per-path key lists, and every path the
    generic navigate-and-filter route takes (``//`` steps, value
    predicates, ``[k]`` behind another predicate), equal the walk."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_mutation_stream(self, seed):
        rng = random.Random(seed)
        storage = build_site(10)
        root = storage.root_key("site.xml")
        people = storage.children(root, "people")[0]
        assert_positional_routes_match_the_walk(storage)
        for step in range(60):
            elements = live_element_keys(storage)
            op = rng.choice(["person", "note", "delete", "delete",
                             "replace_text"])
            if op == "person":
                watches = "<watch/>" * rng.randrange(5)
                xml = (f'<person id="p{step}"><name>Step {step}</name>'
                       f'<address><city>Quincy</city></address>'
                       f'<watches>{watches}</watches></person>')
                anchor = rng.choice(storage.children(people) + [None])
                storage.insert_fragment(people, parse_fragment(xml)[0],
                                        before=anchor)
            elif op == "note":
                xml = f'<note id="n{step}"><city>Quincy</city>text</note>'
                storage.insert_fragment(rng.choice(elements),
                                        parse_fragment(xml)[0])
            elif op == "delete":
                storage.delete_subtree(rng.choice(
                    [key for key in elements if key not in (root, people)]))
            else:
                storage.replace_text(rng.choice(elements), f"text-{step}")
            assert_positional_routes_match_the_walk(storage)
        assert_path_lists_canonical(storage)

    def test_positional_statement_resolves_without_a_scan(self, monkeypatch):
        db = Database()
        db.load("site.xml", xmark.generate_site(20, seed=7))
        persons = db.storage.find_by_path("site.xml", PERSON_STEPS)

        def no_scan(self, *args, **kwargs):
            raise AssertionError("a positional statement scanned storage")

        monkeypatch.setattr(StorageManager, "find_by_path", no_scan)
        lookups = db.storage.index.path_lookups
        update = db.update("site.xml").at("/site/people/person[7]").delete()
        assert [request.target for request in update.requests] \
            == [persons[6]]
        assert db.storage.index.path_lookups == lookups + 1
        assert not db.storage.has_node(persons[6])
        # the string form binds through the same route
        statement = db.execute(
            'for $p in document("site.xml")/site/people/person[7] '
            'update $p delete $p')
        assert [request.target for request in statement.requests] \
            == [persons[7]]
        assert db.storage.index.path_lookups == lookups + 2

    def test_batch_statements_share_the_navigation_cache(self, monkeypatch):
        """Builder and string statements of one flush resolve through one
        cache: ``//person[k]`` (the generic route) navigates once."""
        db = Database()
        db.load("site.xml", xmark.generate_site(8, seed=7))
        calls = []
        original = StorageManager.find_by_path

        def counting(self, name, steps, start=None):
            calls.append(list(steps))
            return original(self, name, steps, start)

        monkeypatch.setattr(StorageManager, "find_by_path", counting)
        with db.batch():
            db.update("site.xml").at("//person[2]/name").replace_with("a")
            db.execute('for $p in document("site.xml")//person[3] '
                       'update $p replace $p/name with "b"')
        assert calls.count([("descendant", "person")]) == 1


class TestExtentChildOrder:
    def test_equal_order_siblings_keep_insertion_order(self):
        parent = ExtentNode("root", "", tag="root")
        rng = random.Random(5)
        orders = [f"{rng.randrange(40):02d}" for _ in range(1000)]
        for number, order in enumerate(orders):
            parent.insert_child(ExtentNode(f"n{number}", order, tag="n"))
        got = [(child.order, int(child.node_id[1:]))
               for child in parent.children]
        # sorted by order token; ties in insertion order (bisect_right)
        assert got == sorted(got)
        assert all(parent.find_child(("n", f"n{number}")).node_id
                   == f"n{number}" for number in range(1000))

    def test_a_delta_forest_allocates_no_child_index(self):
        """Delta trees are fused, never searched: building one from a
        result item leaves every node without an index."""
        db = Database()
        db.load("site.xml", xmark.generate_site(5, seed=7))
        person = db.storage.find_by_path("site.xml", PERSON_STEPS)[2]
        stack = [node_from_item(NodeItem(person), db.storage)]
        assert stack[0].children
        while stack:
            node = stack.pop()
            assert node._child_index is None
            stack.extend(node.children)

    def test_a_built_index_tracks_insert_remove_and_clear(self):
        parent = ExtentNode("root", "", tag="root")
        first, second = (ExtentNode(f"n{n}", f"{n}", tag="n")
                         for n in (1, 2))
        parent.insert_child(first)
        assert parent.find_child(("n", "n1")) is first    # builds it
        parent.insert_child(second)
        assert parent.find_child(("n", "n2")) is second
        parent.remove_child(first)
        assert parent.find_child(("n", "n1")) is None
        assert parent.find_child(("n", "n2")) is second
        parent.clear_children()
        assert parent.find_child(("n", "n2")) is None
        parent.insert_child(first)
        assert parent.find_child(("n", "n1")) is first
        assert parent.find_child(("n", "n2")) is None

    def test_remove_child_among_equal_orders_removes_that_node(self):
        parent = ExtentNode("root", "", tag="root")
        low = ExtentNode("low", "a", tag="n")
        ties = [ExtentNode(f"t{n}", "m", tag="n") for n in range(5)]
        high = ExtentNode("high", "z", tag="n")
        for child in [high, *ties, low]:
            parent.insert_child(child)
        for gone in (ties[3], ties[0], ties[4]):
            parent.remove_child(gone)
        assert [child.node_id for child in parent.children] \
            == ["low", "t1", "t2", "high"]


class TestFindByPathDedupe:
    def test_overlapping_descendant_steps_no_duplicates(self):
        storage = StorageManager()
        storage.register(XmlDocument.from_string(
            "nest.xml", "<a><b><b><c/></b></b><c/></a>"))
        # Step 1 puts both b elements (an ancestor and its descendant) on
        # the frontier; both reach the same inner c.
        result = storage.find_by_path(
            "nest.xml", [("descendant", "b"), ("descendant", "c")])
        assert len(result) == 1
        result = walk_find_by_path(
            storage, "nest.xml", [("descendant", "b"), ("descendant", "c")])
        assert len(result) == 1

    def test_results_in_document_order(self):
        storage = build_site(6)
        for steps in PATHS:
            keys = storage.find_by_path("site.xml", steps)
            assert [k.value for k in keys] \
                == sorted(k.value for k in keys), steps
            assert len({k.value for k in keys}) == len(keys), steps


class TestIndexUnits:
    def test_unknown_key_still_raises(self):
        storage = build_site(3)
        with pytest.raises(StorageError):
            storage.descendants(FlexKey("zz.zz"), "city")
        with pytest.raises(StorageError):
            storage.children(FlexKey("zz.zz"), "city")

    def test_deleted_key_rejected_like_unindexed(self):
        storage = build_site(3)
        root = storage.root_key("site.xml")
        victim = storage.descendants(root, "person")[0]
        storage.delete_subtree(victim)
        with pytest.raises(StorageError):
            storage.descendants(victim, "city")
        with pytest.raises(StorageError):
            storage.tag_path(victim)

    def test_index_stats_track_mutations(self):
        storage = build_site(3)
        stats = storage.index.stats()
        before = stats["indexed_elements"]
        root = storage.root_key("site.xml")
        victim = storage.descendants(root, "person")[0]
        dropped = len([n for n in storage.node(victim).iter_subtree()
                       if n.is_element])
        storage.delete_subtree(victim)
        assert storage.index.stats()["indexed_elements"] \
            == before - dropped

    def test_interned_keys_are_reused(self):
        storage = build_site(3)
        root = storage.root_key("site.xml")
        first = storage.descendants(root, "city")
        second = storage.descendants(root, "city")
        assert all(a is b for a, b in zip(first, second))

    def test_structural_index_is_exported(self):
        from repro.storage.index import StructuralIndex as module_cls
        assert module_cls is StructuralIndex
        assert isinstance(StorageManager().index, StructuralIndex)
        # one store shape: no constructor argument selects another
        assert not inspect.signature(StorageManager).parameters


class TestFlexKeyMemoization:
    def test_atoms_cached_per_instance(self):
        key = FlexKey("b.cd.ef")
        assert key.atoms is key.atoms
        assert key.atoms == ("b", "cd", "ef")

    def test_order_token_follows_override_chain(self):
        base = FlexKey("b.c")
        override = FlexKey("z.z", override=FlexKey("a.a"))
        key = base.with_override(override)
        assert order_of(key) == "a.a"
        assert key.order_token() == "a.a"
        # identity (value) is unchanged by the override
        assert key.value == "b.c"
        assert key < FlexKey("b.b")  # compares by overriding order

    def test_tag_path_cache_survives_unrelated_updates(self):
        storage = build_site(4)
        root = storage.root_key("site.xml")
        city = storage.descendants(root, "city")[0]
        path = storage.tag_path(city)
        assert path == ("site", "people", "person", "address", "city")
        people = storage.children(root, "people")[0]
        storage.insert_fragment(
            people, parse_fragment(xmark.new_person_xml(99))[0])
        assert storage.tag_path(city) == path


class TestPathListQueries:
    """``descendants`` merges the slices of every path list that extends
    the key's path, ``children`` of a wide node is one path list's
    slice, and a fragment's upkeep touches one list per distinct element
    path of the fragment — nothing sized by the document."""

    WIDE = "<shelf>" + "<item><name>W</name></item>" * 20 + "</shelf>"

    def assert_matches_the_walk(self, storage: StorageManager) -> None:
        root = storage.root_key("lib.xml")
        for key in [root] + walk_descendants(storage, root):
            for tag in ("name", "item", "section", "b", None):
                got = storage.descendants(key, tag)
                assert got == walk_descendants(storage, key, tag), (key, tag)
                assert [k.value for k in got] \
                    == sorted(k.value for k in got)
                if tag is not None:
                    assert storage.children(key, tag) \
                        == walk_children(storage, key, tag), (key, tag)

    @pytest.mark.parametrize("seed", range(3))
    def test_descendants_merge_paths_in_document_order(self, seed):
        rng = random.Random(seed)
        storage = StorageManager()
        storage.register(XmlDocument.from_string("lib.xml", CHURN_DOC))
        root = storage.document("lib.xml").root
        # "name" ends five different tag paths below the document element
        assert len([tags for _, tags in storage.index._path_lists
                    if tags[-1] == "name"]) >= 5
        self.assert_matches_the_walk(storage)
        fragments = CHURN_FRAGMENTS + [self.WIDE]
        for step in range(60):
            nodes = list(root.iter_subtree())
            elements = [n for n in nodes if n.is_element]
            op = rng.choice(["insert", "insert", "delete", "modify"])
            if op == "insert":
                storage.insert_fragment(
                    rng.choice(elements).key,
                    parse_fragment(rng.choice(fragments))[0])
            elif op == "delete" and len(elements) > 1:
                storage.delete_subtree(rng.choice(elements[1:]).key)
            else:
                storage.replace_text(rng.choice(nodes).key, f"v{step}")
            self.assert_matches_the_walk(storage)
        assert_path_lists_canonical(storage)

    def test_wide_children_answer_from_the_path_list(self):
        storage = StorageManager()
        storage.register(XmlDocument.from_string(
            "lib.xml", "<lib>" + self.WIDE + "</lib>"))
        shelf = storage.children(storage.root_key("lib.xml"), "shelf")[0]
        scans = storage.index.range_scans
        walks = storage.index.walk_fallbacks
        items = storage.children(shelf, "item")
        assert items == walk_children(storage, shelf, "item")
        assert len(items) == 20
        assert storage.children(shelf, "name") == []
        assert storage.index.range_scans == scans + 2
        assert storage.index.walk_fallbacks == walks

    @pytest.mark.parametrize("persons", [50, 800])
    def test_fragment_upkeep_touches_one_list_per_path(self, persons,
                                                      monkeypatch):
        storage = build_site(persons)
        people = storage.find_by_path(
            "site.xml", [("child", "site"), ("child", "people")])[0]
        touched: list = []

        def counting(keys, value, *args):
            touched.append(id(keys))
            return bisect.bisect_left(keys, value, *args)

        monkeypatch.setattr(index_module, "bisect_left", counting)
        key = storage.insert_fragment(
            people, parse_fragment(xmark.new_person_xml(persons))[0])
        paths = {storage.tag_path(node.key)
                 for node in storage.node(key).iter_subtree()
                 if node.is_element}
        assert len(paths) == 11
        lists = {id(storage.index._path_lists[("site.xml", tags)])
                 for tags in paths}
        # one bisect (the splice point) per distinct element path
        assert sorted(touched) == sorted(lists)
        touched.clear()
        storage.delete_subtree(key)
        # one bisect (the start of the cut run) per distinct element path
        assert sorted(touched) == sorted(lists)
        assert_path_lists_canonical(storage)
