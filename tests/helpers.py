"""Shared fixtures/utilities for the test suite, including the
randomized differential harness (:func:`run_differential`) that drives
mixed update streams through :class:`ViewRegistry` — the one V-P-A
driver — against the recompute oracle.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Iterable, Optional, Sequence, Union

from repro import StorageManager, UpdateRequest, ViewRegistry
from repro.apply.extent import INDEX_WIDTH
from repro.engine import Engine
from repro.flexkeys import FlexKey
from repro.multiview import DEFERRED, IMMEDIATE, threshold
from repro.translate import translate_query
from repro.workloads import bib as bibload
from repro.workloads import xmark
from repro.xat.base import ExecutionContext
from repro.xmlmodel.node import EMPTY_ATTRIBUTES


#: the three grouped views over ``site.xml`` that share one ``Distinct``
#: signature (``distinct-values`` over the city texts)
GROUPED_VIEWS = {"bycity": xmark.PERSONS_BY_CITY_QUERY,
                 "headcount": xmark.CITY_HEADCOUNT_QUERY,
                 "cities": xmark.ORDER_QUERY_2}

def city_aggregate_query(function: str, path: str) -> str:
    """``CITY_HEADCOUNT_QUERY`` with another aggregate: ``function`` over
    ``$p/<path>`` of each city's persons."""
    return (xmark.CITY_HEADCOUNT_QUERY
            .replace("count(", function + "(")
            .replace("return $p/name", "return $p/" + path))


CITY_MAX_AGE_QUERY = city_aggregate_query("max", "profile/age")
CITY_INCOME_SUM_QUERY = city_aggregate_query("sum", "profile/@income")

#: ``PERSONS_BY_CITY_QUERY`` whose nested constructor reads attributes:
#: an attribute value and a node (``$p/name``, whose text the Tagger
#: reads from storage when it builds the row) — its join side is served
#: through the persons entry beneath it, so the text is read at probe time
PERSONS_BY_CITY_ATTRIBUTES_QUERY = xmark.PERSONS_BY_CITY_QUERY.replace(
    "<entry>{$p/name}</entry>",
    '<entry id="{$p/@id}" name="{$p/name}">{$p/address/city}</entry>')

#: a correlated count over a ``<`` comparison, in the shape of XMark
#: Q11/Q12: a theta ``LeftOuterJoin`` whose Δ rules scan the other side
RESERVE_BELOW_AGE_QUERY = (
    '<result>{for $p in doc("site.xml")/site/people/person '
    'return <p>{count(for $o in doc("site.xml")/site/open_auctions/'
    'open_auction where $o/reserve < $p/profile/age return $o)}</p>}'
    '</result>')

#: the views the differential fuzz sweeps: the two historical ROADMAP
#: divergences, the join and selection views (predicate re-routing
#: through Select), the per-group aggregate views (pair re-routing
#: through AggState) — a count, an extremum and a sum, whose
#: members person churn and city moves carry between groups — a
#: grouped view whose constructed join side reads storage at probe time,
#: and the theta join
FUZZ_VIEWS = {"order-query-2": xmark.ORDER_QUERY_2,
              "persons-by-city": xmark.PERSONS_BY_CITY_QUERY,
              "join": xmark.JOIN_QUERY,
              "selection": xmark.SELECTION_QUERY,
              "city-headcount": xmark.CITY_HEADCOUNT_QUERY,
              "city-max-age": CITY_MAX_AGE_QUERY,
              "city-income-sum": CITY_INCOME_SUM_QUERY,
              "persons-by-city-attributes":
                  PERSONS_BY_CITY_ATTRIBUTES_QUERY,
              "reserve-below-age": RESERVE_BELOW_AGE_QUERY}


#: the duplicate-view leg of the differential: queries repeat and overlap
#: on purpose, so passes of one dispatch share Δ registers (equal routed
#: subsets) next to passes that must not (different subsets)
SHARING_VIEWS = (xmark.PERSONS_BY_CITY_QUERY, xmark.PERSONS_BY_CITY_QUERY,
                 xmark.CITY_HEADCOUNT_QUERY, xmark.ORDER_QUERY_2,
                 xmark.JOIN_QUERY, xmark.JOIN_QUERY, xmark.SELECTION_QUERY,
                 xmark.ORDER_QUERY_1, xmark.ORDER_QUERY_3,
                 xmark.ORDER_QUERY_4, PERSONS_BY_CITY_ATTRIBUTES_QUERY)

#: the policy leg of the differential, by index into ``SHARING_VIEWS``: a
#: grouped and a join view deferred, a join view flushing every third
#: tree — so queues of Δ forests span several batches, each computed in
#: its own dispatch, and are fused later in order
SHARING_POLICIES = {1: DEFERRED, 5: DEFERRED, 8: threshold(3)}


def pin(view):
    """Keep a registered view on propagation whatever its queue, and
    return it: a test comparing the extent with the recompute oracle must
    have *propagated* it (at 20 persons a few batches of a deferred queue
    reach the work bound)."""
    view.over_work_bound = lambda: False
    return view


class MaintainedView:
    """One view registered (materialized, pinned to propagation) in a
    :class:`ViewRegistry` of its own, bound by name; every method is the
    registry's."""

    name = "view"

    def __init__(self, storage, query):
        self.registry = ViewRegistry(storage)
        self.registered = pin(self.registry.register(self.name, query))
        self.pipeline = self.registered.pipeline

    def apply_updates(self, updates):
        return self.registry.apply_updates(updates)

    def to_xml(self) -> str:
        return self.registry.to_xml(self.name)

    def recompute_xml(self) -> str:
        return self.registry.recompute_xml(self.name)

    def close(self) -> None:
        self.registry.close()


def running_example() -> tuple[StorageManager, MaintainedView]:
    """The Fig 1.1/1.2 setup: bib.xml + prices.xml + the yGroup view."""
    storage = StorageManager()
    bibload.register_running_example(storage)
    return storage, MaintainedView(storage, bibload.YEAR_GROUP_QUERY)


def site_view(query: str, num_persons: int = 30, seed: int = 42
              ) -> tuple[StorageManager, MaintainedView]:
    storage = StorageManager()
    xmark.register_site(storage, num_persons, seed=seed)
    return storage, MaintainedView(storage, query)


def assert_consistent(view: MaintainedView) -> None:
    """The paper's correctness criterion: refreshed extent == recompute."""
    got = view.to_xml()
    want = view.recompute_xml()
    assert got == want, (
        f"extent diverged from recomputation\n got: {got}\nwant: {want}")


def audit_operator_state(registry: ViewRegistry) -> int:
    """Every cached table the operator-state store claims current (valid,
    no stale backlog) holds — as a fingerprint-keyed multiset with counts
    — exactly a fresh FULL evaluation of its subplan, and every side
    index's support counters equal their buckets' sums.  The oracle where
    recomputing the *extent* is none (after an unpropagated storage
    write) and the check that a shared store stays exact under per-view
    routed subsets.  Returns the number of entries audited."""
    audited = 0
    ctx = ExecutionContext(registry.storage)
    for entry in registry.state_store.entries():
        if not entry.valid or entry.stale:
            continue
        fresh: Counter = Counter()
        for tup in ctx.evaluate(entry.op).tuples:
            fresh[entry.op.state_merge_key(tup, ctx)] += tup.count
        held = {fp: tup.count for fp, tup in entry.fingerprints.items()}
        assert held == dict(fresh), (
            f"cached state diverged from fresh evaluation of "
            f"{entry.signature[:80]}")
        assert len(entry.table.tuples) == len(held)
        # every side index: no empty bucket, and the maintained support
        # of each probe key is its bucket's net count
        assert set(entry.supports) == set(entry.indexes)
        for cols, index in entry.indexes.items():
            assert all(index.values()), f"empty bucket under {cols}"
            assert entry.supports[cols] == {
                key: sum(tup.count for tup in bucket)
                for key, bucket in index.items()}, (
                f"support counters of {cols} diverged from their "
                f"buckets in {entry.signature[:80]}")
        audited += 1
    return audited


def books_of(storage: StorageManager):
    root = storage.root_key("bib.xml")
    return storage.children(root, "book")


def persons_of(storage: StorageManager):
    return storage.find_by_path(
        "site.xml",
        [("child", "site"), ("child", "people"), ("child", "person")])


def closed_auctions_of(storage: StorageManager):
    return storage.find_by_path(
        "site.xml",
        [("child", "site"), ("child", "closed_auctions"),
         ("child", "closed_auction")])


# -- the walk oracle ---------------------------------------------------------------------
#
# Storage navigation re-derived from the XmlNode tree on every call: the
# reference the structural index's range scans and per-path lists, and
# the nodes' tag paths, are diffed against.  Same contracts as the
# StorageManager methods they mirror (element keys only, document
# order, ``find_by_path``'s frontier deduplicated and sorted).

def walk_children(storage: StorageManager, key: FlexKey,
                  tag: Optional[str] = None) -> list[FlexKey]:
    return [child.key for child in storage.node(key).children
            if child.is_element and (tag is None or child.tag == tag)]


def walk_descendants(storage: StorageManager, key: FlexKey,
                     tag: Optional[str] = None) -> list[FlexKey]:
    return [node.key for node in storage.node(key).descendants(tag)]


def walk_tag_path(storage: StorageManager, key: FlexKey) -> tuple:
    tags = []
    node = storage.node(key)
    while node is not None:
        if node.is_element:
            tags.append(node.tag)
        node = node.parent
    return tuple(reversed(tags))


def walk_find_by_path(storage: StorageManager, name: str, steps,
                      start: Optional[list] = None) -> list[FlexKey]:
    """``find_by_path`` by walking: from the document node (whose first
    child step names the document element) or from ``start``."""
    current = list(start) if start is not None else [storage.root_key(name)]
    first = start is None
    for axis, test in steps:
        reached: dict = {}
        for key in current:
            own = storage.node(key).tag == test
            if axis == "child":
                found = (([key] if own else []) if first
                         else walk_children(storage, key, test))
            elif axis == "descendant":
                found = ([key] if first and own else []) \
                    + walk_descendants(storage, key, test)
            else:
                raise ValueError(f"unsupported axis {axis!r}")
            for target in found:
                reached.setdefault(target.value, target)
        current = [reached[value] for value in sorted(reached)]
        first = False
    return current


def walk_nth_per_parent(storage: StorageManager, keys: list,
                        k: int) -> list[FlexKey]:
    """XPath's ``[k]`` over a frontier in document order: the ``k``-th
    (1-based) key under each parent node."""
    groups: dict = {}
    for key in keys:
        groups.setdefault(id(storage.node(key).parent), []).append(key)
    return [members[k - 1] for members in groups.values()
            if len(members) >= k]


def assert_path_lists_canonical(storage: StorageManager) -> None:
    """Everything the storage manager and its structural index keep per
    node equals a from-scratch walk of the documents — the node map
    (keyed by key string, and the very map the index reads its FlexKeys
    from), each node's tag path (one interned tuple per distinct path)
    and the sorted per-tag-path key lists (one sorted, non-empty list
    per path that has live elements) — whatever mutation, checkpoint
    and replay history produced them; and every child list is in key
    order, which is what lets a sibling's position be bisected; and
    every node holds the shared containers
    (:func:`assert_shared_containers`)."""
    nodes: dict = {}
    tag_paths: dict = {}
    path_lists: dict = {}
    for name in storage.document_names:
        stack = [(storage.document(name).root, ())]
        while stack:
            node, tags = stack.pop()
            value = node.key.value
            nodes[value] = node
            if node.is_element:
                tags = tags + (node.tag,)
                path_lists.setdefault((name, tags), []).append(value)
            tag_paths[value] = tags
            assert_shared_containers(node)
            children = [child.key.value for child in node.children]
            assert children == sorted(set(children)), (
                f"children of {value} are not in key order")
            assert all(child.rpartition(".")[0] == value
                       for child in children)
            stack.extend((child, tags) for child in node.children)
    assert storage._nodes.keys() == nodes.keys()
    assert all(storage._nodes[value] is node for value, node in nodes.items())
    index = storage.index
    assert index._nodes is storage._nodes
    for keys in path_lists.values():
        keys.sort()
    assert {value: node.path for value, node in nodes.items()} == tag_paths
    assert len({id(node.path) for node in nodes.values()}) \
        == len(set(tag_paths.values())), "a tag path is not one shared tuple"
    assert index._path_lists == path_lists
    assert index.stats()["path_lists"] == len(path_lists)


#: the children of every text node (the one empty tuple)
NO_CHILDREN = ()


def assert_shared_containers(node) -> None:
    """A document or extent node holds the shared empty attribute map
    when it has no attributes, and a text node the empty tuple as its
    children — identity, not equality."""
    assert node.attributes is EMPTY_ATTRIBUTES or (
        node.attributes and type(node.attributes) is dict), node
    assert not node.is_text or node.children is NO_CHILDREN, node


def assert_extents_canonical(registry: ViewRegistry) -> None:
    """Every view extent keeps each children list sorted by order token
    (the engine runs no sort pass), every node holds the shared
    containers, no leaf element holds cached XML and no node of at most
    ``INDEX_WIDTH`` children holds a child index."""
    for name in registry.names():
        for node in extent_nodes(registry.view(name).pipeline.extent):
            assert_shared_containers(node)
            orders = [child.order for child in node.children]
            assert orders == sorted(orders), (
                f"{name}: children of {node!r} are not in order")
            assert node.xml is None or not is_leaf(node), (
                f"{name}: the leaf {node!r} caches its XML")
            assert node._child_index is None \
                or len(node.children) > INDEX_WIDTH, (
                    f"{name}: the narrow {node!r} holds a child index")


def extent_nodes(extent) -> list:
    """Every node of an extent (None: none), in no particular order."""
    nodes, stack = [], [extent] if extent is not None else []
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node.children)
    return nodes


def is_leaf(node) -> bool:
    """An element with no element child (its XML is never cached)."""
    return node.tag is not None and all(
        child.tag is None for child in node.children)


def heap_shape(registry: ViewRegistry) -> dict:
    """The heap rules as counts over every document and every extent of
    a registry: ``names`` distinct tag and attribute names held as
    ``name_objects`` ``str`` objects, ``cached`` elements holding XML
    (``cached_leaves`` of them leaves), and ``indexed`` nodes holding a
    child index (``narrow_indexed`` of them with at most
    ``INDEX_WIDTH`` children).  The rules hold when ``names ==
    name_objects`` and both other counts are 0."""
    objects: dict = {}
    nodes = [node for name in registry.storage.document_names
             for node in registry.storage.document(name).root
             .iter_subtree()]
    extents = [node for name in registry.names()
               for node in extent_nodes(registry.view(name).pipeline.extent)]
    for node in nodes + extents:
        for name in ([node.tag] if node.tag is not None else []) \
                + list(node.attributes):
            objects.setdefault(name, set()).add(id(name))
    cached = [node for node in extents if node.xml is not None]
    indexed = [node for node in extents if node._child_index is not None]
    return {"names": len(objects),
            "name_objects": sum(map(len, objects.values())),
            "cached": len(cached),
            "cached_leaves": sum(map(is_leaf, cached)),
            "indexed": len(indexed),
            "narrow_indexed": sum(len(node.children) <= INDEX_WIDTH
                                  for node in indexed)}


# -- the randomized differential harness -------------------------------------------------
#
# One shared generator of site.xml update streams, parameterized by
# *mutator kinds*, so every randomized oracle test in the suite (and the
# CI fuzz step) drives the same update space instead of each rolling its
# own ad-hoc loop.

def _site_paths(storage: StorageManager, *tags: str):
    return storage.find_by_path("site.xml",
                                [("child", tag) for tag in tags])


def _alive(keys, doomed):
    """Keys not at/below a target already doomed by this batch (a later
    statement must not address a subtree an earlier one deletes)."""
    return [key for key in keys
            if not any(d == key or d.is_ancestor_of(key) for d in doomed)]


def _mut_insert_person(rng, storage, step, doomed):
    persons = _alive(_site_paths(storage, "site", "people", "person"),
                     doomed)
    return UpdateRequest.insert(
        "site.xml", rng.choice(persons),
        xmark.new_person_xml(10000 + step, city=rng.choice(xmark.CITIES)),
        "after")


def _mut_insert_city(rng, storage, step, doomed):
    """Grow a join-key collection: a second <city> under an address."""
    addresses = _alive(_site_paths(storage, "site", "people", "person",
                                   "address"), doomed)
    return UpdateRequest.insert(
        "site.xml", rng.choice(addresses),
        f"<city>{rng.choice(xmark.CITIES)}</city>", "into")


def _mut_insert_nested_person(rng, storage, step, doomed):
    """Aggressive nested same-tag insert: a person inside an auction."""
    auctions = _alive(_site_paths(storage, "site", "closed_auctions",
                                  "closed_auction"), doomed)
    return UpdateRequest.insert(
        "site.xml", rng.choice(auctions),
        xmark.new_person_xml(20000 + step, city=rng.choice(xmark.CITIES)),
        "into")


def _mut_insert_auction(rng, storage, step, doomed):
    auctions = _alive(_site_paths(storage, "site", "closed_auctions",
                                  "closed_auction"), doomed)
    return UpdateRequest.insert(
        "site.xml", rng.choice(auctions),
        xmark.new_closed_auction_xml(step, f"person{step % 20}"), "after")


def _mut_delete_person(rng, storage, step, doomed):
    persons = _alive(_site_paths(storage, "site", "people", "person"),
                     doomed)
    if len(persons) <= 8:
        return None
    request = UpdateRequest.delete("site.xml", rng.choice(persons))
    doomed.append(request.target)
    return request


def _mut_delete_auction(rng, storage, step, doomed):
    auctions = _alive(_site_paths(storage, "site", "closed_auctions",
                                  "closed_auction"), doomed)
    if len(auctions) <= 4:
        return None
    request = UpdateRequest.delete("site.xml", rng.choice(auctions))
    doomed.append(request.target)
    return request


def _mut_modify_city(rng, storage, step, doomed):
    """The ROADMAP repro: city text feeds distinct-values / order by /
    the persons-by-city join condition."""
    cities = _alive(_site_paths(storage, "site", "people", "person",
                                "address", "city"), doomed)
    return UpdateRequest.modify("site.xml", rng.choice(cities),
                                rng.choice(xmark.CITIES))


#: city names :func:`xmark.generate_site` never writes
FRESH_CITIES = ("Montevideo", "Reykjavik")


def _mut_modify_city_fresh(rng, storage, step, doomed):
    """One group's zero crossings: move a live person to a city nobody
    lives in (opening its group, or joining one just opened), or — half
    the time, while someone lives there — move such a person back to one
    of ``xmark.CITIES`` (closing the group with its last member)."""
    cities = _alive(_site_paths(storage, "site", "people", "person",
                                "address", "city"), doomed)
    moved = [key for key in cities if storage.text(key) in FRESH_CITIES]
    if moved and rng.random() < 0.5:
        return UpdateRequest.modify("site.xml", rng.choice(moved),
                                    rng.choice(xmark.CITIES))
    return UpdateRequest.modify("site.xml", rng.choice(cities),
                                rng.choice(FRESH_CITIES))


def _mut_modify_name(rng, storage, step, doomed):
    names = _alive(_site_paths(storage, "site", "people", "person",
                               "name"), doomed)
    return UpdateRequest.modify("site.xml", rng.choice(names),
                                f"Renamed {step}")


def _mut_modify_same(rng, storage, step, doomed):
    """An unchanged modify: a live city or name rewritten to the text it
    holds (routed and logged, never propagated — unless an earlier
    statement of the batch changed that text)."""
    tags = ("address", "city") if rng.random() < 0.5 else ("name",)
    targets = _alive(_site_paths(storage, "site", "people", "person",
                                 *tags), doomed)
    target = rng.choice(targets)
    return UpdateRequest.modify("site.xml", target, storage.text(target))


MUTATORS = {
    "insert_person": _mut_insert_person,
    "insert_city": _mut_insert_city,
    "insert_nested_person": _mut_insert_nested_person,
    "insert_auction": _mut_insert_auction,
    "delete_person": _mut_delete_person,
    "delete_auction": _mut_delete_auction,
    "modify_city": _mut_modify_city,
    "modify_city_fresh": _mut_modify_city_fresh,
    "modify_name": _mut_modify_name,
    "modify_same": _mut_modify_same,
}

#: every mutator kind — the CI fuzz step drives this full set
ALL_MUTATORS = tuple(MUTATORS)


def random_batch(rng: random.Random, storage: StorageManager, step: int,
                 mutators: Sequence[str], max_size: int = 3
                 ) -> list[UpdateRequest]:
    """One mixed batch of 1..max_size updates over the chosen mutators."""
    doomed: list = []
    batch: list[UpdateRequest] = []
    for index in range(rng.randrange(1, max_size + 1)):
        fn = MUTATORS[rng.choice(list(mutators))]
        request = fn(rng, storage, step * 10 + index, doomed)
        if request is not None:
            batch.append(request)
    return batch


def run_differential(seed: int, steps: int, mutators: Sequence[str],
                     views: Union[str, Iterable[str]], *,
                     num_persons: int = 20, site_seed: int = 1,
                     batch_max: int = 3, shared: bool = False,
                     policies: Optional[dict] = None,
                     ad_hoc: bool = False) -> int:
    """Drive ``steps`` random mixed batches through
    :meth:`ViewRegistry.apply_updates` and assert that each maintained
    extent is byte-identical to the recompute oracle and, after every
    batch, that the operator-state store passes
    :func:`audit_operator_state`, the storage
    :func:`assert_path_lists_canonical` and the extents
    :func:`assert_extents_canonical`.

    ``views`` is one query string or an iterable of them.  Each view
    runs in a registry of its own over its own storage — or, with
    ``shared``, all of them in **one** registry over **one** storage
    (shared store, shared plan cache, each view propagating its own
    routed subset of every batch).  ``policies`` maps an index into
    ``views`` to that view's maintenance policy (immediate otherwise).
    Immediate views are compared after every batch; the others through
    :meth:`ViewRegistry.query` — which flushes them — every fifth step
    and after the last, so their queues span several batches in between.
    Every view is pinned to propagation and must never have recomputed.

    ``ad_hoc`` adds the ad-hoc leg: after every batch each view's query
    is also asked through :meth:`ViewRegistry.ask` (a kept query entry
    beside the views) and must equal a fresh
    ``Engine.query(translate_query(q))``.

    Returns the number of updates applied.
    """
    queries = [views] if isinstance(views, str) else list(views)
    policies = policies or {}
    registries = []
    indexed = list(enumerate(queries))
    for group in ([indexed] if shared else [[pair] for pair in indexed]):
        storage = StorageManager()
        xmark.register_site(storage, num_persons, seed=site_seed)
        registry = ViewRegistry(storage)
        for name_index, (index, query) in enumerate(group):
            pin(registry.register(f"view{name_index}", query,
                                  policy=policies.get(index, IMMEDIATE)))
        registries.append(registry)
    # The rng stream is replayed from the same state per storage, and
    # since all storages evolve identically the generated batches are
    # the same logical updates (keys are deterministic per storage).
    rng = random.Random(seed)
    applied = 0
    for step in range(steps):
        state = rng.getstate()
        for registry in registries:
            rng.setstate(state)
            batch = random_batch(rng, registry.storage, step, mutators,
                                 batch_max)
            registry.apply_updates(batch)
            read_queued = (step + 1) % 5 == 0 or step == steps - 1
            for name in registry.names():
                if registry.view(name).policy != IMMEDIATE:
                    if not read_queued:
                        continue
                    got = registry.query(name)
                else:
                    got = registry.to_xml(name)
                want = registry.recompute_xml(name)
                assert got == want, (
                    f"step {step}: {name} diverged from recomputation\n"
                    f" got: {got}\nwant: {want}")
            if ad_hoc:
                for query in dict.fromkeys(registry.view(name).query_text
                                           for name in registry.names()):
                    got = registry.ask(query)
                    want = Engine(registry.storage).query(
                        translate_query(query))
                    assert got == want, (
                        f"step {step}: ad-hoc answer diverged from fresh "
                        f"evaluation\nquery: {query}\n got: {got}\n"
                        f"want: {want}")
            audit_operator_state(registry)
            assert_path_lists_canonical(registry.storage)
            assert_extents_canonical(registry)
        applied += len(batch)
    for registry in registries:
        assert all(registry.view(name).stats.recomputes == 0
                   for name in registry.names()), "a fuzz view recomputed"
        registry.close()
    return applied
