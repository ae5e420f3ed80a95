"""Shared fixtures/utilities for the test suite, including the
randomized differential harness (:func:`run_differential`) that drives
mixed update streams against maintained views and the recompute oracle.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence, Union

from repro import (MaterializedXQueryView, StorageManager, UpdateRequest,
                   XmlDocument)
from repro.workloads import bib as bibload
from repro.workloads import xmark


#: the three grouped views over ``site.xml`` that share one ``Distinct``
#: signature (``distinct-values`` over the city texts)
GROUPED_VIEWS = {"bycity": xmark.PERSONS_BY_CITY_QUERY,
                 "headcount": xmark.CITY_HEADCOUNT_QUERY,
                 "cities": xmark.ORDER_QUERY_2}


def running_example() -> tuple[StorageManager, MaterializedXQueryView]:
    """The Fig 1.1/1.2 setup: bib.xml + prices.xml + the yGroup view."""
    storage = StorageManager()
    bibload.register_running_example(storage)
    view = MaterializedXQueryView(storage, bibload.YEAR_GROUP_QUERY)
    view.materialize()
    return storage, view


def site_view(query: str, num_persons: int = 30, seed: int = 42
              ) -> tuple[StorageManager, MaterializedXQueryView]:
    storage = StorageManager()
    xmark.register_site(storage, num_persons, seed=seed)
    view = MaterializedXQueryView(storage, query)
    view.materialize()
    return storage, view


def assert_consistent(view: MaterializedXQueryView) -> None:
    """The paper's correctness criterion: refreshed extent == recompute."""
    got = view.to_xml()
    want = view.recompute_xml()
    assert got == want, (
        f"extent diverged from recomputation\n got: {got}\nwant: {want}")


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


def assert_path_lists_canonical(storage: StorageManager) -> None:
    """The structural index's per-tag-path key lists equal a from-scratch
    rebuild: one sorted, non-empty list per (document, root-to-node tag
    path) that has live elements — whatever mutation, checkpoint and
    replay history produced them."""
    expected: dict = {}
    for name in storage.document_names:
        stack = [(storage.document(name).root, ())]
        while stack:
            node, parent_tags = stack.pop()
            if not node.is_element:
                continue
            tags = parent_tags + (node.tag,)
            expected.setdefault((name, tags), []).append(node.key.value)
            stack.extend((child, tags) for child in node.children)
    for keys in expected.values():
        keys.sort()
    assert storage.index._path_lists == expected
    assert storage.index.stats()["path_lists"] == len(expected)


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


def _mut_modify_name(rng, storage, step, doomed):
    names = _alive(_site_paths(storage, "site", "people", "person",
                               "name"), doomed)
    return UpdateRequest.modify("site.xml", rng.choice(names),
                                f"Renamed {step}")


MUTATORS = {
    "insert_person": _mut_insert_person,
    "insert_city": _mut_insert_city,
    "insert_nested_person": _mut_insert_nested_person,
    "insert_auction": _mut_insert_auction,
    "delete_person": _mut_delete_person,
    "delete_auction": _mut_delete_auction,
    "modify_city": _mut_modify_city,
    "modify_name": _mut_modify_name,
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
                     operator_state: bool = True,
                     batch_max: int = 3,
                     twin: Optional[dict] = None) -> int:
    """Drive ``steps`` random mixed batches against maintained view(s)
    and assert, after every batch, that each extent is byte-identical to
    the recompute oracle.

    ``views`` is one query string or an iterable of them; each runs as
    its own :class:`MaterializedXQueryView` over the same storage.
    ``operator_state`` picks the execution configuration (persistent
    side tables on/off).  When ``twin`` is given (keyword overrides,
    e.g. ``{"operator_state": False}``), a second set of views over an
    identical storage replays the same stream and must stay
    byte-identical to the first — the differential leg pinning two
    engine configurations against each other.

    Returns the number of updates applied.
    """
    queries = [views] if isinstance(views, str) else list(views)

    def build(query: str, overrides: dict):
        storage = StorageManager()
        xmark.register_site(storage, num_persons, seed=site_seed)
        options = {"operator_state": operator_state}
        options.update(overrides)
        view = MaterializedXQueryView(storage, query, **options)
        view.materialize()
        return storage, view

    # Each maintained view owns its own storage; the rng stream is
    # replayed from the same state per storage, and since all storages
    # evolve identically the generated batches are the same logical
    # updates (keys are deterministic per storage).
    primary = [build(query, {}) for query in queries]
    twins = ([build(query, dict(twin)) for query in queries]
             if twin is not None else [])
    rng = random.Random(seed)
    applied = 0
    for step in range(steps):
        state = rng.getstate()
        batch_size = None
        for index, (storage, view) in enumerate(primary + twins):
            rng.setstate(state)
            batch = random_batch(rng, storage, step, mutators, batch_max)
            if index == 0:
                applied += len(batch)
                batch_size = len(batch)
            else:
                assert len(batch) == batch_size
            view.apply_updates(batch)
            assert_consistent(view)
        if twins:
            for (_s, view), (_ts, twin_view) in zip(primary, twins):
                assert twin_view.to_xml() == view.to_xml(), (
                    f"twin maintenance diverged at step {step}")
    for _storage, view in primary + twins:
        view.close()
    return applied
