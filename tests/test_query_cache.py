"""Ad-hoc queries through ``ViewRegistry.ask`` (``Database.query``).

A per-item linear query keeps its extent as a query entry — a deferred
view no one named — and every answer equals a fresh
``Engine.query(translate_query(q))``.  The boundaries pinned here: the
work bound, the capacity, a pass or fuse that fails, a query that
cannot be evaluated, and a grouped query, evaluated fresh across every
update kind.
"""

from __future__ import annotations

import math

import pytest

from repro import StorageManager, UpdateRequest, ViewRegistry
from repro.engine import Engine
from repro.multiview.registry import QUERY_CACHE_CAPACITY
from repro.storage import StorageError
from repro.translate import translate_query
from repro.workloads import xmark

from .helpers import persons_of


def elders(age: int) -> str:
    return ('<r>{for $p in doc("site.xml")/site/people/person '
            f'where $p/profile/age > "{age}" '
            'return <e>{$p/name}</e>}</r>')


ELDERS = elders(60)


def fresh(storage: StorageManager, query: str) -> str:
    return Engine(storage).query(translate_query(query))


def rename(registry: ViewRegistry, person, value: str) -> None:
    name = registry.storage.children(person, "name")[0]
    registry.apply_updates([UpdateRequest.modify("site.xml", name, value)])


@pytest.fixture
def registry():
    storage = StorageManager()
    xmark.register_site(storage, 20, seed=3)
    with ViewRegistry(storage) as registry:
        yield registry


def entries(registry: ViewRegistry) -> int:
    return registry.metrics_snapshot()["query_cache_entries"]["values"][""]


def test_a_repeated_ask_is_answered_from_the_kept_extent(registry):
    storage = registry.storage
    assert registry.ask(ELDERS) == fresh(storage, ELDERS)
    rename(registry, persons_of(storage)[0], "Renamed")
    assert registry.ask(ELDERS) == fresh(storage, ELDERS)
    stats = registry.query_stats
    assert (stats.hits, stats.misses) == (1, 1)
    assert registry.names() == [] and entries(registry) == 1


def test_pending_delta_past_the_work_bound_evicts_and_rematerializes(
        registry):
    """Every pending tree is charged one row per plan instruction; when
    the queue reaches the rows the materialization read, the entry goes
    (it is never recomputed in place) and the next ask re-materializes."""
    storage = registry.storage
    first = registry.ask(ELDERS)
    entry = registry._queries[("query", ELDERS)]
    trees = math.ceil(entry.rows_read / entry.instructions)
    persons = persons_of(storage)
    assert 1 < trees <= len(persons)
    for n, person in enumerate(persons[:trees]):
        assert entry.pending_trees() == n     # one routed tree per batch
        assert registry.query_stats.evictions["work"] == 0
        rename(registry, person, f"Renamed {n}")
    assert registry.query_stats.evictions == {"work": 1, "capacity": 0}
    assert entry.pending_trees() == 0 and entries(registry) == 0
    assert registry.router.subscribers() == []
    again = registry.ask(ELDERS)
    assert again == fresh(storage, ELDERS) and again != first
    stats = registry.query_stats
    assert (stats.hits, stats.misses) == (0, 2)
    assert entries(registry) == 1


def test_a_failed_pass_evicts_the_entry_and_spares_the_others(
        registry, monkeypatch):
    """An entry whose Δ pass raises in an update's dispatch is evicted,
    never left to recompute in place; the update and the other entries'
    passes go on, and the next ask re-materializes."""
    storage = registry.storage
    names = ('<r>{for $p in doc("site.xml")/site/people/person '
             'return <e>{$p/name}</e>}</r>')
    texts = [names, names.replace(" return", "  return")]
    for text in texts:
        registry.ask(text)
    monkeypatch.setattr(registry._queries[("query", names)].pipeline,
                        "propagate_run", _raise)
    rename(registry, persons_of(storage)[0], "Renamed")
    assert registry.query_stats.evictions == {"work": 1, "capacity": 0}
    assert registry.router.subscribers() == [("query", texts[1])]
    for text in reversed(texts):
        answer = registry.ask(text)
        assert "Renamed" in answer and answer == fresh(storage, text)
    assert (registry.query_stats.hits, registry.query_stats.misses) \
        == (1, 3)
    assert "flush_seconds" not in registry.metrics_snapshot()


def test_a_failed_fuse_evicts_the_entry(registry, monkeypatch):
    """An ask whose fuse raises evicts the entry; the ask after it is a
    miss that re-materializes, and no flush is recorded under a
    ``view`` label."""
    storage = registry.storage
    registry.ask(ELDERS)
    monkeypatch.setattr(registry._queries[("query", ELDERS)].pipeline,
                        "fuse", _raise)
    rename(registry, persons_of(storage)[0], "Renamed")
    with pytest.raises(RuntimeError):
        registry.ask(ELDERS)
    assert registry.query_stats.evictions == {"work": 1, "capacity": 0}
    assert entries(registry) == 0 and registry.router.subscribers() == []
    assert registry.ask(ELDERS) == fresh(storage, ELDERS)
    stats = registry.query_stats          # the failed ask was a hit
    assert (stats.hits, stats.misses) == (1, 2)
    assert "flush_seconds" not in registry.metrics_snapshot()


def _raise(*_args):
    raise RuntimeError("injected")


def test_a_ninth_query_evicts_the_least_recently_asked(registry):
    storage = registry.storage
    queries = [elders(20 + 5 * n) for n in range(QUERY_CACHE_CAPACITY + 1)]
    for query in queries[:-1]:
        registry.ask(query)
    registry.ask(queries[0])                  # now the most recent
    registry.ask(queries[-1])                 # queries[1] goes
    stats = registry.query_stats
    assert stats.evictions == {"work": 0, "capacity": 1}
    assert (stats.hits, stats.misses) == (1, QUERY_CACHE_CAPACITY + 1)
    assert entries(registry) == QUERY_CACHE_CAPACITY
    assert registry.ask(queries[0]) == fresh(storage, queries[0])
    assert stats.hits == 2
    assert registry.ask(queries[1]) == fresh(storage, queries[1])
    assert stats.misses == QUERY_CACHE_CAPACITY + 2
    assert stats.evictions["capacity"] == 2
    assert len(registry.router.subscribers()) == QUERY_CACHE_CAPACITY


def test_a_query_over_an_unknown_document_raises_and_keeps_no_entry(
        registry):
    query = '<r>{for $x in doc("nope.xml")/d/x return $x}</r>'
    with pytest.raises(StorageError):
        fresh(registry.storage, query)
    with pytest.raises(StorageError):
        registry.ask(query)
    assert entries(registry) == 0
    assert registry.router.subscribers() == []
    assert registry.query_stats.misses == 1
    assert registry.ask(ELDERS) == fresh(registry.storage, ELDERS)


@pytest.mark.parametrize("query, is_fresh", [
    (xmark.SELECTION_QUERY, False),
    (xmark.ORDER_QUERY_1, False),
    (xmark.PERSONS_BY_CITY_QUERY, True),
    (xmark.JOIN_QUERY, True),
], ids=["selection", "projection", "group-by", "join"])
def test_only_a_grouping_join_or_dedup_query_is_evaluated_fresh(
        registry, query, is_fresh):
    assert registry.ask(query) == fresh(registry.storage, query)
    assert registry._queries[("query", query)].fresh is is_fresh
    assert registry.router.subscribers() == (
        [] if is_fresh else [("query", query)])


def test_a_grouped_query_is_evaluated_fresh_across_inserts_modifies_and_deletes(
        registry):
    """A query that groups is never routed: every ask evaluates it over
    the kept prepared plan and equals a fresh evaluation."""
    storage = registry.storage
    query = xmark.CITY_HEADCOUNT_QUERY
    assert registry.ask(query) == fresh(storage, query)
    persons = persons_of(storage)
    city = storage.children(storage.children(persons[1], "address")[0],
                            "city")[0]
    for batch in (
            [UpdateRequest.insert("site.xml", persons[-1],
                                  xmark.new_person_xml(1, city="Lima"),
                                  "after")],
            [UpdateRequest.modify("site.xml", city, "Atlantis")],
            [UpdateRequest.delete("site.xml", persons[2])]):
        registry.apply_updates(batch)
        assert registry.ask(query) == fresh(storage, query)
    assert registry.router.subscribers() == []
    assert (registry.query_stats.hits, registry.query_stats.misses) == (0, 4)
    assert registry.query_stats.evictions == {"work": 0, "capacity": 0}
