"""Fig 9.6: deleting an entire grouped fragment (Section 9.5, Query 3).

Deleting every person of one city removes the city's whole
``persons-list`` fragment from the grouped view.  The Deep Union
disconnects the fragment *at its root* — the apply phase does O(1) work
for the fragment regardless of its size — instead of deleting descendants
one by one (the [LD00] strategy the paper compares against) or
recomputing.
"""

from bench_common import (VIEW, maintain_seconds, materialized_view, ms,
                          persons, print_table, scales, time_call, xmark)
from repro import UpdateRequest

QUERY = xmark.PERSONS_BY_CITY_QUERY


def _city_members(storage, city: str):
    members = []
    for person in persons(storage):
        address = storage.children(person, "address")[0]
        if storage.text(storage.children(address, "city")[0]) == city:
            members.append(person)
    return members


def _largest_city(storage):
    cities = {}
    for person in persons(storage):
        address = storage.children(person, "address")[0]
        city = storage.text(storage.children(address, "city")[0])
        cities[city] = cities.get(city, 0) + 1
    return max(cities, key=cities.get)


def measure(num_persons: int):
    storage, registry = materialized_view(QUERY, num_persons)
    city = _largest_city(storage)
    members = _city_members(storage, city)
    updates = [UpdateRequest.delete("site.xml", m) for m in members]
    maintain = maintain_seconds(registry.apply_updates(updates))
    recompute = time_call(lambda: registry.recompute_xml(VIEW), repeat=2)
    return (city, len(members), maintain, registry.view(VIEW).report,
            recompute)


def figure_rows():
    rows = []
    for n in scales():
        city, size, maintain, report, recompute = measure(n)
        rows.append([n, size, ms(maintain), ms(recompute),
                     report.fusion.removed_roots,
                     report.fusion.removed_nodes])
    return rows


def test_fragment_removed_at_root():
    _city, size, _maintain, report, _ = measure(100)
    # One of the removed roots is the whole city-group fragment: far more
    # nodes vanish than roots are disconnected.
    assert report.fusion.removed_roots <= size + 2
    assert report.fusion.removed_nodes > report.fusion.removed_roots

    storage, registry = materialized_view(QUERY, 100)
    city = _largest_city(storage)
    members = _city_members(storage, city)
    registry.apply_updates([UpdateRequest.delete("site.xml", m)
                            for m in members])
    assert f'name="{city}"' not in registry.to_xml(VIEW)
    assert registry.to_xml(VIEW) == registry.recompute_xml(VIEW)


def test_apply_phase_is_negligible():
    """The headline of Fig 9.6: the *apply* phase disconnects the whole
    fragment at its root — its cost is tiny and independent of the
    fragment size (no per-descendant deletion)."""
    _city, size, maintain, report, recompute = measure(150)
    assert size >= 5
    assert report.apply_seconds < 0.2 * maintain + 0.002
    assert report.apply_seconds < 0.5 * recompute


def test_benchmark_fragment_delete(benchmark):
    benchmark(lambda: measure(100))


if __name__ == "__main__":
    print_table(
        "Fig 9.6: deleting the largest city's persons-list fragment",
        ["persons", "frag size", "maintain (ms)", "recompute (ms)",
         "roots cut", "nodes gone"],
        figure_rows())
    from bench_common import save_json

    save_json("fig9_6_fragment_delete")
