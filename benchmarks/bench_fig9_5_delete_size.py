"""Fig 9.5: varying delete-update size for Query 1 and Query 2 (Section 9.5).

Batches of 1..N fragment deletions propagated through the counting
machinery in one delta pass, against recomputation.
"""

from bench_common import (VIEW, maintain_seconds, materialized_view, ms,
                          persons, print_table, scales, time_call, xmark)
from repro import UpdateRequest

BATCH_SIZES = [1, 2, 4, 8]
QUERIES = [("Query 1 (selection)", xmark.SELECTION_QUERY),
           ("Query 2 (join)", xmark.JOIN_QUERY)]


def measure(query: str, batch: int, num_persons: int):
    storage, registry = materialized_view(query, num_persons)
    targets = persons(storage)[:batch]
    updates = [UpdateRequest.delete("site.xml", t) for t in targets]
    report = registry.apply_updates(updates)
    recompute = time_call(lambda: registry.recompute_xml(VIEW), repeat=2)
    return report, recompute


def figure_rows(query: str, num_persons: int):
    rows = []
    for batch in BATCH_SIZES:
        report, recompute = measure(query, batch, num_persons)
        rows.append([batch, ms(maintain_seconds(report)), ms(recompute)])
    return rows


def test_delete_maintenance_beats_recompute():
    for _name, query in QUERIES:
        report, recompute = measure(query, 4, 150)
        assert maintain_seconds(report) < recompute, (_name,)


def test_delete_batch_correct():
    storage, registry = materialized_view(xmark.JOIN_QUERY, 100)
    targets = persons(storage)[:4]
    registry.apply_updates([UpdateRequest.delete("site.xml", t)
                            for t in targets])
    assert registry.to_xml(VIEW) == registry.recompute_xml(VIEW)


def test_benchmark_delete_batch(benchmark):
    def run():
        measure(xmark.SELECTION_QUERY, 4, 100)

    benchmark(run)


if __name__ == "__main__":
    largest = scales()[-1]
    for name, query in QUERIES:
        print_table(
            f"Fig 9.5: varying delete size — {name} at {largest} persons",
            ["batch", "maintain (ms)", "recompute (ms)"],
            figure_rows(query, largest))
    from bench_common import save_json

    save_json("fig9_5_delete_size")
