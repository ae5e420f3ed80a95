"""Fig 9.2: varying source document size (Section 9.2).

For the selection view (Query 1) and the join view (Query 2): incremental
maintenance of a fixed-size insert batch vs full recomputation, as the
source document grows; plus the V-P-A breakdown of the maintenance cost.
A third, *grouped* row (the per-city head count, one city modify per
batch) prints the same claim — incremental cost flat in document size —
for a view whose groups grow with the document, together with the work
counters that show why: supports answered from a maintained counter, no
bucket row walked.
"""

import time

from bench_common import (VIEW, maintain_seconds, materialized_view, ms,
                          persons, phase_seconds, print_table, ratio,
                          scales, time_call, xmark)
from repro import UpdateRequest

BATCH_SIZE = 4
QUERIES = [("Query 1 (selection)", xmark.SELECTION_QUERY),
           ("Query 2 (join)", xmark.JOIN_QUERY)]


def measure(query: str, num_persons: int):
    storage, registry = materialized_view(query, num_persons)
    anchors = persons(storage)
    updates = [UpdateRequest.insert(
        "site.xml", anchors[-1], xmark.new_person_xml(i), "after")
        for i in range(BATCH_SIZE)]
    report = registry.apply_updates(updates)
    recompute = time_call(lambda: registry.recompute_xml(VIEW), repeat=2)
    return report, recompute


def figure_rows(query: str):
    rows = []
    for n in scales():
        report, recompute = measure(query, n)
        maintain = maintain_seconds(report)
        rows.append([n, ms(maintain), ms(recompute),
                     f"{recompute / max(maintain, 1e-9):6.1f}x"])
    return rows


def measure_grouped(num_persons: int):
    """One city modify under the grouped count view, after a warm-up
    modify that derives the operator state: ``(maintain seconds,
    recompute seconds, support probes, bucket rows scanned)`` of the
    second batch.  Both move a person into the same new city, so the
    batch does the same logical work at every scale."""
    storage, registry = materialized_view(xmark.CITY_HEADCOUNT_QUERY,
                                          num_persons)
    cities = storage.find_by_path(
        "site.xml", [("child", "site"), ("child", "people"),
                     ("child", "person"), ("child", "address"),
                     ("child", "city")])
    registry.apply_updates(
        [UpdateRequest.modify("site.xml", cities[0], "Tampere")])
    stats = registry.state_store.stats
    probes, scanned = stats.support_probes, stats.bucket_rows_scanned
    started = time.perf_counter()
    registry.apply_updates(
        [UpdateRequest.modify("site.xml", cities[1], "Tampere")])
    maintain = time.perf_counter() - started
    assert registry.to_xml(VIEW) == registry.recompute_xml(VIEW)
    recompute = time_call(lambda: registry.recompute_xml(VIEW), repeat=2)
    return (maintain, recompute, stats.support_probes - probes,
            stats.bucket_rows_scanned - scanned)


def grouped_rows():
    rows = []
    for n in scales():
        maintain, recompute, probes, scanned = measure_grouped(n)
        rows.append([n, ms(maintain), ms(recompute),
                     f"{recompute / max(maintain, 1e-9):6.1f}x",
                     probes, scanned])
    return rows


def breakdown_rows(query: str, num_persons: int):
    report, _ = measure(query, num_persons)
    total = maintain_seconds(report)
    return [[phase, ms(value), ratio(value, total)]
            for phase, value in phase_seconds(report)]


def test_maintenance_beats_recompute_selection():
    report, recompute = measure(xmark.SELECTION_QUERY, 200)
    assert maintain_seconds(report) < recompute


def test_maintenance_beats_recompute_join():
    report, recompute = measure(xmark.JOIN_QUERY, 200)
    assert maintain_seconds(report) < recompute


def test_grouped_work_is_flat_in_document_size():
    """The figure's claim for a grouped view, on counters that repeat
    exactly instead of on the clock: the same city modify walks no
    bucket row and asks the same number of support questions whether a
    city holds 5 persons or 40."""
    smallest, largest = (measure_grouped(n)[2:]
                         for n in (scales()[0], scales()[-1]))
    assert smallest == largest
    probes, scanned = largest
    assert probes > 0 and scanned == 0


def test_result_stays_correct():
    storage, registry = materialized_view(xmark.JOIN_QUERY, 100)
    anchors = persons(storage)
    registry.apply_updates([UpdateRequest.insert(
        "site.xml", anchors[-1], xmark.new_person_xml(1), "after")])
    assert registry.to_xml(VIEW) == registry.recompute_xml(VIEW)


def test_benchmark_incremental_insert(benchmark):
    def run():
        storage, registry = materialized_view(xmark.JOIN_QUERY, 100)
        anchors = persons(storage)
        registry.apply_updates([UpdateRequest.insert(
            "site.xml", anchors[-1], xmark.new_person_xml(1), "after")])

    benchmark(run)


if __name__ == "__main__":
    for name, query in QUERIES:
        print_table(
            f"Fig 9.2 (top): varying document size — {name}, "
            f"{BATCH_SIZE}-insert batch",
            ["persons", "maintain (ms)", "recompute (ms)", "speedup"],
            figure_rows(query))
        largest = scales()[-1]
        print_table(
            f"Fig 9.2 (bottom): V-P-A breakdown — {name} at {largest}",
            ["phase", "cost (ms)", "of total"],
            breakdown_rows(query, largest))
    print_table(
        "Fig 9.2 (grouped): varying document size — per-city head count, "
        "one city modify per batch",
        ["persons", "maintain (ms)", "recompute (ms)", "speedup",
         "support probes", "bucket rows scanned"],
        grouped_rows())
    from bench_common import save_json

    save_json("fig9_2_doc_size")
