"""Fig 9.4: varying insert-update size (Section 9.4).

One batch update tree with 1..N inserted fragments, propagated in a single
delta pass; compared against recomputation, with the V-P-A breakdown.
"""

from bench_common import (VIEW, maintain_seconds, materialized_view, ms,
                          persons, phase_seconds, print_table, ratio,
                          scales, time_call, xmark)
from repro import UpdateRequest

BATCH_SIZES = [1, 2, 4, 8, 16]
QUERY = xmark.JOIN_QUERY


def measure(batch: int, num_persons: int):
    storage, registry = materialized_view(QUERY, num_persons)
    anchors = persons(storage)
    updates = [UpdateRequest.insert(
        "site.xml", anchors[-1], xmark.new_person_xml(i), "after")
        for i in range(batch)]
    report = registry.apply_updates(updates)
    recompute = time_call(lambda: registry.recompute_xml(VIEW), repeat=2)
    return report, recompute


def figure_rows(num_persons: int):
    rows = []
    for batch in BATCH_SIZES:
        report, recompute = measure(batch, num_persons)
        rows.append([batch, ms(maintain_seconds(report)), ms(recompute),
                     report.views[VIEW].batches])
    return rows


def breakdown_rows(num_persons: int):
    report, _ = measure(BATCH_SIZES[-1], num_persons)
    total = maintain_seconds(report)
    return [[phase, ms(value), ratio(value, total)]
            for phase, value in phase_seconds(report)]


def test_batch_propagates_in_one_pass():
    report, _ = measure(8, 100)
    assert report.views[VIEW].batches == 1


def test_maintenance_beats_recompute_for_moderate_batches():
    # The paper's shape: maintenance wins while the update is small
    # relative to the document; very large batches approach the
    # recomputation crossover (the sweep in figure_rows reports it).
    report, recompute = measure(4, 150)
    assert maintain_seconds(report) < recompute


def test_maintenance_cost_grows_sublinearly_in_batch():
    small, _ = measure(2, 150)
    large, _ = measure(16, 150)
    assert maintain_seconds(large) < 8 * max(maintain_seconds(small), 1e-4)


def test_benchmark_batch_insert(benchmark):
    def run():
        measure(4, 100)

    benchmark(run)


if __name__ == "__main__":
    largest = scales()[-1]
    print_table(
        f"Fig 9.4 (top): varying insert size at {largest} persons",
        ["batch", "maintain (ms)", "recompute (ms)", "delta passes"],
        figure_rows(largest))
    print_table(
        f"Fig 9.4 (bottom): V-P-A breakdown, batch={BATCH_SIZES[-1]}",
        ["phase", "cost (ms)", "of total"],
        breakdown_rows(largest))
    from bench_common import save_json

    save_json("fig9_4_insert_size")
