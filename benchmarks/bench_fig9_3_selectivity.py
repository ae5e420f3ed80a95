"""Fig 9.3: varying view selectivity (Section 9.3).

The selection view's predicate (``age > X``) is swept so the view retains
~75/50/25/5 percent of the persons; maintenance cost of one insert batch is
compared against recomputation at each selectivity.
"""

from bench_common import (VIEW, maintain_seconds, materialized_view, ms,
                          persons, print_table, scales, time_call, xmark)
from repro import UpdateRequest

#: (label, age threshold) — ages are uniform in [18, 78).
SELECTIVITIES = [("~100%", "0"), ("~66%", "38"), ("~33%", "58"),
                 ("~8%", "73")]

QUERY_TEMPLATE = """<result>{
for $p in doc("site.xml")/site/people/person
where $p/profile/age > "%s"
return <senior>{$p/name} {$p/address/city}</senior>
}</result>"""


def measure(threshold: str, num_persons: int):
    storage, registry = materialized_view(QUERY_TEMPLATE % threshold,
                                      num_persons)
    anchors = persons(storage)
    updates = [UpdateRequest.insert(
        "site.xml", anchors[-1], xmark.new_person_xml(i, age=80), "after")
        for i in range(3)]
    report = registry.apply_updates(updates)
    recompute = time_call(lambda: registry.recompute_xml(VIEW), repeat=2)
    return report, recompute


def figure_rows(num_persons: int):
    rows = []
    for label, threshold in SELECTIVITIES:
        report, recompute = measure(threshold, num_persons)
        maintain = maintain_seconds(report)
        rows.append([label, ms(maintain), ms(recompute),
                     f"{recompute / max(maintain, 1e-9):6.1f}x"])
    return rows


def test_maintenance_cheap_across_selectivities():
    for _label, threshold in SELECTIVITIES:
        report, recompute = measure(threshold, 150)
        assert maintain_seconds(report) < recompute


def test_benchmark_low_selectivity_maintenance(benchmark):
    def run():
        storage, registry = materialized_view(QUERY_TEMPLATE % "73", 100)
        anchors = persons(storage)
        registry.apply_updates([UpdateRequest.insert(
            "site.xml", anchors[-1], xmark.new_person_xml(1, age=80),
            "after")])

    benchmark(run)


if __name__ == "__main__":
    largest = scales()[-1]
    print_table(
        f"Fig 9.3: varying query selectivity at {largest} persons",
        ["selectivity", "maintain (ms)", "recompute (ms)", "speedup"],
        figure_rows(largest))
    from bench_common import save_json

    save_json("fig9_3_selectivity")
