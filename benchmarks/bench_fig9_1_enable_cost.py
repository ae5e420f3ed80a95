"""Fig 9.1: cost of *enabling* the view-maintenance feature (Section 9.1).

Compares plain query execution (algebra evaluation + serialization of the
raw result, counts/extent discarded) against full view materialization
(semantic ids fused into a maintainable extent with count annotations).
"""

from bench_common import (Engine, fresh_site, ms, print_table, ratio, scales,
                          time_call, translate_query, xmark)
from repro import ViewRegistry

QUERY = xmark.JOIN_QUERY


def enable_maintenance(storage, plan) -> None:
    """Register (and so materialize) the view, then drop the registry's
    storage listeners again."""
    with ViewRegistry(storage) as registry:
        registry.register("view", plan)


def measure(num_persons: int) -> tuple[float, float]:
    storage = fresh_site(num_persons)
    engine = Engine(storage)
    plan = translate_query(QUERY)
    plain = time_call(lambda: engine.run(plan), repeat=2)
    enabled = time_call(lambda: enable_maintenance(storage, plan),
                        repeat=2)
    return plain, enabled


def figure_rows():
    rows = []
    for n in scales():
        plain, enabled = measure(n)
        overhead = enabled - plain
        rows.append([n, ms(plain), ms(enabled), ratio(overhead, plain)])
    return rows


def test_enabling_overhead_is_bounded():
    plain, enabled = measure(100)
    # The paper: enabling maintenance adds a modest constant factor to the
    # initial materialization (id generation + extent fusion).
    assert enabled < 6 * plain + 0.01, (plain, enabled)


def test_benchmark_materialize_with_maintenance(benchmark):
    storage = fresh_site(100)
    plan = translate_query(QUERY)

    benchmark(lambda: enable_maintenance(storage, plan))


if __name__ == "__main__":
    print_table(
        "Fig 9.1: cost of enabling view maintenance (join view)",
        ["persons", "plain exec (ms)", "materialize (ms)", "overhead"],
        figure_rows())
    from bench_common import save_json

    save_json("fig9_1_enable_cost")
