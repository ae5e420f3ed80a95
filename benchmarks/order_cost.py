"""Shared machinery for the order-cost figures (Figs 3.7-3.10).

The paper reports, per input size, (a) the order-handling cost relative to
total execution and (b) a breakdown of that cost into the Order Schema
computation, Overriding Order key assignment, and the final (partial) sort.
The last costs nothing here: extent children are inserted in order-token
order, so no sort pass runs and the breakdown has two parts.
"""

from __future__ import annotations

from bench_common import (Engine, fresh_site, ms, print_table, ratio,
                          scales, time_call, timed_calls, translate_query)

ORDER_LABELS = ("order_schema", "overriding_order")


def measure_order_cost(query: str, num_persons: int) -> dict[str, float]:
    """One measurement: execution seconds + per-concern order costs."""
    storage = fresh_site(num_persons)
    engine = Engine(storage)

    # Order Schema computation happens at plan preparation time and does
    # not depend on the data size (only on the number of operators).
    plan_holder = {}

    def prepare():
        plan_holder["plan"] = translate_query(query)

    order_schema_cost = time_call(prepare, repeat=3)
    plan = plan_holder["plan"]

    with timed_calls() as totals:
        execution = time_call(lambda: engine.query(plan), repeat=2)
    # totals accumulated over both repeats: halve for a per-run figure
    overriding = totals["overriding_order"] / 2
    return {
        "execution": execution,
        "order_schema": order_schema_cost,
        "overriding_order": overriding,
        "order_total": order_schema_cost + overriding,
    }


def figure_rows(query: str) -> list[list[str]]:
    rows = []
    for n in scales():
        m = measure_order_cost(query, n)
        rows.append([n, ms(m["execution"]), ms(m["order_total"]),
                     ratio(m["order_total"], m["execution"])])
    return rows


def breakdown_rows(query: str, num_persons: int) -> list[list[str]]:
    m = measure_order_cost(query, num_persons)
    return [[label, ms(m[label]), ratio(m[label], m["execution"])]
            for label in ORDER_LABELS]


def print_figure(figure: str, query_name: str, query: str) -> None:
    print_table(
        f"Fig {figure}(a): order cost vs execution — {query_name}",
        ["persons", "exec (ms)", "order (ms)", "order/exec"],
        figure_rows(query))
    largest = scales()[-1]
    print_table(
        f"Fig {figure}(b): order cost breakdown at {largest} persons",
        ["component", "cost (ms)", "of exec"],
        breakdown_rows(query, largest))


def assert_order_overhead_small(query: str, num_persons: int = 100,
                                limit: float = 0.35) -> None:
    """The figure's shape: order handling is a small fraction of execution."""
    m = measure_order_cost(query, num_persons)
    assert m["order_total"] <= limit * m["execution"] + 0.002, (
        f"order cost {m['order_total']:.4f}s exceeds {limit:.0%} of "
        f"execution {m['execution']:.4f}s")
