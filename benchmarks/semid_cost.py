"""Shared machinery for the semantic-identifier figures (Figs 4.9-4.10).

The paper reports the overhead of generating semantic identifiers relative
to query execution time, and its breakdown (id composition vs order-prefix
assignment), for a navigation-light and a construction-heavy query.
"""

from __future__ import annotations

from bench_common import (Engine, fresh_site, ms, print_table, ratio,
                          scales, time_call, timed_calls, translate_query)

#: Query 1 of Fig 4.8 (flavour): grouping view with moderate construction.
SEMID_QUERY_1 = """<result>{
for $c in distinct-values(doc("site.xml")/site/people/person/address/city)
return <city-group name="{$c}">{
 for $p in doc("site.xml")/site/people/person
 where $c = $p/address/city
 return <entry>{$p/name}</entry>
}</city-group>}</result>"""

#: Query 2 of Fig 4.8 (flavour): construction-heavy restructuring.
SEMID_QUERY_2 = """<result>
{<customers>{
 for $p in doc("site.xml")/site/people/person
 return <customer><location>{$p/address/city}</location>{$p/name}</customer>
}</customers>}
{<open_bids>{
 for $oa in doc("site.xml")/site/open_auctions/open_auction
 return <bid>{$oa/reserve}{$oa/initial}</bid>
}</open_bids>}
</result>"""


def measure_semid_cost(query: str, num_persons: int) -> dict[str, float]:
    storage = fresh_site(num_persons)
    engine = Engine(storage)
    plan = translate_query(query)
    with timed_calls() as totals:
        execution = time_call(lambda: engine.query(plan), repeat=2)
    # totals accumulated over both repeats: halve for a per-run figure
    semid = totals["semantic_id"] / 2
    prefixes = totals["overriding_order"] / 2
    return {"execution": execution, "semantic_id": semid,
            "order_prefix": prefixes, "total": semid + prefixes}


def figure_rows(query: str) -> list[list[str]]:
    rows = []
    for n in scales():
        m = measure_semid_cost(query, n)
        rows.append([n, ms(m["execution"]), ms(m["total"]),
                     ratio(m["total"], m["execution"])])
    return rows


def print_figure(figure: str, name: str, query: str) -> None:
    print_table(
        f"Fig {figure}(a): semantic-id overhead vs execution — {name}",
        ["persons", "exec (ms)", "semid (ms)", "semid/exec"],
        figure_rows(query))
    largest = scales()[-1]
    m = measure_semid_cost(query, largest)
    print_table(
        f"Fig {figure}(b): semantic-id cost breakdown at {largest} persons",
        ["component", "cost (ms)", "of exec"],
        [["id composition", ms(m["semantic_id"]),
          ratio(m["semantic_id"], m["execution"])],
         ["order prefixes", ms(m["order_prefix"]),
          ratio(m["order_prefix"], m["execution"])]])


def assert_semid_overhead_small(query: str, num_persons: int = 100,
                                limit: float = 0.55) -> None:
    m = measure_semid_cost(query, num_persons)
    assert m["total"] <= limit * m["execution"] + 0.004, (
        f"semantic-id cost {m['total']:.4f}s exceeds {limit:.0%} of "
        f"execution {m['execution']:.4f}s")
