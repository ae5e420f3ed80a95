"""Auction-site dashboard: a grouped view maintained under an update stream.

An XMark-like auction site keeps a materialized "persons by city" dashboard
(the Chapter 9 grouped view).  People register, move away, and close
auctions; every change is propagated incrementally — groups appear, grow
and disappear without recomputing the dashboard.  A subscription reports
what each refresh cost.

Run:  python examples/auction_site.py
"""

import time

from repro import Database
from repro.workloads import xmark


def main() -> None:
    with Database() as db:
        db.load("site.xml", xmark.generate_site(40, seed=3))
        view = db.create_view("dashboard", xmark.PERSONS_BY_CITY_QUERY)
        refreshes = []            # one RefreshEvent per maintained batch
        view.subscribe(refreshes.append)
        people = db.update("site.xml").at("/site/people")
        print(f"dashboard materialized: "
              f"{view.read().count('<city-group')} city groups")

        # -- a newcomer in a brand-new city: a group appears -------------------
        people.insert(xmark.new_person_xml(1, city="Reykjavik"),
                      position="into")
        assert 'name="Reykjavik"' in view.read()
        event = refreshes[-1]
        print(f"+ newcomer in Reykjavik: group created "
              f"({event.duration_seconds * 1000:.2f} ms, "
              f"{event.delta_tuples} extent mutations)")

        # -- five more registrations across existing cities --------------------
        with db.batch():
            for i in range(5):
                people.insert(
                    xmark.new_person_xml(10 + i, city=xmark.CITIES[i]),
                    position="into")
        event = refreshes[-1]
        print(f"+ batch of 5 registrations: one refresh "
              f"({event.reason}, trees={event.trees}, "
              f"{event.duration_seconds * 1000:.2f} ms)")
        assert view.read() == view.recompute()

        # -- someone moves: a join-path modify travels as a retract/assert pair
        moved = db.update("site.xml") \
            .at("/site/people/person[1]/address/city") \
            .replace_with("Reykjavik")
        print(f"~ person moved to Reykjavik: first-class modify pair "
              f"(routed={moved.report.routed})")
        assert view.read() == view.recompute()

        # -- the Reykjavik crowd leaves: the whole group fragment is
        # disconnected at its root -------------------------------------------
        left = db.execute('''for $p in document("site.xml")/site/people/person
                             where $p/address/city = "Reykjavik"
                             update $p
                             delete $p''')
        assert 'name="Reykjavik"' not in view.read()
        event = refreshes[-1]
        print(f"- {len(left.requests)} departures: Reykjavik group removed "
              f"({event.delta_tuples} extent mutations, "
              f"{event.duration_seconds * 1000:.2f} ms)")
        assert view.read() == view.recompute()

        # -- compare one more incremental round against recomputation ----------
        start = time.perf_counter()
        view.recompute()
        recompute = time.perf_counter() - start
        people.insert(xmark.new_person_xml(99, city="Oslo"),
                      position="into")
        print(f"incremental {refreshes[-1].duration_seconds * 1000:.2f} ms "
              f"vs recompute {recompute * 1000:.2f} ms")
        print("dashboard consistent with recomputation at every step.")


if __name__ == "__main__":
    main()
