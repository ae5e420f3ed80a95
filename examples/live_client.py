"""Live client: the serving layer end to end, over a real socket.

Boots a :class:`repro.server.ViewServer` on a background thread (a
standalone deployment would run ``python -m repro.server`` instead),
then drives it with two :class:`repro.server.ReproClient` sessions:

* a **writer** that applies the Fig 1.3 updates to bib.xml as
  wire-protocol batches;
* a **watcher** holding push subscriptions and consuming the delta
  frames — fused extent mutations with contiguous ``RefreshEvent``
  sequence numbers — re-reading only when a frame says ``reset`` (the
  engine recomputed, or backpressure coalesced).

Two views are served side by side to show both delivery shapes: a flat
``titles`` projection whose refreshes propagate as mutation records
(insert / remove / text), and the year-grouping join view of Fig 1.2,
where the same updates route through grouping and the engine may
answer with a ``reset`` frame instead.  Either way the sequence
numbers must arrive gap-free, and after every refresh the watcher's
view of the world is checked against a server-side read.

Run:  PYTHONPATH=src python examples/live_client.py
"""

from repro.api import Database
from repro.server import ReproClient, start_in_thread
from repro.workloads.bib import BIB_XML, PRICES_XML, YEAR_GROUP_QUERY

TITLES_QUERY = ('<titles>{for $b in doc("bib.xml")/bib/book '
                'return $b/title}</titles>')

INSERT_FRESH_BOOK = ('for $b in document("bib.xml")/bib/book '
                     'where $b/title = "TCP/IP Illustrated" update $b '
                     'insert <book year="1994"><title>Fresh Book</title>'
                     '<author><last>Doe</last><first>Jan</first></author>'
                     '</book> after $b')

DELETE_DATA_ON_THE_WEB = '''
for $book in document("bib.xml")/bib/book
where $book/title = "Data on the Web"
update $book
delete $book'''

RENAME_FRESH_BOOK = '''
for $book in document("bib.xml")/bib/book
where $book/title = "Fresh Book"
update $book
replace $book/title with "Fresh Book, 2nd ed."'''


def watch(subscription, client, expected_sequence: int) -> None:
    """Consume one delta frame; print what a mirror would do with it."""
    frame = subscription.get(timeout=10)
    assert frame["sequence"] == expected_sequence, \
        f"gap! expected {expected_sequence}, got {frame['sequence']}"
    view = frame["view"]
    if frame.get("reset"):
        # Recompute or coalesced: the mirror is stale; re-read once.
        print(f"  [{view}] seq {frame['sequence']}: reset "
              f"({frame['reason']}) — re-read the view")
    else:
        print(f"  [{view}] seq {frame['sequence']}: "
              f"{len(frame['mutations'])} mutation record(s) "
              f"({frame['reason']})")
        for record in frame["mutations"]:
            target = record.get("path") or record["parent"]
            brief = record.get("text") or record.get("xml") or ""
            print(f"    {record['op']:7s} at {target}  {brief[:60]}")
    # A real mirror applies the records to its own extent copy; here a
    # server-side read stands in as the oracle either way.
    print(f"    extent now: {client.read(view)['xml'][:70]}...")


def main() -> None:
    # The database this server owns, with the titles view created before
    # serving; views can also be created over the wire (as ``by_year``
    # is below) or via ``python -m repro.server --view``.
    db = Database()
    db.load("bib.xml", BIB_XML).load("prices.xml", PRICES_XML)
    db.create_view("titles", TITLES_QUERY)

    with start_in_thread(db, own_db=True, http_port=0) as handle:
        print(f"server on {handle.host}:{handle.port} "
              f"(metrics on http port {handle.http_port})")

        with ReproClient(handle.host, handle.port) as writer, \
                ReproClient(handle.host, handle.port) as watcher:
            writer.create_view("by_year", YEAR_GROUP_QUERY)

            titles_sub = watcher.subscribe("titles")    # mode=coalesce
            year_sub = watcher.subscribe("by_year")
            print("\n== baseline ==")
            print(watcher.read("titles")["xml"])
            print(watcher.read("by_year")["xml"])

            # Fig 1.3-style updates, each a wire batch → one refresh
            # per view per batch.
            batches = [[INSERT_FRESH_BOOK],
                       [DELETE_DATA_ON_THE_WEB],
                       [RENAME_FRESH_BOOK]]
            for sequence, statements in enumerate(batches, start=1):
                reply = writer.update(statements)
                print(f"\napplied_index {reply['applied_index']}: "
                      f"{len(statements)} statement(s)")
                watch(titles_sub, watcher, sequence)
                watch(year_sub, watcher, sequence)

            print("\n== final extents ==")
            print(writer.read("titles")["xml"])
            print(writer.read("by_year")["xml"])
            print("\nexplain over the wire:")
            print(writer.explain("titles"))

            snapshot = watcher.metrics()
            frames_out = snapshot["server_frames_out"]["values"][""]
            print(f"\nserver wrote {int(frames_out)} frames; "
                  f"{len(batches)} refreshes per view, gap-free.")

            titles_sub.cancel()
            year_sub.cancel()


if __name__ == "__main__":
    main()
