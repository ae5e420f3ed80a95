"""Data integration: a price-enriched catalog over two autonomous sources.

The Chapter 1 motivation: a mediator integrates a publisher's catalog
(bib.xml) with a price feed (prices.xml) into a materialized, restructured
view with aggregates.  Each source sends its own updates; the mediator
keeps the integrated view fresh incrementally — including the per-year
average price, maintained from per-member aggregate state (Section 7.6).

Run:  python examples/catalog_integration.py
"""


from repro import Database
from repro.workloads.bib import generate_bib, generate_prices

CATALOG_VIEW = """<catalog>{
FOR $y in distinct-values(doc("bib.xml")/bib/book/@year)
ORDER BY $y
RETURN
 <year value="{$y}">
  <offers>{
   for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
   where $y = $b/@year and $b/title = $e/b-title
   return <offer>{$b/title} {$e/price}</offer>
  }</offers>
  <avg-price>{
   avg(for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
       where $y = $b/@year and $b/title = $e/b-title
       return $e/price)
  }</avg-price>
 </year>
}</catalog>"""


def main() -> None:
    with Database() as db:
        db.load("bib.xml", generate_bib(num_books=25, num_years=4))
        db.load("prices.xml",
                generate_prices(num_books=25, priced_fraction=0.7))
        view = db.create_view("catalog", CATALOG_VIEW)
        refreshes = []            # one RefreshEvent per maintained batch
        view.subscribe(refreshes.append)
        print(f"integrated catalog materialized: "
              f"{view.read().count('<year ')} year groups")

        # -- the publisher announces a new title --------------------------------
        db.update("bib.xml").at("/bib").insert(
            '<book year="1981"><title>Book 000003</title>'
            '<author><last>New</last><first>N.</first></author></book>',
            position="into")
        print(f"+ publisher insert propagated in "
              f"{refreshes[-1].duration_seconds * 1000:.2f} ms")
        assert view.read() == view.recompute()

        # -- the price feed reprices an entry: avg-price refreshes in place -----
        before = view.read()
        db.update("prices.xml").at("/prices/entry[1]/price") \
            .replace_with("199.99")
        assert "199.99" in view.read() and view.read() != before
        assert refreshes[-1].reason == "propagate"
        print("~ repricing refreshed the offer and its year's avg-price "
              "incrementally")
        assert view.read() == view.recompute()

        # -- the feed withdraws an entry: derivations counted down --------------
        db.update("prices.xml").at("/prices/entry[2]").delete()
        print(f"- price withdrawal: {refreshes[-1].delta_tuples} extent "
              f"mutations")
        assert view.read() == view.recompute()

        # -- an irrelevant publisher change never reaches propagation -----------
        seen = len(refreshes)
        renamed = db.update("bib.xml").at("/bib/book[1]/author[1]/last") \
            .replace_with("Renamed")
        assert renamed.report.irrelevant_everywhere == 1
        assert len(refreshes) == seen
        print("x author rename filtered by the shared router (irrelevant "
              "to the view)")
        assert view.read() == view.recompute()
        print("catalog consistent with recomputation at every step.")


if __name__ == "__main__":
    main()
