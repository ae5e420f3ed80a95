"""The paper's running example: bib.xml / prices.xml (Fig 1.1) — both the
fixed two-book documents and a scalable generator for benchmarks."""

from __future__ import annotations

import random

from ..storage import StorageManager
from ..xmlmodel import XmlDocument

BIB_XML = """<bib>
<book year="1994"><title>TCP/IP Illustrated</title>
 <author><last>Stevens</last><first>W.</first></author></book>
<book year="2000"><title>Data on the Web</title>
 <author><last>Abiteboul</last><first>Serge</first></author></book>
</bib>"""

PRICES_XML = """<prices>
<entry><price>39.95</price><b-title>Data on the Web</b-title></entry>
<entry><price>65.95</price><b-title>TCP/IP Illustrated</b-title></entry>
<entry><price>69.99</price>
 <b-title>Advanced Programming in the Unix environment</b-title></entry>
</prices>"""

#: The view of Fig 1.2(a): books grouped by year, joined with prices.
YEAR_GROUP_QUERY = """<result>{
FOR $y in distinct-values(doc("bib.xml")/bib/book/@year)
ORDER BY $y
RETURN
 <yGroup Y="{$y}">
  <books>{
   for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
   WHERE $y = $b/@year and $b/title = $e/b-title
   RETURN <entry>{$b/title} {$e/price}</entry>
  }</books>
 </yGroup>
}</result>"""

NEW_BOOK_FRAGMENT = (
    '<book year="1994"><title>Advanced Programming in the Unix environment'
    '</title><author><last>Stevens</last><first>W.</first></author></book>')


def register_running_example(storage: StorageManager) -> None:
    """Register the two Fig 1.1 documents."""
    storage.register(XmlDocument.from_string("bib.xml", BIB_XML))
    storage.register(XmlDocument.from_string("prices.xml", PRICES_XML))


def generate_bib(num_books: int, num_years: int = 10,
                 seed: int = 7) -> str:
    """A scalable bib.xml: ``num_books`` books over ``num_years`` years."""
    rng = random.Random(seed)
    parts = ["<bib>"]
    for i in range(num_books):
        year = 1980 + rng.randrange(num_years)
        parts.append(
            f'<book year="{year}"><title>Book {i:06d}</title>'
            f'<author><last>Last{i % 97}</last>'
            f'<first>First{i % 31}</first></author></book>')
    parts.append("</bib>")
    return "".join(parts)


def generate_prices(num_books: int, priced_fraction: float = 0.8,
                    seed: int = 11) -> str:
    """Prices for a fraction of the generated books (join selectivity)."""
    rng = random.Random(seed)
    parts = ["<prices>"]
    for i in range(num_books):
        if rng.random() > priced_fraction:
            continue
        price = 10 + (i * 7) % 90 + round(rng.random(), 2)
        parts.append(f'<entry><price>{price:.2f}</price>'
                     f'<b-title>Book {i:06d}</b-title></entry>')
    parts.append("</prices>")
    return "".join(parts)
