"""Integration tests on the paper's running example (Figs 1.1-1.4).

These tests verify the headline behaviour: the three source updates of
Fig 1.3 — insert a book, delete a book, replace a price — refresh the
materialized view of Fig 1.2 to exactly the Fig 1.4 state, matching full
recomputation in content *and order* at every step.
"""

import pytest

from repro import UpdateRequest, apply_xquery_update
from repro.workloads.bib import NEW_BOOK_FRAGMENT

from .helpers import assert_consistent, books_of, running_example


def new_book_xml(index: int, year: int) -> str:
    return (f'<book year="{year}"><title>New Book {index:06d}</title>'
            f'<author><last>NewLast{index}</last>'
            f'<first>NewFirst{index}</first></author></book>')


EXPECTED_INITIAL = (
    '<result>'
    '<yGroup Y="1994"><books><entry><title>TCP/IP Illustrated</title>'
    '<price>65.95</price></entry></books></yGroup>'
    '<yGroup Y="2000"><books><entry><title>Data on the Web</title>'
    '<price>39.95</price></entry></books></yGroup>'
    '</result>')

EXPECTED_FINAL = (
    '<result>'
    '<yGroup Y="1994"><books>'
    '<entry><title>TCP/IP Illustrated</title><price>70</price></entry>'
    '<entry><title>Advanced Programming in the Unix environment</title>'
    '<price>69.99</price></entry>'
    '</books></yGroup>'
    '</result>')


def _fig13_updates(storage):
    books = books_of(storage)
    data_on_web = [k for k in books
                   if storage.text(storage.children(k, "title")[0])
                   == "Data on the Web"][0]
    prices_root = storage.root_key("prices.xml")
    entry = [k for k in storage.children(prices_root, "entry")
             if storage.text(storage.children(k, "b-title")[0])
             == "TCP/IP Illustrated"][0]
    price = storage.children(entry, "price")[0]
    return [
        UpdateRequest.insert("bib.xml", books[-1], NEW_BOOK_FRAGMENT,
                             position="after"),
        UpdateRequest.delete("bib.xml", data_on_web),
        UpdateRequest.modify("prices.xml", price, "70"),
    ]


class TestFig12Materialization:
    def test_initial_extent_matches_fig_1_2b(self):
        _storage, view = running_example()
        assert view.to_xml() == EXPECTED_INITIAL

    def test_initial_matches_recompute(self):
        _storage, view = running_example()
        assert_consistent(view)


class TestFig13Updates:
    def test_all_three_updates_reach_fig_1_4(self):
        storage, view = running_example()
        report = view.apply_updates(_fig13_updates(storage))
        assert view.to_xml() == EXPECTED_FINAL
        assert_consistent(view)
        assert report.routed == 3
        # insert / delete / modify runs
        assert view.registered.report.batches == 3

    def test_update_order_insert_only(self):
        storage, view = running_example()
        books = books_of(storage)
        view.apply_updates([UpdateRequest.insert(
            "bib.xml", books[-1], NEW_BOOK_FRAGMENT, position="after")])
        assert_consistent(view)
        # the new entry lands *after* the existing 1994 entry
        xml = view.to_xml()
        assert xml.index("TCP/IP") < xml.index("Advanced Programming")

    def test_insert_before_reorders(self):
        storage, view = running_example()
        books = books_of(storage)
        view.apply_updates([UpdateRequest.insert(
            "bib.xml", books[0], NEW_BOOK_FRAGMENT, position="before")])
        assert_consistent(view)
        xml = view.to_xml()
        assert xml.index("Advanced Programming") < xml.index("TCP/IP")

    def test_delete_last_book_of_year_removes_group(self):
        storage, view = running_example()
        books = books_of(storage)
        data_on_web = [k for k in books
                       if storage.text(storage.children(k, "title")[0])
                       == "Data on the Web"][0]
        view.apply_updates([UpdateRequest.delete("bib.xml", data_on_web)])
        assert 'Y="2000"' not in view.to_xml()
        assert_consistent(view)
        # the whole yGroup fragment was disconnected at its root
        assert view.registered.report.fusion.removed_roots >= 1

    def test_delete_one_of_two_books_keeps_group(self):
        storage, view = running_example()
        books = books_of(storage)
        view.apply_updates([UpdateRequest.insert(
            "bib.xml", books[-1], NEW_BOOK_FRAGMENT, position="after")])
        # now 1994 has two entries; delete the original one
        view.apply_updates([UpdateRequest.delete("bib.xml", books[0])])
        xml = view.to_xml()
        assert 'Y="1994"' in xml and "Advanced Programming" in xml
        assert "TCP/IP" not in xml
        assert_consistent(view)

    def test_modify_refreshes_in_place(self):
        storage, view = running_example()
        prices_root = storage.root_key("prices.xml")
        entry = storage.children(prices_root, "entry")[1]
        price = storage.children(entry, "price")[0]
        view.apply_updates([UpdateRequest.modify("prices.xml", price, "99")])
        assert "<price>99</price>" in view.to_xml()
        assert_consistent(view)


class TestXQueryUpdateLanguage:
    """The exact Fig 1.3 statements through the update-language parser."""

    def test_fig_1_3_statements(self):
        storage, view = running_example()
        statements = [
            '''for $book in document("bib.xml")/bib/book[2]
               update $book
               insert ''' + NEW_BOOK_FRAGMENT + ''' after $book''',
            '''for $book in document("bib.xml")/bib/book
               where $book/title = "Data on the Web"
               update $book
               delete $book''',
            '''for $entry in document("prices.xml")/prices/entry
               where $entry/b-title = "TCP/IP Illustrated"
               update $entry
               replace $entry/price/text() with "70"''',
        ]
        for statement in statements:
            requests = apply_xquery_update(statement, storage)
            assert requests, statement
            view.apply_updates(requests)
            assert_consistent(view)
        assert view.to_xml() == EXPECTED_FINAL


class TestMaintenanceSequences:
    """Longer mixed sequences keep the extent equal to recomputation."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_randomized_sequences(self, seed):
        import random

        rng = random.Random(seed)
        storage, view = running_example()
        for step in range(12):
            books = books_of(storage)
            action = rng.choice(["insert", "insert", "delete", "modify"])
            if action == "insert" or not books:
                anchor = rng.choice(books) if books \
                    else storage.root_key("bib.xml")
                position = "after" if books else "into"
                year = rng.choice([1994, 2000, 2005])
                update = UpdateRequest.insert(
                    "bib.xml", anchor, new_book_xml(step, year), position)
            elif action == "delete":
                update = UpdateRequest.delete("bib.xml", rng.choice(books))
            else:
                book = rng.choice(books)
                title = storage.children(book, "title")[0]
                update = UpdateRequest.modify(
                    "bib.xml", title, f"Retitled {step}")
            view.apply_updates([update])
            assert_consistent(view)

    def test_batch_of_many_inserts_single_pass(self):
        storage, view = running_example()
        books = books_of(storage)
        updates = [UpdateRequest.insert("bib.xml", books[-1],
                                        new_book_xml(i, 1994), "after")
                   for i in range(8)]
        view.apply_updates(updates)
        # one batch update tree, one delta pass
        assert view.registered.report.batches == 1
        assert_consistent(view)
