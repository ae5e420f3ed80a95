"""Error-path coverage for the XQuery update-language parser/evaluator.

Every malformed ``for … update $v (…)`` body must fail with an
*actionable* message — one that names the expected token, the unknown
variable, or the invalid predicate, so callers of ``Database.execute``
see what to fix rather than a bare offset.
"""

import pytest

from repro import StorageManager, XmlDocument
from repro.xmlmodel import parse_fragment
from repro.workloads.bib import BIB_XML
from repro.xquery.parser import XQueryParseError
from repro.xquery.updates import (apply_xquery_update, parse_document_path,
                                  parse_update, resolve_path)


def bib_storage() -> StorageManager:
    storage = StorageManager()
    storage.register(XmlDocument.from_string("bib.xml", BIB_XML))
    return storage


def expect_parse_error(statement: str, fragment: str) -> None:
    with pytest.raises(XQueryParseError) as err:
        parse_update(statement)
    assert fragment in str(err.value), str(err.value)


class TestMalformedUpdateBodies:
    def test_missing_for(self):
        expect_parse_error('update $b delete $b', "expected 'for'")

    def test_missing_in(self):
        expect_parse_error('for $b update $b delete $b', "expected 'in'")

    def test_binding_must_be_document_path(self):
        expect_parse_error(
            'for $b in $c/bib/book update $b delete $b',
            "update binding must be a document path")

    def test_missing_update_keyword(self):
        expect_parse_error(
            'for $b in document("bib.xml")/bib/book delete $b',
            "expected 'update'")

    def test_missing_action(self):
        expect_parse_error(
            'for $b in document("bib.xml")/bib/book update $b rename $b',
            "expected insert/delete/replace")

    def test_insert_missing_position(self):
        expect_parse_error(
            'for $b in document("bib.xml")/bib/book update $b '
            'insert <x/> $b',
            "expected before/after/into")

    def test_insert_requires_xml_fragment(self):
        expect_parse_error(
            'for $b in document("bib.xml")/bib/book update $b '
            'insert 42 after $b',
            "expected an XML fragment")

    def test_insert_unterminated_fragment(self):
        expect_parse_error(
            'for $b in document("bib.xml")/bib/book update $b '
            'insert <broken><x/> after $b',
            "unterminated XML fragment")

    def test_replace_missing_with(self):
        expect_parse_error(
            'for $b in document("bib.xml")/bib/book update $b '
            'replace $b/title "x"',
            "expected 'with'")

    def test_where_missing_comparison(self):
        expect_parse_error(
            'for $b in document("bib.xml")/bib/book '
            'where $b/title update $b delete $b',
            "expected comparison in where")

    def test_trailing_input_rejected(self):
        expect_parse_error(
            'for $b in document("bib.xml")/bib/book update $b delete $b '
            'delete $b',
            "trailing input after update")


class TestInsertFragments:
    """The insert fragment is captured tag by tag: a ``>`` or ``<`` in an
    attribute value, a comment or a CDATA section is no tag."""

    @pytest.mark.parametrize("fragment", [
        '<a t="x/>y"><b/></a>',
        "<a><!-- <b> --></a>",
        "<a><![CDATA[<b>]]></a>",
    ])
    def test_valid_fragment_is_captured_whole(self, fragment):
        statement = parse_update(
            'for $p in document("d.xml")/r/p[1] update $p '
            f'insert {fragment} after $p')
        assert statement.fragment_xml == fragment
        assert statement.position == "after"
        assert statement.target_path == ""
        assert len(parse_fragment(fragment)) == 1

    def test_malformed_tag_is_named(self):
        expect_parse_error(
            'for $b in document("bib.xml")/bib/book update $b '
            'insert <x a=1/> after $b',
            "malformed XML fragment")


class TestUnknownVariables:
    def test_update_variable_mismatch_names_both(self):
        with pytest.raises(XQueryParseError) as err:
            parse_update('for $a in document("bib.xml")/bib/book '
                         'update $b delete $b')
        message = str(err.value)
        assert "$b" in message and "$a" in message

    def test_unknown_variable_in_target(self):
        expect_parse_error(
            'for $a in document("bib.xml")/bib/book update $a delete $c',
            "unknown variable $c")

    def test_unknown_variable_in_target_path(self):
        expect_parse_error(
            'for $a in document("bib.xml")/bib/book '
            'update $a delete $c/title',
            "unknown variable $c")


class TestBadPositionalPredicates:
    def test_zero_position_is_actionable(self):
        with pytest.raises(ValueError) as err:
            apply_xquery_update(
                'for $b in document("bib.xml")/bib/book[0] '
                'update $b delete $b', bib_storage())
        assert "positions start at 1" in str(err.value)

    def test_out_of_range_position_matches_nothing(self):
        requests = apply_xquery_update(
            'for $b in document("bib.xml")/bib/book[99] '
            'update $b delete $b', bib_storage())
        assert requests == []

    def test_unclosed_positional_predicate(self):
        expect_parse_error(
            'for $b in document("bib.xml")/bib/book[2 update $b delete $b',
            "expected ']'")

    def test_predicate_without_comparison(self):
        expect_parse_error(
            'for $b in document("bib.xml")/bib/book[title] '
            'update $b delete $b',
            "expected comparison operator in predicate")


class TestPathAddressing:
    """The builder's path grammar shares the parser; its errors must be
    actionable too."""

    def test_empty_path(self):
        with pytest.raises(XQueryParseError) as err:
            parse_document_path("bib.xml", "   ")
        assert "empty path" in str(err.value)

    def test_trailing_garbage_named(self):
        with pytest.raises(XQueryParseError) as err:
            parse_document_path("bib.xml", "/bib/book]2[")
        assert "trailing input after path" in str(err.value)

    def test_unclosed_predicate(self):
        with pytest.raises(XQueryParseError):
            parse_document_path("bib.xml", "/bib/book[2")

    def test_leading_slash_optional(self):
        storage = bib_storage()
        assert resolve_path(storage, "bib.xml", "bib/book") \
            == resolve_path(storage, "bib.xml", "/bib/book")

    def test_intermediate_positional_predicate_resolves(self):
        storage = bib_storage()
        keys = resolve_path(storage, "bib.xml", "/bib/book[2]/title")
        assert len(keys) == 1
        assert storage.text(keys[0]) == "Data on the Web"

    def test_positional_predicate_counts_per_parent(self):
        # XPath semantics: /bib/book/author[2] is every book's second
        # author, not the second author of the whole document.
        storage = StorageManager()
        storage.register(XmlDocument.from_string("b.xml", (
            "<bib>"
            "<book><author>A1</author><author>A2</author></book>"
            "<book><author>B1</author><author>B2</author></book>"
            "</bib>")))
        keys = resolve_path(storage, "b.xml", "/bib/book/author[2]")
        assert [storage.text(k) for k in keys] == ["A2", "B2"]
        # and out-of-range within every parent matches nothing
        assert resolve_path(storage, "b.xml", "/bib/book/author[3]") == []
