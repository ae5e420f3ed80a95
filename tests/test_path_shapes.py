"""Path-addressed targets parse once per shape.

``parse_document_path`` memoizes the parse of a path's *shape* (the
path split around its positional predicates) and binds each
statement's own positions into it.  Over a corpus of target paths, the
bound parse must equal a fresh, uncached parse of the path as written,
resolve to the same keys, and fail the same way.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.workloads import xmark
from repro.xquery.parser import XQueryParseError
from repro.xquery.updates import (_parse_shape, parse_document_path,
                                  resolve_path_expr)

DOCUMENT = "site.xml"

CORPUS = [
    "/site/people/person[3]",
    "site/people/person[4]/name",
    "/site/people/person[2]/address[1]/city[1]",
    "/site/closed_auctions/closed_auction[3]/seller[1]",
    "/site/people/person[1][2]",
    "/site/people/person[007]/address/city",
    "/site/people/person[ 3 ]/address/city",
    "/site/people/person[\t5\n]",
    "//person[2]/name",
    "/site//city[1]",
    "//closed_auction[2]//date",
    "/site/people/person[4]/@id",
    "/site/people/person[4]/name/text()",
    "/site/people/person[5]/profile/@income",
    '/site/people/person[name = "Person Name 4"]',
    '/site/people/person[name = "Person Name 4"][1]',
    '/site/people/person[2][name = "Person Name 1"]',
    '/site/people/person[name = "a[2]"][1]',
    "/site/people/person[name = 'x [3] y']/address/city",
    '/site/people/person[profile/age > 30][2]/name',
    '/site/people/person[profile/@income >= "50000"]',
    "/site/people/person[(: the third :) 3]/name",
    "/site/people/person[0]",
    "/site/people/person[12][0]",
    "/site/people/person[99]",
    "/site/people/nowhere[1]",
]

MALFORMED = [
    "   ",
    "/site/people/person[2",
    "/site/people/person]2[",
    '/site/people/person[name = "a[2]]',
    "/site/people/person[2]/",
    "/site/people/person[name][2]",
    "/site/people/person[1]]",
]


@pytest.fixture(scope="module")
def storage():
    db = Database()
    db.load(DOCUMENT, xmark.generate_site(20, seed=7))
    return db.storage


def fresh(text: str):
    """The uncached parse of ``text`` as written (one piece, no split)."""
    return _parse_shape.__wrapped__(DOCUMENT, (text,))[0]


def resolved(storage, expr, cache=None):
    """Resolved key strings, or the error the resolution raises."""
    try:
        return [key.value for key in resolve_path_expr(storage, expr, cache)]
    except ValueError as exc:
        return ("ValueError", str(exc))


@pytest.mark.parametrize("path", CORPUS)
def test_bound_parse_equals_a_fresh_parse_and_resolves_the_same(storage,
                                                                path):
    expr = parse_document_path(DOCUMENT, path)
    assert expr == fresh(path)
    assert resolved(storage, expr) == resolved(storage, fresh(path))
    assert resolved(storage, expr, {}) == resolved(storage, expr)


def test_the_corpus_reaches_every_kind_of_answer(storage):
    answers = [resolved(storage, parse_document_path(DOCUMENT, path))
               for path in CORPUS]
    assert sum(isinstance(answer, tuple) for answer in answers) == 2
    assert [] in answers
    assert any(isinstance(answer, list) and len(answer) > 1
               for answer in answers)


def test_zero_position_is_refused_at_resolution(storage):
    expr = parse_document_path(DOCUMENT, "/site/people/person[0]")
    with pytest.raises(ValueError, match="positions start at 1"):
        resolve_path_expr(storage, expr)


@pytest.mark.parametrize("path", MALFORMED)
def test_malformed_paths_raise_as_the_uncached_parse_does(path):
    with pytest.raises(XQueryParseError) as uncached:
        fresh(path)
    with pytest.raises(XQueryParseError) as shaped:
        parse_document_path(DOCUMENT, path)
    assert str(shaped.value) == str(uncached.value)


def test_paths_differing_only_in_positions_share_one_shape(storage):
    _parse_shape.cache_clear()
    paths = [f"/site/people/person[{k}]/address/city" for k in range(1, 21)]
    paths += [f"/site/people/person[ {k} ]/address/city" for k in (3, 9)]
    exprs = [parse_document_path(DOCUMENT, path) for path in paths]
    assert _parse_shape.cache_info().currsize == 1
    # binding never writes into the shared shape
    assert [expr.predicates[2][0].literal for expr in exprs] \
        == [str(k) for k in range(1, 21)] + ["3", "9"]
    assert [resolved(storage, expr) for expr in exprs] \
        == [resolved(storage, fresh(path)) for path in paths]
    # a string literal keeps its path a shape of its own
    parse_document_path(DOCUMENT, '/site/people/person[name = "a[2]"][4]')
    parse_document_path(DOCUMENT, '/site/people/person[name = "a[2]"][5]')
    assert _parse_shape.cache_info().currsize == 3
