"""Parser/evaluator for the XQuery update language subset of [TIHW01].

Covers the three primitives of Fig 1.3:

.. code-block:: none

    for $v in document("d.xml")/path[pred]
    (where $v/path = "literal")?
    update $v (
        insert <fragment/> (before | after | into) $v2
      | delete $v2
      | replace $v2 with "literal"
    )

``$v2`` is ``$v`` or a path below it.  Positional predicates ``[n]`` are
allowed in update targets (they are evaluated directly against storage,
unlike query predicates).  Evaluation turns the statement into concrete
:class:`~repro.updates.UpdateRequest` objects against a storage manager.

A ``replace`` statement resolves to a modify request; downstream, the
Validate phase classifies it per view — irrelevant (storage only),
sufficient (content refresh) or first-class (the replaced text travels
as a retract/assert pair when it feeds predicates or sort keys; see
:mod:`repro.updates.sapt`).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from ..flexkeys import LEVEL_SEP, FlexKey
from ..storage import StorageManager
from ..updates.primitives import UpdateRequest
from ..xat.paths import Path
from ..xmlmodel.parser import _CLOSE_TAG, _OPEN_TAG
from .ast import PathExpr, PredicateExpr, VarRef
from .parser import XQueryParseError, XQueryParser

_COMPARISONS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass
class UpdateStatement:
    """One parsed ``for … update …`` statement."""

    var: str
    binding: PathExpr
    where: Optional[tuple[str, str, str]]   # (relative path, op, literal)
    action: str                             # insert / delete / replace
    target_path: str                        # path below $v ("" = $v itself)
    fragment_xml: Optional[str] = None      # for insert
    position: Optional[str] = None          # before / after / into
    new_value: Optional[str] = None         # for replace


def parse_update(text: str) -> UpdateStatement:
    parser = _UpdateParser(text)
    statement = parser.parse()
    parser.skip_ws()
    if not parser.at_end():
        raise XQueryParseError("trailing input after update", parser.pos)
    return statement


class _UpdateParser(XQueryParser):
    def parse(self) -> UpdateStatement:
        if not self.take_keyword("for"):
            raise self.error("expected 'for'")
        self.expect("$")
        var = self.parse_name()
        if not self.take_keyword("in"):
            raise self.error("expected 'in'")
        binding = self.parse_single()
        if not isinstance(binding, PathExpr) or not binding.from_document:
            raise self.error("update binding must be a document path")
        where = None
        if self.take_keyword("where"):
            left = self.parse_single()
            self.skip_ws()
            op = None
            for candidate in ("!=", "<=", ">=", "=", "<", ">"):
                if self.try_token(candidate):
                    op = candidate
                    break
            if op is None:
                raise self.error("expected comparison in where")
            self.skip_ws()
            if self.peek() in "'\"“":
                literal = self.parse_string()
            else:
                literal = self.parse_number().value
            rel = self._relative_of(left, var)
            where = (rel, op, literal)
        if not self.take_keyword("update"):
            raise self.error("expected 'update'")
        self.expect("$")
        update_var = self.parse_name()
        if update_var != var:
            raise self.error(f"update variable ${update_var} is not ${var}")
        self.skip_ws()
        if self.take_keyword("insert"):
            fragment_xml = self._parse_raw_fragment()
            position = None
            for candidate in ("before", "after", "into"):
                if self.take_keyword(candidate):
                    position = candidate
                    break
            if position is None:
                raise self.error("expected before/after/into")
            target = self.parse_single()
            return UpdateStatement(var, binding, where, "insert",
                                   self._relative_of(target, var),
                                   fragment_xml=fragment_xml,
                                   position=position)
        if self.take_keyword("delete"):
            target = self.parse_single()
            return UpdateStatement(var, binding, where, "delete",
                                   self._relative_of(target, var))
        if self.take_keyword("replace"):
            target = self.parse_single()
            if not self.take_keyword("with"):
                raise self.error("expected 'with'")
            self.skip_ws()
            value = self.parse_string() if self.peek() in "'\"“" \
                else self.parse_number().value
            rel = self._relative_of(target, var)
            if rel.endswith("text()"):
                rel = rel[:-len("/text()")] if rel != "text()" else ""
            return UpdateStatement(var, binding, where, "replace", rel,
                                   new_value=value)
        raise self.error("expected insert/delete/replace")

    def _relative_of(self, expr, var: str) -> str:
        if isinstance(expr, VarRef):
            if expr.name != var:
                raise self.error(f"unknown variable ${expr.name}")
            return ""
        if isinstance(expr, PathExpr) and isinstance(expr.source, VarRef):
            if expr.source.name != var:
                raise self.error(f"unknown variable ${expr.source.name}")
            return expr.path
        raise self.error("expected $var or $var/path")

    def _parse_raw_fragment(self) -> str:
        """Capture the inserted XML verbatim (one balanced element), tag
        by tag: comments, CDATA sections and PIs are skipped whole, so a
        ``<`` or ``>`` inside them or in an attribute value is no tag."""
        self.skip_ws()
        if self.peek() != "<":
            raise self.error("expected an XML fragment")
        start = self.pos
        depth = 0
        for match in _MARKUP.finditer(self.text, start):
            if match[2] is not None:            # a close tag
                ended, depth = match[2], depth - 1
            elif match[3] is not None:          # an open tag
                ended = match[3] and match[5]
                depth += ended == ">"
            else:                               # a comment, CDATA, PI
                continue
            if not ended:
                raise XQueryParseError("malformed XML fragment",
                                       match.start())
            if depth == 0:
                self.pos = match.end()
                return self.text[start:self.pos]
        raise self.error("unterminated XML fragment")


#: one markup construct: a comment, CDATA section or PI (skipped whole),
#: else a close tag (groups 1-2) or an open tag (groups 3-5) as the XML
#: parser reads them — a malformed one matches its well-formed prefix
_MARKUP = re.compile(rf"<!--.*?-->|<!\[CDATA\[.*?]]>|<\?.*?\?>"
                     rf"|{_CLOSE_TAG.pattern}|{_OPEN_TAG.pattern}", re.DOTALL)


def evaluate_update(statement: UpdateStatement, storage: StorageManager,
                    cache: Optional[dict] = None) -> list[UpdateRequest]:
    """Resolve a parsed update statement into concrete update requests.

    ``cache`` is the flush-wide navigation cache of
    :func:`resolve_path_expr`: the binding path of a string statement
    shares navigation with every other statement of its batch."""
    document = statement.binding.source
    bindings = resolve_path_expr(storage, statement.binding, cache)
    if statement.where is not None:
        rel, op, literal = statement.where
        bindings = [key for key in bindings
                    if _where_matches(storage, key, rel, op, literal)]
    requests: list[UpdateRequest] = []
    for key in bindings:
        targets = _resolve_relative(storage, key, statement.target_path)
        for target in targets:
            if statement.action == "insert":
                position = statement.position
                requests.append(UpdateRequest.insert(
                    document, target, statement.fragment_xml,
                    position=position))
            elif statement.action == "delete":
                requests.append(UpdateRequest.delete(document, target))
            else:
                requests.append(UpdateRequest.modify(
                    document, target, statement.new_value))
    return requests


#: a positional predicate: a path split on it is its shape's text pieces
#: at even and its positions at odd indexes
_POSITION = re.compile(r"\[[ \t\r\n]*(\d+)[ \t\r\n]*\]")


def parse_document_path(document: str, text: str) -> PathExpr:
    """Parse a path-addressed target like ``/bib/book[2]/title`` into a
    :class:`PathExpr` rooted at ``document``.

    The grammar is the update-target path language: child ``/`` and
    descendant ``//`` steps, ``@attr``/``text()`` value steps, positional
    predicates ``[n]`` and value predicates ``[rel/path op literal]`` on
    any step.  A leading slash is optional.

    Parses are memoized per *shape*, the path split around its
    positional predicates: sessions address a few shapes at many
    positions (``/site/people/person[k]/…``), so a statement only binds
    its positions into a copy of its shape's parse, which is never
    mutated downstream.  A path holding a string literal or a comment
    (either may hold a ``[k]`` that is no position) is its own shape.
    """
    if '"' in text or "'" in text or "(:" in text:
        return _parse_shape(document, (text,))[0]
    pieces = _POSITION.split(text)
    try:
        shape, slots = _parse_shape(document, tuple(pieces[0::2]))
    except XQueryParseError:
        # raises again, at the offsets of the path as written
        return _parse_shape(document, (text,))[0]
    if not slots:
        return shape
    predicates = dict(shape.predicates)
    for (step, index), position in zip(slots, pieces[1::2]):
        bound = predicates[step] = list(predicates[step])
        bound[index] = PredicateExpr("position()", "=", position)
    return PathExpr(document, shape.path, predicates)


@lru_cache(maxsize=4096)
def _parse_shape(document: str, pieces: tuple) -> tuple[PathExpr, tuple]:
    """The parse of the path ``"[1]".join(pieces)`` and the (step,
    predicate index) slot of each positional predicate in it, in text
    order."""
    stripped = "[1]".join(pieces).strip()
    if not stripped:
        raise XQueryParseError("empty path", 0)
    if not stripped.startswith("/"):
        stripped = "/" + stripped
    parser = XQueryParser(stripped)
    path, predicates = parser._parse_relative_path()
    parser.skip_ws()
    if not parser.at_end():
        raise XQueryParseError(
            f"trailing input after path: {parser.text[parser.pos:]!r}",
            parser.pos)
    slots = tuple((step, index) for step in sorted(predicates)
                  for index, predicate in enumerate(predicates[step])
                  if predicate.path == "position()")
    return PathExpr(document, path, predicates), slots


def resolve_path(storage: StorageManager, document: str,
                 text: str) -> list[FlexKey]:
    """Resolve a path-addressed target to concrete FlexKeys, in document
    order — the session API's path→key entry point."""
    return resolve_path_expr(storage, parse_document_path(document, text))


def resolve_path_expr(storage: StorageManager, expr: PathExpr,
                      cache: Optional[dict] = None) -> list[FlexKey]:
    """Resolve a document-rooted :class:`PathExpr`, applying each step's
    predicates before the following step navigates on.

    A positional predicate on a child-step-only prefix —
    ``/site/people/person[k]``, the shape almost every update statement
    has — never materializes its candidates: the structural index
    keeps one sorted key list per root-to-node tag path, so the
    ``k``-th match under each parent is one binary search
    (:meth:`StructuralIndex.nth_children`), O(parents · log N).  The
    route is taken when the *first* predicated step is reached from the
    document node through child steps only and its first predicate is
    ``[k]`` with k ≥ 1; everything else (``//`` steps, value predicates,
    a ``[k]`` after another predicate, ``[0]``) navigates the candidates
    and filters them.  Child steps behind a child-step prefix walk the
    frontier's children without find_by_path's merge (see ``navigate``).

    ``cache`` memoizes navigation segments across resolutions *of the
    same storage snapshot* (keyed by document, step prefix and the
    predicates already applied) — a transactional batch resolves every
    statement before applying any, so statements addressing siblings
    (``//person[1]``, ``//person[2]``, …) share one navigation pass.
    Never reuse a cache across storage mutations.
    """
    if not expr.from_document:
        raise ValueError("path must be rooted at a document")
    pairs, tags, child_steps = _steps(expr.path)
    frontier: Optional[list[FlexKey]] = None
    consumed = 0
    applied: tuple = ()   # signature of the predicates applied so far

    def navigate(upto: int) -> list[FlexKey]:
        if upto == consumed and frontier is not None:
            return frontier
        if frontier is not None and upto <= child_steps:
            # a frontier one depth deep, in document order: its children
            # come out in document order with no duplicates
            keys = frontier
            for tag in tags[consumed:upto]:
                keys = [child for key in keys
                        for child in storage.children(key, tag)]
            return keys
        if cache is None:
            return storage.find_by_path(expr.source, pairs[consumed:upto],
                                        start=frontier)
        key = (expr.source, pairs[:upto], applied)
        hit = cache.get(key)
        if hit is None:
            hit = storage.find_by_path(expr.source, pairs[consumed:upto],
                                       start=frontier)
            cache[key] = hit
        return hit

    for step_index in sorted(expr.predicates):
        predicates = expr.predicates[step_index]
        first = predicates[0]
        if (frontier is None and step_index < child_steps
                and first.path == "position()" and int(first.literal) >= 1
                and storage.has_document(expr.source)):
            # the index route (the generic one refuses ``[0]`` and an
            # unknown document)
            frontier = storage.index.nth_children(
                expr.source, tags[:step_index + 1], int(first.literal))
            applied += (_signature(step_index, first),)
            predicates = predicates[1:]
        else:
            frontier = navigate(step_index + 1)
        consumed = step_index + 1
        for predicate in predicates:
            frontier_key = ((expr.source, pairs[:consumed], applied)
                            if cache is not None else None)
            frontier = _apply_predicate(storage, frontier, predicate,
                                        cache, frontier_key)
            applied += (_signature(step_index, predicate),)
    return navigate(len(pairs))


@lru_cache(maxsize=4096)
def _steps(path: str) -> tuple[tuple, tuple, int]:
    """A path's (axis, test) pairs, their tests, and how many steps lead
    it on the child axis."""
    pairs = tuple(Path.parse(path).as_pairs())
    child_steps = next((at for at, (axis, _test) in enumerate(pairs)
                        if axis != "child"), len(pairs))
    return pairs, tuple(test for _axis, test in pairs), child_steps


def _signature(step_index: int, predicate: PredicateExpr) -> tuple:
    return (step_index, predicate.path, predicate.op, predicate.literal)


def _apply_predicate(storage, keys, predicate: PredicateExpr,
                     cache: Optional[dict] = None,
                     frontier_key=None) -> list[FlexKey]:
    if predicate.path == "position()":
        position = int(predicate.literal)
        if position < 1:
            raise ValueError(
                f"positional predicate [{predicate.literal}] is invalid: "
                "positions start at 1")
        # XPath semantics: position counts within each parent's matches,
        # so ``/bib/book/author[2]`` addresses every book's second
        # author.  The per-parent grouping depends only on the frontier,
        # not the position, so a batch addressing siblings (//person[1],
        # //person[2], …) shares one grouping pass through the navigation
        # cache; parents are derived lexically from the FlexKeys (storage
        # keys never compose), avoiding a node resolution per candidate.
        groups = None
        groups_key = None
        if cache is not None and frontier_key is not None:
            groups_key = ("position-groups", frontier_key)
            groups = cache.get(groups_key)
        if groups is None:
            groups = {}
            for key in keys:
                value = key.value
                sep = value.rfind(LEVEL_SEP)
                groups.setdefault(value[:sep] if sep >= 0 else "",
                                  []).append(key)
            if groups_key is not None:
                cache[groups_key] = groups
        return [members[position - 1] for members in groups.values()
                if len(members) >= position]
    return [key for key in keys
            if _where_matches(storage, key, predicate.path, predicate.op,
                              predicate.literal)]


def _where_matches(storage, key: FlexKey, relative: str, op: str,
                   literal: str) -> bool:
    values = []
    if relative in ("", "text()"):
        values.append(storage.text(key))
    else:
        path = Path.parse(relative)
        attribute = None
        for step in path.value_steps():
            if step.is_attribute:
                attribute = step.attribute_name
        for target in _resolve_relative(storage, key, relative):
            if attribute is not None:
                value = storage.attribute(target, attribute)
                if value is not None:
                    values.append(value)
            else:
                values.append(storage.text(target))
    fn = _COMPARISONS[op]
    for value in values:
        try:
            if fn(float(value), float(literal)):
                return True
        except ValueError:
            if fn(value, literal):
                return True
    return False


def _resolve_relative(storage, key: FlexKey, relative: str
                      ) -> list[FlexKey]:
    if not relative:
        return [key]
    current = [key]
    for step in Path.parse(relative).element_steps():
        find = (storage.children if step.axis == "child"
                else storage.descendants)
        current = [found for k in current for found in find(k, step.test)]
    return current


def apply_xquery_update(text: str, storage: StorageManager
                        ) -> list[UpdateRequest]:
    """Parse an XQuery-update statement and resolve it against storage."""
    return evaluate_update(parse_update(text), storage)
