"""A small, dependency-free XML parser producing :class:`XmlNode` trees.

Covers the subset the paper's documents use: elements, attributes, text,
comments, processing instructions (skipped), CDATA, and the five predefined
entities.  Pure-whitespace text between elements is dropped (data-centric
whitespace handling, matching the Rainbow engine's loader).

One compiled-regex match per tag, one ``str.find`` per text run; the open
elements are the ``parent`` chain of the node being filled (no recursion).
Every part of a tag pattern after the ``<`` is optional, so a malformed tag
matches its well-formed prefix and the error names the offset where it ends.
Names are interned; text and attribute values are pooled per parse (equal
values of one parse are one object) and never interned.
"""

from __future__ import annotations

import re
import sys

from .node import ELEMENT, TEXT, XmlNode


class XmlParseError(ValueError):
    """Raised on malformed XML input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "quot": '"',
    "apos": "'",
}

_NAME = r"[\w\-.:]"
_WS = r"[ \t\r\n]*"
_ATTRIBUTE = rf"{_NAME}+{_WS}={_WS}(?:\"[^\"]*\"|'[^']*')"
#: ``<name attr="v" …`` then ``>`` or ``/>`` (group 3; absent = malformed).
_OPEN_TAG = re.compile(rf"<({_NAME}*)((?:{_WS}{_ATTRIBUTE})*){_WS}(/?>)?")
#: One attribute inside the (well-formed) attribute run of an open tag.
_ATTR = re.compile(rf"({_NAME}+){_WS}={_WS}([\"'])(.*?)\2", re.DOTALL)
#: Where a malformed attribute stops: name, ``=``, opening quote.
_BAD_ATTR = re.compile(rf"({_NAME}*){_WS}(=?){_WS}([\"']?)")
_CLOSE_TAG = re.compile(rf"</({_NAME}*){_WS}(>?)")
_REFERENCE = re.compile(r"&([^;]*)(;?)")
_SPACE = re.compile(_WS)


def parse_document(text: str) -> XmlNode:
    """Parse an XML document string, returning the root element."""
    pos = _skip_misc(text, 0)
    if not text.startswith("<", pos):
        raise XmlParseError("expected '<'", pos)
    root, pos, is_open = _open_tag(text, pos, pool := {})
    if is_open:
        pos = _parse_content(text, pos, root, [], pool)
    pos = _skip_misc(text, pos)
    if pos != len(text):
        raise XmlParseError("trailing content after document element", pos)
    return root


def parse_fragment(text: str) -> list[XmlNode]:
    """Parse a sequence of top-level elements/text (an XML fragment)."""
    nodes: list[XmlNode] = []
    _parse_content(text, 0, None, nodes, {})
    return nodes


def _skip_misc(text: str, pos: int) -> int:
    """Skip whitespace, XML declarations, PIs, comments, DOCTYPE."""
    while True:
        pos = _SPACE.match(text, pos).end()
        if text.startswith("<?", pos):
            end = text.find("?>", pos)
            if end < 0:
                raise XmlParseError("unterminated processing instruction",
                                    pos)
            pos = end + 2
        elif text.startswith("<!--", pos):
            end = text.find("-->", pos)
            if end < 0:
                raise XmlParseError("unterminated comment", pos)
            pos = end + 3
        elif text.startswith("<!DOCTYPE", pos):
            end = text.find(">", pos)
            if end < 0:
                raise XmlParseError("unterminated DOCTYPE", pos)
            pos = end + 1
        else:
            return pos


def _decode_entities(raw: str, position: int) -> str:
    """``raw`` with its references replaced; a bad one is reported at
    ``position`` (an attribute's value start, a text run's end)."""
    def replace(match: re.Match) -> str:
        name, terminated = match.groups()
        if not terminated:
            raise XmlParseError("unterminated entity reference", position)
        if name.startswith("#"):
            try:
                if name[1:2] in ("x", "X"):
                    return chr(int(name[2:], 16))
                return chr(int(name[1:]))
            except (ValueError, OverflowError):
                raise XmlParseError(
                    f"invalid character reference &{name};",
                    position) from None
        if name not in _ENTITIES:
            raise XmlParseError(f"unknown entity &{name};", position)
        return _ENTITIES[name]

    return _REFERENCE.sub(replace, raw)


def _open_tag(text: str, pos: int, pool: dict) -> tuple[XmlNode, int, bool]:
    """The element whose open tag starts at ``pos`` (a ``<``), the
    offset after the tag, and whether content follows (not ``<…/>``)."""
    match = _OPEN_TAG.match(text, pos)
    tag, attributes, close = match.groups()
    if not tag:
        raise XmlParseError("expected a name", pos + 1)
    node = XmlNode(ELEMENT, sys.intern(tag))
    if attributes:
        node.attributes = decoded = {}
        if "&" in attributes:   # a bad reference is reported at its value
            for attr in _ATTR.finditer(text, match.start(2), match.end(2)):
                value = _decode_entities(attr[3], attr.start(3))
                decoded[sys.intern(attr[1])] = pool.setdefault(value, value)
        else:
            for name, _quote, value in _ATTR.findall(attributes):
                decoded[sys.intern(name)] = pool.setdefault(value, value)
    if close is None:
        bad = _BAD_ATTR.match(text, match.end())
        if not bad[1]:
            raise XmlParseError("expected a name", bad.start())
        if not bad[2]:
            raise XmlParseError("expected '='", bad.start(2))
        if not bad[3]:
            raise XmlParseError("expected quoted attribute value",
                                bad.start(3))
        raise XmlParseError("unterminated attribute value", bad.end())
    return node, match.end(), close == ">"


def _parse_content(text: str, pos: int, node: XmlNode | None,
                   top: list[XmlNode], pool: dict) -> int:
    """Lex element content from ``pos``, returning the offset reached.

    With ``node`` (the document element, its open tag consumed): fill it
    and stop after its close tag.  With ``None``: a fragment — lex to the
    end of ``text``, collecting the parentless top-level nodes in ``top``.
    """
    root = node
    length = len(text)
    siblings = top if node is None else node.children
    while pos < length:
        lead = text[pos:pos + 2]
        if lead[0] != "<":
            end = text.find("<", pos)
            if end < 0:
                end = length
            value = text[pos:end]
            if "&" in value:
                value = _decode_entities(value, end)
            value = value.strip()
            pos = end
            if value:
                child = XmlNode(TEXT, None, pool.setdefault(value, value))
                child.parent = node
                siblings.append(child)
        elif lead == "</":
            if node is None:
                raise XmlParseError("unexpected close tag", pos)
            expected = f"</{node.tag}>"
            if text.startswith(expected, pos):   # the usual spelling
                pos += len(expected)
            else:
                match = _CLOSE_TAG.match(text, pos)
                name = match[1]
                if not name:
                    raise XmlParseError("expected a name", pos + 2)
                if name != node.tag:
                    raise XmlParseError(
                        f"mismatched close tag </{name}> for <{node.tag}>",
                        match.end(1))
                pos = match.end()
                if not match[2]:
                    raise XmlParseError("expected '>'", pos)
            if node is root:
                return pos
            node = node.parent
            siblings = top if node is None else node.children
        elif lead == "<?":
            end = text.find("?>", pos)
            if end < 0:
                raise XmlParseError("unterminated PI", pos)
            pos = end + 2
        elif lead == "<!" and text.startswith("<!--", pos):
            end = text.find("-->", pos)
            if end < 0:
                raise XmlParseError("unterminated comment", pos)
            pos = end + 3
        elif lead == "<!" and text.startswith("<![CDATA[", pos):
            end = text.find("]]>", pos)
            if end < 0:
                raise XmlParseError("unterminated CDATA", pos)
            value = text[pos + 9:end]
            child = XmlNode(TEXT, None, pool.setdefault(value, value))
            child.parent = node
            siblings.append(child)
            pos = end + 3
        else:
            child, pos, is_open = _open_tag(text, pos, pool)
            child.parent = node
            siblings.append(child)
            if is_open:
                node = child
                siblings = child.children
    if node is not None:
        raise XmlParseError(f"unterminated element <{node.tag}>", pos)
    return pos
