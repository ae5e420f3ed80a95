"""In-memory XML node model.

Nodes are plain trees; FlexKeys and root-to-node tag paths are assigned
by the storage manager when a document (or update fragment) is
registered, never by the nodes themselves.

Attribute maps and child lists are shared values, replaced and never
mutated: an attribute-less node holds the read-only
:data:`EMPTY_ATTRIBUTES`, a write installs a new dict (so a copy shares
the map it copies), and a text node's ``children`` is ``()``.
"""

from __future__ import annotations

import copyreg
import sys
from types import MappingProxyType
from typing import Iterator, Mapping, Optional

ELEMENT = "element"
TEXT = "text"

#: The one attribute map of every attribute-less node (and extent node).
EMPTY_ATTRIBUTES: Mapping[str, str] = MappingProxyType({})
# pickled and deep-copied as the plain dict older checkpoints hold
copyreg.pickle(MappingProxyType, lambda proxy: (dict, (dict(proxy),)))


class XmlNode:
    """One XML node: an element (with attributes and children) or a text node.

    Attributes are stored inline on elements as an ordered ``dict`` — the
    paper's query subset only ever reads attribute *values* (``@year``),
    never treats attributes as independently ordered siblings.
    """

    __slots__ = ("kind", "tag", "value", "attributes", "children", "parent",
                 "key", "path")

    def __init__(self, kind: str, tag: Optional[str] = None,
                 value: Optional[str] = None):
        if kind not in (ELEMENT, TEXT):
            raise ValueError(f"unknown node kind {kind!r}")
        self.kind = kind
        self.tag = tag
        self.value = value
        self.attributes: Mapping[str, str] = EMPTY_ATTRIBUTES
        self.children: list["XmlNode"] = [] if kind == ELEMENT else ()
        self.parent: Optional["XmlNode"] = None
        self.key = None  # FlexKey, set by the storage manager
        # root-to-node element tag path (one tuple per distinct path),
        # set with ``key``
        self.path = None

    # -- constructors -----------------------------------------------------------

    @classmethod
    def element(cls, tag: str, attributes: Optional[Mapping[str, str]] = None,
                children: Optional[list["XmlNode"]] = None) -> "XmlNode":
        node = cls(ELEMENT, tag=sys.intern(tag))
        if attributes:   # a copy: the caller may write its dict later
            node.attributes = {sys.intern(k): v for k, v in attributes.items()}
        for child in children or []:
            node.append(child)
        return node

    @classmethod
    def text(cls, value: str) -> "XmlNode":
        return cls(TEXT, value=value)

    # -- predicates -------------------------------------------------------------

    @property
    def is_element(self) -> bool:
        return self.kind == ELEMENT

    @property
    def is_text(self) -> bool:
        return self.kind == TEXT

    # -- tree editing -----------------------------------------------------------

    def append(self, child: "XmlNode") -> "XmlNode":
        child.parent = self
        self.children.append(child)
        return child

    def insert(self, index: int, child: "XmlNode") -> "XmlNode":
        child.parent = self
        self.children.insert(index, child)
        return child

    def remove(self, child: "XmlNode") -> None:
        self.children.remove(child)
        child.parent = None

    def detach(self) -> "XmlNode":
        if self.parent is not None:
            self.parent.remove(self)
        return self

    # -- traversal --------------------------------------------------------------

    def iter_subtree(self) -> Iterator["XmlNode"]:
        """This node and all descendants, in document order (pre-order)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def descendants(self, tag: Optional[str] = None) -> list["XmlNode"]:
        """Proper descendants in document order, optionally filtered by tag."""
        result = []
        for node in self.iter_subtree():
            if node is self:
                continue
            if node.is_element and (tag is None or node.tag == tag):
                result.append(node)
        return result

    def text_value(self) -> str:
        """Concatenated text content of the subtree (document order)."""
        if self.is_text:
            return self.value or ""
        parts = []
        for node in self.iter_subtree():
            if node.is_text and node.value:
                parts.append(node.value)
        return "".join(parts)

    def subtree_size(self) -> int:
        return sum(1 for _ in self.iter_subtree())

    # -- copying ----------------------------------------------------------------

    def deep_copy(self) -> "XmlNode":
        """Structural copy without keys or paths (storage assigns both);
        the attribute map is shared (a write replaces it)."""
        clone = XmlNode(self.kind, tag=self.tag, value=self.value)
        clone.attributes = self.attributes
        for child in self.children:
            clone.append(child.deep_copy())
        return clone

    def structure_equal(self, other: "XmlNode") -> bool:
        """Deep equality of tag/attrs/text/children order (keys ignored)."""
        if (self.kind, self.tag, self.value) != (other.kind, other.tag, other.value):
            return False
        if self.attributes != other.attributes:
            return False
        if len(self.children) != len(other.children):
            return False
        return all(a.structure_equal(b)
                   for a, b in zip(self.children, other.children))

    def __repr__(self) -> str:
        if self.is_text:
            return f"Text({self.value!r})"
        key = f" key={self.key}" if self.key is not None else ""
        return f"<{self.tag}{key} children={len(self.children)}>"
