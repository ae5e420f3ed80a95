"""Skeletons for constructed XML nodes (Section 3.3.1, "Constructed Nodes").

A constructed node is never instantiated as a full tree during execution.
Instead a *skeleton* records its tag, attributes and an ordered list of
content items, each of which is either a reference (a FlexKey of a base node
or the id of another constructed node) or an inline atomic value.  The final
result (and the materialized view extent) is produced by de-referencing
skeletons recursively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..flexkeys import FlexKey

#: Content item of a skeleton: a reference to base/constructed node, or text.
REF = "ref"
VALUE = "value"


@dataclass
class ContentItem:
    """One ordered content entry of a constructed node.

    ``count``/``refresh`` carry the maintenance annotations of the item that
    produced this entry; ``skeleton`` links to the nested constructed node
    when the reference is not a base node.  ``agg`` carries incremental
    aggregate state for aggregate-valued entries.
    """

    kind: str                       # REF or VALUE
    key: Optional[FlexKey] = None   # for REF: possibly carrying override order
    text: Optional[str] = None      # for VALUE
    count: int = 1
    refresh: bool = False
    skeleton: Optional["Skeleton"] = None
    agg: object = None


@dataclass
class Skeleton:
    """Structure of one constructed node: ``<tag attrs>content</tag>``."""

    node_id: FlexKey
    tag: str
    attributes: Mapping[str, str]   # shared: replaced, never written
    content: list[ContentItem]
    count: int = 1

    def __repr__(self) -> str:
        return (f"Skeleton({self.node_id}, <{self.tag}>, "
                f"{len(self.content)} items)")
