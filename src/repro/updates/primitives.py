"""Source update primitives and update trees (Chapter 5).

An :class:`UpdateRequest` is the user-facing description of one source
update — insert a fragment at a position, delete a fragment, or replace a
leaf text value (the three primitives of Fig 1.3 / Fig 5.1).  The Validate
phase turns accepted requests into :class:`UpdateTree`\\ s — the (key, kind)
roots the Propagate phase navigates — applying the storage change at the
right point of the pipeline (inserts/modifies before propagation, deletes
after, so counts line up with Chapter 6's rules).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..flexkeys import FlexKey
from ..xat.base import DELETE, INSERT, MODIFY
from ..xmlmodel import XmlNode, parse_fragment
from .errors import UpdateError

POSITIONS = ("after", "before", "into")


@dataclass
class UpdateRequest:
    """One source update primitive.

    * ``insert``: ``fragment`` is placed relative to ``target``
      (``position``: "after"/"before" sibling, or "into" = last child);
    * ``delete``: the subtree rooted at ``target`` is removed;
    * ``modify``: the text content of the element at ``target`` is replaced
      with ``new_value``.
    """

    kind: str
    document: str
    target: FlexKey
    fragment: Optional[XmlNode] = None
    position: str = "after"
    new_value: Optional[str] = None

    def __post_init__(self):
        if self.kind not in (INSERT, DELETE, MODIFY):
            raise UpdateError(f"unknown update kind {self.kind!r}")
        if self.position not in POSITIONS:
            # Validated for every kind: a bad position on a delete/modify
            # is a caller bug even though those kinds never read it.
            raise UpdateError(
                f"unknown position {self.position!r} for {self.kind} "
                f"(expected one of {', '.join(POSITIONS)})")
        if self.kind == INSERT and self.fragment is None:
            raise UpdateError("insert requires a fragment")
        if self.kind == MODIFY and self.new_value is None:
            raise UpdateError("modify requires new_value")

    @classmethod
    def insert(cls, document: str, target: FlexKey,
               fragment: XmlNode | str,
               position: str = "after") -> "UpdateRequest":
        if isinstance(fragment, str):
            nodes = parse_fragment(fragment)
            if len(nodes) != 1:
                raise UpdateError("insert fragment must be a single element")
            fragment = nodes[0]
        return cls(INSERT, document, target, fragment=fragment,
                   position=position)

    @classmethod
    def delete(cls, document: str, target: FlexKey) -> "UpdateRequest":
        return cls(DELETE, document, target)

    @classmethod
    def modify(cls, document: str, target: FlexKey,
               new_value: str) -> "UpdateRequest":
        return cls(MODIFY, document, target, new_value=new_value)


@dataclass
class UpdateTree:
    """A validated update root: the unit the Propagate phase consumes.

    A *first-class modify* tree carries the replaced text as an
    ``(old_value, new_value)`` pair: the Propagate phase then emits a
    paired retraction (old value, count -1) and assertion (new value,
    count +1) through the operator stack instead of a content refresh —
    the treatment value changes need when they feed predicates, join
    keys or sort keys (re-routing a derivation is not expressible as a
    count-neutral refresh).  Sufficient modifies leave the pair unset
    and propagate as refreshes, as before.
    """

    document: str
    root: FlexKey
    kind: str
    old_value: Optional[str] = None
    new_value: Optional[str] = None
    #: the replaced text children (see :class:`repro.xat.base.DeltaRoot`)
    old_texts: Optional[tuple] = None

    @property
    def sign(self) -> int:
        return {INSERT: 1, DELETE: -1, MODIFY: 0}[self.kind]

    @property
    def has_pair(self) -> bool:
        """Whether this is a first-class modify (retract/assert pair)."""
        return self.kind == MODIFY and self.old_value is not None
