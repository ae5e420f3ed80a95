"""The fluent, path-addressed update builder.

``db.update("bib.xml").at("/bib/book[2]").insert(fragment,
position="after")`` builds a first-class :class:`Update` — a *statement*
addressing nodes by location path, not by raw FlexKey.  Paths are parsed
eagerly (malformed paths fail at the call site) but resolved to keys
lazily, when the statement is applied: immediately outside a batch, at
flush time inside one, always against the storage snapshot the whole
batch sees.

Terminal methods (:meth:`UpdateSite.insert` / :meth:`~UpdateSite.delete`
/ :meth:`~UpdateSite.replace_with`) submit the statement to the owning
:class:`~repro.api.Database` and return it; after application the
statement carries the concrete resolved requests and the maintenance
report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..flexkeys import FlexKey
from ..storage import StorageManager
from ..updates.errors import UpdateError
from ..updates.primitives import POSITIONS, UpdateRequest
from ..xmlmodel import XmlNode, parse_fragment
from ..xquery.updates import parse_document_path, resolve_path_expr

__all__ = ["DocumentUpdater", "Update", "UpdateSite"]


@dataclass
class Update:
    """One submitted update statement (builder- or string-originated).

    Before application, the statement is a *description*; ``resolve``
    turns it into concrete :class:`~repro.updates.UpdateRequest`\\ s
    against a storage snapshot.  After application ``applied`` is True,
    ``requests`` holds the resolved primitives and ``report`` the
    :class:`~repro.multiview.MultiViewReport` of the stream that carried
    them.
    """

    action: str                      # insert / delete / replace / execute
    document: str
    path: Optional[str] = None       # builder statements
    statement: Optional[str] = None  # execute() statements
    position: Optional[str] = None
    require_match: bool = True       # builder paths must address something
    applied: bool = False
    requests: List[UpdateRequest] = field(default_factory=list)
    report: object = None
    _resolver: Optional[Callable[..., List[UpdateRequest]]] = None

    def resolve(self, storage: StorageManager,
                cache: Optional[dict] = None) -> List[UpdateRequest]:
        """Resolve this statement to concrete update requests.

        ``cache`` shares navigation work across the statements of one
        flush (they all resolve against the same snapshot)."""
        return self._resolver(storage, cache)

    def describe(self) -> str:
        if self.action == "execute":
            return f"execute: {self.statement}"
        where = f"{self.path} in {self.document!r}"
        if self.action == "insert":
            return f"insert {self.position} {where}"
        if self.action == "replace":
            return f"replace text at {where}"
        return f"{self.action} {where}"

    def __repr__(self) -> str:  # keeps tracebacks and errors readable
        state = "applied" if self.applied else "pending"
        return f"<Update {self.describe()} [{state}]>"


class DocumentUpdater:
    """``db.update(document)`` — the entry of the fluent builder."""

    def __init__(self, db, document: str):
        self._db = db
        self.document = document

    def at(self, path: str) -> "UpdateSite":
        """Address the node(s) at ``path`` (e.g. ``/bib/book[2]``).

        The path is parsed now — typos fail here, with the offending
        path — and resolved against storage when the statement applies.
        A path may address several nodes; the statement then expands to
        one update request per node, in document order.
        """
        try:
            expr = parse_document_path(self.document, path)
        except ValueError as exc:
            raise UpdateError(
                f"malformed path {path!r}: {exc}", statement=path) from exc
        return UpdateSite(self._db, self.document, path, expr)


class UpdateSite:
    """A path-addressed site; terminal methods build and submit Updates."""

    def __init__(self, db, document: str, path: str, expr):
        self._db = db
        self.document = document
        self.path = path
        self._expr = expr

    def _keys(self, storage: StorageManager,
              cache: Optional[dict] = None) -> List[FlexKey]:
        return resolve_path_expr(storage, self._expr, cache)

    def insert(self, fragment, position: str = "after") -> Update:
        """Insert ``fragment`` relative to the addressed node(s):
        ``after``/``before`` as a sibling, ``into`` as the last child."""
        if position not in POSITIONS:
            raise UpdateError(
                f"unknown position {position!r} "
                f"(expected one of {', '.join(POSITIONS)})")
        if isinstance(fragment, str):
            nodes = parse_fragment(fragment)
            if len(nodes) != 1:
                raise UpdateError("insert fragment must be a single element")
            node = nodes[0]
            unused = [node]     # the parse itself goes to the first target
        elif isinstance(fragment, XmlNode):
            node = fragment
            unused = []         # the caller's node is never handed over
        else:
            raise UpdateError(
                f"insert fragment must be an XML string or XmlNode, "
                f"not {type(fragment).__name__}")

        def resolver(storage: StorageManager,
                     cache=None) -> List[UpdateRequest]:
            # Storage takes ownership of the inserted tree, so one node
            # object must never alias two insertion sites: every target
            # but the first gets a copy of the build-time parse (the
            # fragment is parsed once, not once per target).
            return [UpdateRequest.insert(
                self.document, key,
                unused.pop() if unused else node.deep_copy(),
                position=position)
                for key in self._keys(storage, cache)]

        return self._submit("insert", resolver, position=position)

    def delete(self) -> Update:
        """Delete the subtree(s) rooted at the addressed node(s)."""

        def resolver(storage: StorageManager,
                     cache=None) -> List[UpdateRequest]:
            return [UpdateRequest.delete(self.document, key)
                    for key in self._keys(storage, cache)]

        return self._submit("delete", resolver)

    def replace_with(self, value) -> Update:
        """Replace the text content of the addressed node(s) with
        ``value`` (the XQuery-update ``replace … with`` primitive)."""
        text = value if isinstance(value, str) else str(value)

        def resolver(storage: StorageManager,
                     cache=None) -> List[UpdateRequest]:
            return [UpdateRequest.modify(self.document, key, text)
                    for key in self._keys(storage, cache)]

        return self._submit("replace", resolver)

    def _submit(self, action: str, resolver, position=None) -> Update:
        update = Update(action, self.document, path=self.path,
                        position=position, _resolver=resolver)
        return self._db._submit(update)
