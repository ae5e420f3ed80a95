"""Storage manager: FlexKey-addressed XML store (the paper's MASS substitute).

Provides the interface contract the paper's engine relies on (Section 3.3):

* every node of a registered document carries a FlexKey encoding its unique
  root-to-node path and its document order;
* descendants of any node are retrievable in document order;
* updates (insert / delete / replace) never relabel existing keys — inserted
  fragments receive fresh keys strictly between their neighbours'.

The real MASS system is a disk-based index; this in-memory implementation
preserves the same observable behaviour, which is all the view-maintenance
algorithms depend on.

Navigation (``children`` / ``descendants`` / ``find_by_path``) runs
through an incrementally-maintained :class:`~repro.storage.index.
StructuralIndex`: a subtree is a contiguous lexicographic FlexKey range,
so descendant retrieval is a binary search instead of a tree walk.  The
store keeps one node map, keyed by key string; the index reads its
FlexKeys from it (``nodes[value].key``) rather than holding a copy.  The
walk-based reference the tests diff these routes against lives in
``tests/helpers.py``.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Iterable, Optional

from ..flexkeys import LEVEL_SEP, FlexKey, atom_for_insert, sibling_atom
from ..xmlmodel import XmlDocument, XmlNode
from .index import StructuralIndex


class StorageError(KeyError):
    """Raised for unknown documents/keys or malformed update requests."""


class StorageManager:
    """Holds all registered source documents and resolves FlexKeys to nodes."""

    def __init__(self):
        self._documents: dict[str, XmlDocument] = {}
        self._roots: dict[str, FlexKey] = {}
        # key string -> node; the node's ``key`` is the one FlexKey
        # instance of that string (memoized atoms and order token)
        self._nodes: dict[str, XmlNode] = {}
        self._doc_of_root_atom: dict[str, str] = {}
        self._listeners: list = []
        self._mutation_listeners: list = []
        self._index = StructuralIndex(self._nodes)

    @property
    def index(self) -> StructuralIndex:
        return self._index

    # -- update notification --------------------------------------------------------

    def add_listener(self, listener) -> None:
        """Subscribe ``listener(op, key)`` to storage mutations.

        ``op`` is one of ``"insert"``, ``"delete"``, ``"modify"``; ``key``
        is the affected node's FlexKey.  Each user-level update primitive
        notifies exactly once (the attach / detach steps it is built from
        never do), so listeners can count how often an update stream hits
        storage — the multi-view registry uses this to assert that updates
        irrelevant to every view touch storage exactly once.
        """
        self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        """Unsubscribe ``listener``; a no-op when it is not subscribed
        (``discard`` semantics, so double-close is safe everywhere)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def add_mutation_listener(self, listener) -> None:
        """Subscribe ``listener(op, key, tag_path)`` to storage mutations.

        The richer sibling of :meth:`add_listener`: each notification also
        carries the mutated node's root-to-node element tag path, captured
        *before* deletions drop the subtree's keys — so invalidation
        machinery (the operator-state store) can still classify a deletion
        against its access paths after the nodes are gone.
        """
        self._mutation_listeners.append(listener)

    def remove_mutation_listener(self, listener) -> None:
        """Unsubscribe (no-op when absent — discard semantics)."""
        try:
            self._mutation_listeners.remove(listener)
        except ValueError:
            pass

    def _notify(self, op: str, key: FlexKey,
                tags: Optional[tuple] = None) -> None:
        for listener in self._listeners:
            listener(op, key)
        if self._mutation_listeners:
            if tags is None:
                tags = self.tag_path(key)
            for listener in list(self._mutation_listeners):
                listener(op, key, tags)

    # -- registration --------------------------------------------------------------

    def register(self, document: XmlDocument) -> FlexKey:
        """Register a document, assigning FlexKeys to its whole tree."""
        root_key = FlexKey(sibling_atom(len(self._documents)))
        self._add_document(document, root_key, keyed=False)
        return root_key

    def restore_document(self, document: XmlDocument,
                         root_key: FlexKey) -> None:
        """Re-adopt a checkpointed document whose nodes already carry
        their FlexKeys (the recovery path).

        Keys are **not** reassigned: WAL-tail records address nodes by
        the keys the live run handed out, and re-registering from text
        would relabel fragment-inserted nodes (``sibling_atom(index)``
        enumeration vs the ``atom_for_insert`` keys they actually got).
        Everything derived from the tree — the node map, each node's tag
        path and the index's per-path key lists — is rebuilt by the same
        walk that keys a registered document.
        """
        self._add_document(document, root_key, keyed=True)

    def _add_document(self, document: XmlDocument, root_key: FlexKey,
                      keyed: bool) -> None:
        if document.name in self._documents:
            raise StorageError(
                f"document {document.name!r} already registered")
        self._documents[document.name] = document
        self._roots[document.name] = root_key
        self._doc_of_root_atom[root_key.value] = document.name
        self._assign_keys(document.root, root_key, (), keyed)

    def _assign_keys(self, root: XmlNode, root_key: FlexKey,
                     parent_tags: tuple[str, ...],
                     keyed: bool = False) -> None:
        """Key the subtree under ``root`` (which gets ``root_key``): one
        pre-order walk — that is key order — fills the node map and each
        node's tag path and groups the element keys per path for the
        index to splice in.  A child is keyed ``sibling_atom(position)``
        below its parent, unless the tree is ``keyed`` already (restored
        from a checkpoint), whose nodes keep the keys they carry."""
        nodes = self._nodes
        index = self._index
        step = index.step
        by_path: dict[tuple[str, ...], list[str]] = {}
        root.key = root_key
        stack = [(root, parent_tags, index.steps(parent_tags))]
        while stack:
            node, tags, steps = stack.pop()
            value = node.key.value
            nodes[value] = node
            tag = node.tag
            if tag is not None:    # an element
                tags, steps = steps.get(tag) or step(tags, tag)
                run = by_path.get(tags)
                if run is None:
                    by_path[tags] = [value]
                else:
                    run.append(value)
            node.path = tags
            children = node.children
            if children:
                if not keyed:
                    prefix = value + LEVEL_SEP
                    for at, child in enumerate(children):
                        child.key = FlexKey(prefix + sibling_atom(at))
                stack.extend([(child, tags, steps)
                              for child in reversed(children)])
        index.add_subtree(self.document_of_key(root_key), by_path)

    # -- lookup ----------------------------------------------------------------------

    @property
    def document_names(self) -> list[str]:
        return list(self._documents)

    def document(self, name: str) -> XmlDocument:
        try:
            return self._documents[name]
        except KeyError:
            raise StorageError(f"unknown document {name!r}") from None

    def has_document(self, name: str) -> bool:
        return name in self._documents

    def root_key(self, name: str) -> FlexKey:
        try:
            return self._roots[name]
        except KeyError:
            raise StorageError(f"unknown document {name!r}") from None

    def document_of_key(self, key: FlexKey) -> str:
        value = key.value
        sep = value.find(".")
        atom = value if sep < 0 else value[:sep]
        try:
            return self._doc_of_root_atom[atom]
        except KeyError:
            raise StorageError(f"key {key} belongs to no document") from None

    def is_document_root(self, key: FlexKey) -> bool:
        """True when ``key`` is a registered document's root key."""
        return key.value in self._doc_of_root_atom

    def node(self, key: FlexKey) -> XmlNode:
        try:
            return self._nodes[key.value]
        except KeyError:
            raise StorageError(f"no node stored under key {key}") from None

    def has_node(self, key: FlexKey) -> bool:
        return key.value in self._nodes

    def node_count(self) -> int:
        return len(self._nodes)

    # -- navigation (always in document order) ------------------------------------------

    def children(self, key: FlexKey, tag: Optional[str] = None) -> list[FlexKey]:
        children = self.node(key).children
        if tag is not None and len(children) > 16:
            # A tag test under a wide node: the exact slice of the child
            # path's sorted key list.
            return self._index.children(self.document_of_key(key), key, tag)
        # Narrow node (or no tag test): the tree walk is the cheaper plan
        # by construction — counted so the range-vs-walk split stays
        # honest in metric snapshots.
        self._index.walk_fallbacks += 1
        return [c.key for c in children
                if c.is_element and (tag is None or c.tag == tag)]

    def descendants(self, key: FlexKey, tag: Optional[str] = None) -> list[FlexKey]:
        if not self.has_node(key):
            raise StorageError(f"no node stored under key {key}")
        return self._index.descendants(self.document_of_key(key), key, tag)

    def attribute(self, key: FlexKey, name: str) -> Optional[str]:
        return self.node(key).attributes.get(name)

    def text(self, key: FlexKey) -> str:
        return self.node(key).text_value()

    def parent_key(self, key: FlexKey) -> Optional[FlexKey]:
        node = self.node(key)
        return node.parent.key if node.parent is not None else None

    def tag_path(self, key: FlexKey) -> tuple[str, ...]:
        """The root-to-node element tag path of ``key``.

        Keys never relabel and tags never change, so each node carries
        its path for its whole lifetime; the SAPT validator and
        multi-view router classify updates against it without
        re-walking ancestors.
        """
        return self.node(key).path

    # -- updates (no relabeling) -----------------------------------------------------------

    def insert_fragment(self, parent_key: FlexKey, fragment: XmlNode,
                        after: Optional[FlexKey] = None,
                        before: Optional[FlexKey] = None) -> FlexKey:
        """Insert ``fragment`` under ``parent_key``.

        Position: after sibling ``after``, before sibling ``before``, or as
        the last child when neither bound is given.  Assigns fresh FlexKeys
        to the whole inserted subtree; neighbours keep their keys.
        """
        parent = self.node(parent_key)
        if parent.is_text:
            raise StorageError(f"{parent_key} is a text node: no children")
        if after is not None and before is not None:
            raise StorageError("give at most one of after/before")
        anchor_key = after if after is not None else before
        if anchor_key is None:
            index = len(parent.children)
        else:
            anchor = self.node(anchor_key)
            if anchor.parent is not parent:
                raise StorageError(
                    f"{anchor_key} is not a child of {parent_key}")
            index = _child_position(anchor) + (after is not None)
        new_key = self._attach(parent, index, fragment)
        self._notify("insert", new_key)
        return new_key

    def _attach(self, parent: XmlNode, index: int,
                fragment: XmlNode) -> FlexKey:
        """Link ``fragment`` in as ``parent.children[index]`` under a fresh
        key strictly between its neighbours' (no notification)."""
        siblings = parent.children
        low = siblings[index - 1].key.local() if index > 0 else None
        high = siblings[index].key.local() if index < len(siblings) else None
        new_key = parent.key.child(atom_for_insert(low, high))
        parent.insert(index, fragment)
        self._assign_keys(fragment, new_key, parent.path)
        return new_key

    def delete_subtree(self, key: FlexKey) -> XmlNode:
        """Disconnect the subtree rooted at ``key`` and drop its keys."""
        node = self.node(key)
        if node.parent is None:
            raise StorageError("cannot delete a document root")
        # Captured before the keys drop: deletion listeners still need to
        # classify the doomed subtree against their access paths.
        tags = self.tag_path(key) if self._mutation_listeners else None
        self._detach(node)
        self._notify("delete", key, tags)
        return node

    def _detach(self, root: XmlNode) -> None:
        """Unlink ``root`` and forget its subtree's keys in one walk (no
        notification), counting its elements per path: the index then
        cuts that many keys from each path's list."""
        del root.parent.children[_child_position(root)]
        root.parent = None
        nodes = self._nodes
        counts: dict[tuple[str, ...], int] = {}
        stack = [root]
        while stack:
            node = stack.pop()
            del nodes[node.key.value]
            if node.tag is not None:
                tags = node.path
                counts[tags] = counts.get(tags, 0) + 1
                stack += node.children
        self._index.remove_subtree(self.document_of_key(root.key),
                                   root.key.value, counts)

    def replace_text(self, key: FlexKey, new_value: str) -> None:
        """Replace the text content of the node at ``key``.

        Mirrors the XQuery-update ``replace $t/text() with "v"`` primitive.
        Content that is one text node keeps the node and its key — only
        the value changes; mixed or empty content drops every text child
        (their keys released) and appends one new text node.
        """
        node = self.node(key)
        children = node.children
        if node.is_text:
            node.value = new_value
        elif len(children) == 1 and children[0].is_text:
            children[0].value = new_value
        else:
            for child in [c for c in children if c.is_text]:
                self._detach(child)
            self._attach(node, len(children), XmlNode.text(new_value))
        self._notify("modify", key)

    def replaced_text(self, key: FlexKey) -> tuple[str, Optional[tuple]]:
        """What :meth:`replace_text` of the element ``key`` replaces: its
        concatenated *direct* text children (:meth:`text` concatenates
        the whole subtree) and — unless the content is one text node,
        which the replace keeps — their ``(key, text)`` pairs, the
        ``old_texts`` of :class:`~repro.xat.base.DeltaRoot`."""
        children = self.node(key).children
        texts = [child for child in children if child.is_text]
        old_value = "".join(child.value or "" for child in texts)
        if len(children) == 1 and texts:
            return old_value, None
        return old_value, tuple((child.key, child.value or "")
                                for child in texts)

    def holds_text(self, key: FlexKey, value: str) -> bool:
        """Whether :meth:`replace_text` of ``key`` with ``value`` would
        change nothing: ``key`` is a text node holding ``value``, or its
        content is one text node holding it.  Mixed, multi-text and empty
        content never hold it — the replace restructures them."""
        node = self.node(key)
        if node.is_text:
            return node.value == value
        children = node.children
        return (len(children) == 1 and children[0].is_text
                and children[0].value == value)

    def replace_attribute(self, key: FlexKey, name: str, value: str) -> None:
        node = self.node(key)   # a new map: view copies share the old one
        node.attributes = {**node.attributes, name: value}
        self._notify("modify", key)

    # -- path evaluation helpers -------------------------------------------------------------

    def find_by_path(self, name: str, steps: Iterable[tuple[str, str]],
                     start: Optional[list[FlexKey]] = None
                     ) -> list[FlexKey]:
        """Evaluate a simple location path (axis, nametest) from a doc root.

        Axes: ``child`` and ``descendant``.  Used by the SAPT validator and
        by the update-language evaluator; the query engine runs navigation
        through XAT operators instead.  The frontier is deduplicated
        between steps and kept in document order: overlapping descendant
        steps (an ancestor and its descendant both on the frontier) would
        otherwise multiply the same key into the result.

        ``start`` continues evaluation from a previous frontier instead of
        the document root (the path→key resolvers use this to interleave
        predicate filtering between steps); the first-step document-node
        convention only applies when starting from the root.
        """
        steps = list(steps)
        if start is None and steps \
                and all(axis == "child" for axis, _ in steps):
            # Child-step-only path from the document node: the result is
            # exactly the elements whose root-to-node tag path equals
            # the step tags, and the index keeps one sorted key list per
            # such path — the answer is that list, with no frontier walk
            # and no per-candidate test.  The first-step document-node
            # convention holds: a node has the full path only if the
            # document element matches the first tag.
            if name not in self._documents:
                raise StorageError(f"unknown document {name!r}")
            return self._index.path_nodes(
                name, tuple(test for _axis, test in steps))
        current = list(start) if start is not None else [self.root_key(name)]
        first = start is None
        for axis, nametest in steps:
            matched: list[FlexKey] = []
            seen: set[str] = set()
            for key in current:
                if axis == "child":
                    if first:
                        # From the (implicit) document node, the first child
                        # step names the document element itself.
                        reached = ([key] if self.node(key).tag == nametest
                                   else [])
                    else:
                        reached = self.children(key, nametest)
                elif axis == "descendant":
                    reached = self.descendants(key, nametest)
                    if first and self.node(key).tag == nametest:
                        reached = [key] + reached
                else:
                    raise StorageError(f"unsupported axis {axis!r}")
                for target in reached:
                    if target.value not in seen:
                        seen.add(target.value)
                        matched.append(target)
            matched.sort(key=lambda k: k.value)
            current = matched
            first = False
        return current


_KEY_STRING = attrgetter("key.value")


def _child_position(node: XmlNode) -> int:
    """Where ``node`` sits in its parent's child list — siblings are in
    key order, so a binary search rather than a scan of a wide parent."""
    return bisect_left(node.parent.children, node.key.value,
                       key=_KEY_STRING)
