"""Incremental structural index over FlexKey-addressed storage.

The FlexKey design (Section 3.3, after the MASS keys of [DR03]) makes a
node's subtree a *contiguous lexicographic range* of key strings: every
descendant of ``k`` sorts inside ``[k + "." , k + "/")`` — the level
separator ``"."`` is smaller than every atom character and ``"/"`` is its
successor, so the half-open range covers exactly the proper descendants.
:class:`StructuralIndex` exploits this with three structures:

* **per-document, per-tag sorted key lists** in document order, so
  ``descendants(key, tag)`` is a binary search plus a slice instead of a
  subtree walk (and ``children`` the same scan filtered by depth);
* **per-document, per-tag-path sorted key lists** — one list per distinct
  root-to-node tag path.  Every key in such a list has the same depth, so
  the nodes sharing a path *and a parent* ``P`` are the contiguous slice
  ``[P + ".", P + "/")`` of it, in sibling order: a child-step-only
  location path is answered by returning its list (``path_nodes``), and
  ``…/person[k]`` by one binary search per parent (``nth_children``) —
  O(parents · log N), never a pass over the N candidates;
* a **root-to-node tag-path cache** consulted by the SAPT validator and
  the multi-view router — keys are never relabeled and element tags never
  change, so a cached path stays valid for the node's whole lifetime.

The lists hold key strings; a range query turns them into FlexKeys by
reading the storage manager's node map (``nodes[value].key``), which it
shares rather than copies.  That is the one FlexKey instance per live
key, whose parsed-atom tuple and order token are memoized, so range
results never re-parse key strings.

The index is maintained *incrementally* by the
:class:`~repro.storage.manager.StorageManager` mutation entry points, a
whole subtree at a time.  A subtree's keys are one contiguous run of
every sorted list they appear in and the keying walk visits them in key
order, so ``add_subtree`` costs **one bisect + one slice assignment per
touched list** (all / per-tag / per-tag-path) and ``remove_subtree`` one
bisect pair + one range ``del`` — upkeep is proportional to the update
size, never the document size.  (It hooks the mutation points directly
rather than the public listener API because delete notifications carry
only the subtree root after the keys are already dropped.)
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from ..flexkeys import LEVEL_SEP, FlexKey
from ..xmlmodel import XmlNode

#: Exclusive upper bound of a subtree's key range: the character after the
#: level separator, smaller than every atom character.
_RANGE_END = chr(ord(LEVEL_SEP) + 1)


class StructuralIndex:
    """Sorted-key-range index maintained alongside a ``StorageManager``."""

    __slots__ = ("_nodes", "_tag_lists", "_all_lists", "_path_lists",
                 "_tag_paths", "_path_interner", "range_scans",
                 "walk_fallbacks", "path_lookups")

    def __init__(self, nodes: dict[str, XmlNode]):
        # the storage manager's node map (key string -> node), read only
        self._nodes = nodes
        # Always-on monotone activity counters (plain int adds — the
        # observability layer pulls them into metric snapshots): range
        # scans answered by the sorted key lists, walk fallbacks where
        # the tree walk was judged cheaper, and exact-path lookups.
        self.range_scans = 0
        self.walk_fallbacks = 0
        self.path_lookups = 0
        # (document, tag) -> sorted list of element key strings
        self._tag_lists: dict[tuple[str, str], list[str]] = {}
        # document -> sorted list of *all* element key strings
        self._all_lists: dict[str, list[str]] = {}
        # (document, root-to-node tag path) -> sorted list of the key
        # strings of the elements with exactly that path (never empty:
        # a list is dropped with its last key)
        self._path_lists: dict[tuple[str, tuple[str, ...]], list[str]] = {}
        # key string -> root-to-node element tag path
        self._tag_paths: dict[str, tuple[str, ...]] = {}
        # tag path -> the one interned tuple, so a path is stored once
        # per distinct path rather than once per node
        self._path_interner: dict[tuple[str, ...], tuple[str, ...]] = {}

    # -- incremental maintenance ---------------------------------------------------

    def intern_path(self, tags: tuple[str, ...]) -> tuple[str, ...]:
        """The one stored tuple equal to ``tags``."""
        return self._path_interner.setdefault(tags, tags)

    def add_subtree(self, document: str, paths: dict[str, tuple[str, ...]],
                    elements: list[str], by_tag: dict[str, list[str]],
                    by_path: dict[tuple[str, ...], list[str]]) -> None:
        """Index one newly-keyed subtree: ``paths`` maps every node's key
        string to its interned tag path, ``elements`` are the element key
        strings, ``by_tag`` / ``by_path`` those grouped per tag and per
        tag path — all in key order, so each group lands as one run
        (appended while a document registers)."""
        self._tag_paths.update(paths)
        if elements:
            _splice(self._all_lists.setdefault(document, []), elements)
        for tag, run in by_tag.items():
            _splice(self._tag_lists.setdefault((document, tag), []), run)
        for tags, run in by_path.items():
            _splice(self._path_lists.setdefault((document, tags), []), run)

    def remove_subtree(self, document: str, values: list[str]) -> None:
        """Drop a subtree's entries; ``values`` are all its key strings,
        the root's first.  The tag paths they had name the lists to cut
        (a text node has its parent's: a cut that finds nothing)."""
        tag_paths = self._tag_paths
        paths = {tag_paths.pop(value) for value in values}
        low = values[0]
        high = low + _RANGE_END
        _cut(self._all_lists, document, low, high)
        for tag in {tags[-1] for tags in paths}:
            _cut(self._tag_lists, (document, tag), low, high)
        for tags in paths:
            _cut(self._path_lists, (document, tags), low, high)

    # -- range queries ----------------------------------------------------------------

    def _list_for(self, document: str,
                  tag: Optional[str]) -> Optional[list[str]]:
        if tag is None:
            return self._all_lists.get(document)
        return self._tag_lists.get((document, tag))

    def descendants(self, document: str, key: FlexKey,
                    tag: Optional[str] = None) -> list[FlexKey]:
        """Proper element descendants of ``key`` in document order: one
        binary search over the ``[key., key/)`` prefix range."""
        self.range_scans += 1
        keys = self._list_for(document, tag)
        if not keys:
            return []
        value = key.value
        lo = bisect_left(keys, value + LEVEL_SEP)
        hi = bisect_left(keys, value + _RANGE_END, lo)
        nodes = self._nodes
        return [nodes[v].key for v in keys[lo:hi]]

    def children(self, document: str, key: FlexKey, tag: str,
                 child_count: int) -> Optional[list[FlexKey]]:
        """Element children of ``key`` with ``tag``, or ``None`` when the
        child list itself is the cheaper scan.

        The tag's descendant range filtered to exactly one level below
        (keys never compose in storage, so depth is the level-separator
        count) beats walking the child list only when it is *narrower*
        than the child list — a selective tag under a wide node.  The
        caller passes the node's child count and falls back to the tree
        walk on ``None``.
        """
        keys = self._list_for(document, tag)
        if not keys:
            self.range_scans += 1
            return []
        value = key.value
        lo = bisect_left(keys, value + LEVEL_SEP)
        hi = bisect_left(keys, value + _RANGE_END, lo)
        if hi - lo >= child_count:
            self.walk_fallbacks += 1
            return None
        self.range_scans += 1
        child_seps = value.count(LEVEL_SEP) + 1
        nodes = self._nodes
        return [nodes[v].key for v in keys[lo:hi]
                if v.count(LEVEL_SEP) == child_seps]

    def path_nodes(self, document: str,
                   tags: tuple[str, ...]) -> list[FlexKey]:
        """Elements whose root-to-node tag path equals ``tags`` exactly —
        the answer to a child-step-only location path: the path's own
        sorted key list, already in document order.  An unseen path is
        answered negatively without touching any node at all."""
        self.path_lookups += 1
        nodes = self._nodes
        return [nodes[value].key
                for value in self._path_lists.get((document, tags), ())]

    def nth_children(self, document: str, tags: tuple[str, ...],
                     position: int) -> list[FlexKey]:
        """The ``position``-th (1-based) element with tag path ``tags``
        under *each* parent, in document order — XPath's ``…/tag[k]``
        on a child-step-only path.

        The candidates under a parent ``P`` are the slice of the path's
        list starting at ``bisect_left(keys, P + ".")``, so the answer
        per parent is one binary search plus one prefix test; the
        parents are the list of ``tags[:-1]`` (the document node for a
        one-step path, whose only candidate is the document element).
        """
        self.path_lookups += 1
        keys = self._path_lists.get((document, tags))
        if not keys:
            return []
        nodes = self._nodes
        if len(tags) == 1:
            return [nodes[keys[0]].key] if position == 1 else []
        found = []
        lo = 0
        for parent in self._path_lists.get((document, tags[:-1]), ()):
            prefix = parent + LEVEL_SEP
            lo = bisect_left(keys, prefix, lo)
            at = lo + position - 1
            if at < len(keys) and keys[at].startswith(prefix):
                found.append(nodes[keys[at]].key)
        return found

    # -- caches ------------------------------------------------------------------------

    def tag_path(self, value: str) -> Optional[tuple[str, ...]]:
        """The cached root-to-node tag path for a live key string."""
        return self._tag_paths.get(value)

    # -- introspection -----------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "interned_keys": len(self._nodes),
            "tag_lists": len(self._tag_lists),
            "path_lists": len(self._path_lists),
            "documents": len(self._all_lists),
            "indexed_elements": sum(len(v) for v in
                                    self._all_lists.values()),
            "range_scans": self.range_scans,
            "walk_fallbacks": self.walk_fallbacks,
            "path_lookups": self.path_lookups,
        }


def _splice(keys: list[str], run: list[str]) -> None:
    """Insert ``run`` — the sorted keys of one subtree, so contiguous in
    ``keys`` once inserted — at its one position."""
    at = bisect_left(keys, run[0])
    keys[at:at] = run


def _cut(lists: dict, name, low: str, high: str) -> None:
    """Delete the keys in ``[low, high)`` from ``lists[name]``, and the
    list with its last key."""
    keys = lists[name]
    at = bisect_left(keys, low)
    del keys[at:bisect_left(keys, high, at)]
    if not keys:
        del lists[name]
