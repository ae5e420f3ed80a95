"""Incremental structural index over FlexKey-addressed storage.

The FlexKey design (Section 3.3, after the MASS keys of [DR03]) makes a
node's subtree a *contiguous lexicographic range* of key strings: every
descendant of ``k`` sorts inside ``[k + "." , k + "/")`` — the level
separator ``"."`` is smaller than every atom character and ``"/"`` is its
successor, so the half-open range covers exactly the proper descendants.
:class:`StructuralIndex` exploits this with one structure, **per-document,
per-tag-path sorted key lists** — one list per distinct root-to-node tag
path, in document order.  Every key in such a list has the same depth,
so the nodes sharing a path *and a parent* ``P`` are the contiguous
slice ``[P + ".", P + "/")`` of it, in sibling order: a child-step-only
location path is answered by returning its list (``path_nodes``),
``…/person[k]`` by one binary search per parent (``nth_children``),
``children(key, tag)`` by the slice of the list of ``key``'s path
extended by ``tag``, and ``descendants(key, tag)`` by merging the slices
of the few lists whose path extends ``key``'s and ends in ``tag`` (one
filter over the distinct paths per call) — O(answer + paths · log N),
never a pass over N candidates.  A key's own tag path is not kept here:
each node carries it (``XmlNode.path``, set by the keying walk beside
``key``; keys are never relabeled and element tags never change, so it
stays valid for the node's whole lifetime).

The lists hold key strings; a range query turns them into FlexKeys by
reading the storage manager's node map (``nodes[value].key``), which it
shares rather than copies.  That is the one FlexKey instance per live
key, whose parsed-atom tuple and order token are memoized, so range
results never re-parse key strings.

The index is maintained *incrementally* by the
:class:`~repro.storage.manager.StorageManager` mutation entry points, a
whole subtree at a time.  A subtree's keys are one contiguous run of
every path list they appear in and the keying walk visits them in key
order, so ``add_subtree`` costs **one bisect + one slice assignment per
distinct element path of the subtree** and ``remove_subtree`` one bisect
+ one range ``del`` per path (the walk that unkeys the subtree counts
its keys per path).  No list sized by the document is spliced; what
still grows with the document is the bisects (log N) and the node map,
whose lookups miss the CPU caches more often as it grows.  (It hooks the
mutation points directly rather than the public listener API because
delete notifications carry only the subtree root after the keys are
already dropped.)
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

    __slots__ = ("_nodes", "_path_lists", "_path_steps", "range_scans",
                 "walk_fallbacks", "path_lookups")

    def __init__(self, nodes: dict[str, XmlNode]):
        # the storage manager's node map (key string -> node), read only
        self._nodes = nodes
        # Always-on monotone activity counters (plain int adds — the
        # observability layer pulls them into metric snapshots): range
        # scans answered by the sorted key lists, child-list walks of
        # narrow nodes, and exact-path lookups.
        self.range_scans = 0
        self.walk_fallbacks = 0
        self.path_lookups = 0
        # (document, root-to-node tag path) -> sorted list of the key
        # strings of the elements with exactly that path (never empty:
        # a list is dropped with its last key)
        self._path_lists: dict[tuple[str, tuple[str, ...]], list[str]] = {}
        # path -> {child tag: (child path, its own child map)}: the keying
        # walk extends a path by one string-keyed lookup, with no tuple
        # built or hashed, and each distinct path is one tuple shared by
        # all its nodes (built once, by the step that first reached it)
        self._path_steps: dict[tuple[str, ...], dict] = {}

    # -- incremental maintenance ---------------------------------------------------

    def steps(self, tags: tuple[str, ...]) -> dict:
        """The child map of the path ``tags`` (see :meth:`step`)."""
        return self._path_steps.setdefault(tags, {})

    def step(self, tags: tuple[str, ...], tag: str) -> tuple:
        """Build the path of a ``tag`` element below path ``tags`` and
        record it in ``tags``' child map: ``(child path, child map)``."""
        child = tags + (tag,)
        below = self.steps(tags)[tag] = (child, self.steps(child))
        return below

    def add_subtree(self, document: str,
                    by_path: dict[tuple[str, ...], list[str]]) -> None:
        """Index one newly-keyed subtree whose tag paths the keying walk
        already cached: ``by_path`` groups its element key strings per
        tag path, in key order, so each group lands as one run (appended
        while a document registers)."""
        path_lists = self._path_lists
        for tags, run in by_path.items():
            keys = path_lists.get((document, tags))
            if keys is None:
                keys = path_lists[(document, tags)] = []
            at = bisect_left(keys, run[0])
            keys[at:at] = run

    def remove_subtree(self, document: str, low: str,
                       counts: dict[tuple[str, ...], int]) -> None:
        """Drop a subtree's keys from the lists of its element paths —
        ``counts[tags]`` keys from the run of the ``tags`` list starting
        at root key string ``low`` — and a list with its last key."""
        path_lists = self._path_lists
        for tags, count in counts.items():
            keys = path_lists[(document, tags)]
            at = bisect_left(keys, low)
            del keys[at:at + count]
            if not keys:
                del path_lists[(document, tags)]

    # -- range queries ----------------------------------------------------------------

    def descendants(self, document: str, key: FlexKey,
                    tag: Optional[str] = None) -> list[FlexKey]:
        """Proper element descendants of ``key`` in document order: the
        ``[key., key/)`` slices of the lists whose path extends ``key``'s
        (and ends in ``tag``), merged in key order."""
        self.range_scans += 1
        value = key.value
        base = self._nodes[value].path
        depth = len(base)
        lists = [keys for (name, tags), keys in self._path_lists.items()
                 if name == document and len(tags) > depth
                 and tags[:depth] == base and tag in (None, tags[-1])]
        low = value + LEVEL_SEP
        high = value + _RANGE_END
        found: list[str] = []
        for keys in lists:
            lo = bisect_left(keys, low)
            found += keys[lo:bisect_left(keys, high, lo)]
        if len(lists) > 1:
            found.sort()    # one sorted run per path: a merge
        nodes = self._nodes
        return [nodes[v].key for v in found]

    def children(self, document: str, key: FlexKey,
                 tag: str) -> list[FlexKey]:
        """Element children of ``key`` with ``tag``: the ``[key., key/)``
        slice of the list of ``key``'s path extended by ``tag`` — every
        key there sits one level below its parent, so the slice is
        exact."""
        self.range_scans += 1
        value = key.value
        keys = self._path_lists.get(
            (document, self._nodes[value].path + (tag,)))
        if not keys:
            return []
        lo = bisect_left(keys, value + LEVEL_SEP)
        hi = bisect_left(keys, value + _RANGE_END, lo)
        nodes = self._nodes
        return [nodes[v].key for v in keys[lo:hi]]

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

    # -- introspection -----------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "interned_keys": len(self._nodes),
            "path_lists": len(self._path_lists),
            "indexed_elements": sum(len(v) for v in
                                    self._path_lists.values()),
            "range_scans": self.range_scans,
            "walk_fallbacks": self.walk_fallbacks,
            "path_lookups": self.path_lookups,
        }
