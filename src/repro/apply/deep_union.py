"""The count-aware Deep Union refresh operator (Chapters 6 and 8).

``deep_union`` fuses a delta update tree into the materialized extent,
top-down, matching children by semantic identity:

* positive counts add derivations — matching nodes' counts increase and
  their children fuse recursively; unmatched nodes are inserted whole, in
  the position given by their order token;
* negative counts remove derivations — a node whose count reaches zero is
  disconnected *at its root* (no per-descendant deletion, Section 8.3.2);
* ``refresh`` nodes are count-neutral content re-derivations: attributes
  and text children are replaced, element children fuse recursively, and
  missing ones are inserted;
* aggregate-valued text nodes patch their :class:`AggState` in place, in
  O(|delta state|): the extent *owns* the states it patches — a state
  that entered it not owned (materialization, a new group's node adopted
  from a delta forest, a graft from a checkpoint written before
  ownership existed) is copied once, before its first patch, because the
  item it rode in on is shared by every pass that reads its register and
  by the operator-state store.

**Serialization caches.**  Every extent element above a leaf caches its
compact XML (:attr:`ExtentNode.xml`) and ``_fuse`` empties the cache of the
node it fuses, on entry.  The rule is complete: an element's XML changes
only when its own attributes, text or children change or a descendant's do;
each such change happens inside ``_fuse`` of that element, which Deep Union
reaches only through ``_fuse`` of every ancestor.  All other elements keep
strings that are still right; inserted subtrees arrive uncached (or cached
by the delta log once settled) and removed ones take their caches along.  A
count-only merge empties its path too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .extent import FOREST_TAG, ExtentNode, forest_root, serialize_extent


@dataclass
class FusionReport:
    """What the Apply phase did — used by tests and benchmarks.

    ``delta_log``, when set to a list by the caller *before* fusion,
    captures every **visible** extent mutation as a JSON-ready record
    (see :func:`delta_records` for the schema) — the payload a push
    subscriber needs to mirror the refresh without re-reading the view.
    Count-only changes that leave the serialized XML untouched are not
    recorded.  ``None`` (the default) disables capture entirely; the
    hot path pays one identity check per mutation.
    """

    inserted: int = 0
    removed_roots: int = 0
    removed_nodes: int = 0
    merged: int = 0
    replaced_text: int = 0
    delta_log: Optional[list] = field(default=None, repr=False)

    @property
    def mutations(self) -> int:
        """Total extent mutations this fusion applied — the honest size
        of a refresh's delta as seen by subscribers."""
        return (self.inserted + self.removed_roots + self.removed_nodes
                + self.merged + self.replaced_text)


# -- delta records (the push-subscription payload) --------------------------------------
#
# Each visible extent mutation appends one JSON-ready dict to
# ``report.delta_log`` when capture is on.  Paths are lists of two-element
# match keys (``[tag, node_id]``, ``["#text", text]``, ``["#agg", id]``)
# from just below the synthetic forest root down to the affected node —
# the same identities Deep Union fuses by, so a mirror applying the
# records reproduces the extent.  The schema (shared with the wire
# protocol's delta frames, see docs/WIRE_PROTOCOL.md):
#
# * ``{"op": "insert", "parent": [...], "key": [...], "order": o,
#   "xml": "<...>"}`` — a whole subtree entered the extent under
#   ``parent`` at sibling position ``order``; ``key`` is the new
#   subtree root's own match key, so later records addressing it (its
#   removal, its text changing) correlate without re-deriving identity
#   from the XML;
# * ``{"op": "remove", "path": [...]}`` — the subtree at ``path`` left
#   the extent (disconnected at its root);
# * ``{"op": "text", "path": [...], "text": "..."}`` — the direct text
#   content of the element at ``path`` was replaced;
# * ``{"op": "replace", "path": [...], "xml": "<...>"}`` — a re-derived
#   base fragment replaced the element's children wholesale (``xml`` is
#   the element's new serialization);
# * ``{"op": "agg", "path": [...], "value": "..."}`` — an
#   aggregate-valued text node took a new value.


def _json_path(path: tuple) -> list:
    return [list(key) for key in path]


def _log_insert(log: list, path: tuple, node: ExtentNode) -> None:
    log.append({"op": "insert", "parent": _json_path(path),
                "key": list(node.match_key()), "order": node.order,
                "xml": serialize_extent(node)})


def _log_remove(log: list, path: tuple, key: tuple) -> None:
    log.append({"op": "remove", "path": _json_path(path + (key,))})


def _log_text(log: list, path: tuple, existing: ExtentNode) -> None:
    log.append({"op": "text", "path": _json_path(path),
                "text": "".join(child.text or ""
                                for child in existing.children
                                if child.is_text)})


def _log_replace(log: list, path: tuple, existing: ExtentNode) -> None:
    log.append({"op": "replace", "path": _json_path(path),
                "xml": serialize_extent(existing)})


def _log_agg(log: list, path: tuple, node: ExtentNode) -> None:
    log.append({"op": "agg", "path": _json_path(path),
                "value": node.text})


def fuse_forest(extent: Optional[ExtentNode], roots: list[ExtentNode],
                report: Optional[FusionReport] = None
                ) -> tuple[ExtentNode, FusionReport]:
    """Fuse result roots under the synthetic forest wrapper.

    Used both for initial materialization and for applying delta forests —
    views whose result is a single constructed document element simply have
    a one-child forest.  The wrapper exists once: each root fuses under a
    count-neutral (count 0) wrapper, so the extent's stays at 1.
    """
    if report is None:
        report = FusionReport()
    if extent is None:
        extent = forest_root()
    for root in roots:
        delta = forest_root()
        delta.count = 0
        delta.insert_child(root)
        extent, report = deep_union(extent, delta, report)
    return extent, report


def deep_union(extent: Optional[ExtentNode], delta: ExtentNode,
               report: Optional[FusionReport] = None
               ) -> tuple[Optional[ExtentNode], FusionReport]:
    """Fuse ``delta`` into ``extent`` (which may be None) and return both.

    The returned extent is the same object, mutated — except when the
    extent was empty, in which case the delta becomes the extent.
    """
    if report is None:
        report = FusionReport()
    log = report.delta_log
    if extent is None:
        if delta.count <= 0 and not delta.refresh:
            return None, report
        report.inserted += 1
        _normalize_inserted(delta)
        if log is not None:
            roots = (delta.children if delta.tag == FOREST_TAG
                     else [delta])
            for root in roots:
                _log_insert(log, (), root)
        return delta, report
    if extent.match_key() != delta.match_key():
        raise ValueError(
            f"root mismatch: {extent.match_key()} vs {delta.match_key()}")
    alive = _fuse(extent, delta, report, log, ())
    if not alive:
        report.removed_roots += 1
        report.removed_nodes += extent.subtree_size()
        if log is not None:
            _log_remove(log, (), extent.match_key())
        return None, report
    return extent, report


def _normalize_inserted(node: ExtentNode) -> None:
    """Fresh inserts enter the extent with sane counts (refresh => 1).

    A freshly inserted subtree may carry same-identity siblings — the
    retract/assert halves of a first-class modify re-derive one member
    several times with signed counts.  They fuse first (Deep Union keeps
    one node per identity under a parent), so net-zero derivations drop
    out instead of materializing as duplicates when the enclosing
    subtree enters the extent whole.
    """
    _fuse_duplicate_children(node)
    if node.count <= 0:
        node.count = 1
    node.refresh = False
    for child in node.children:
        _normalize_inserted(child)


def _fuse_duplicate_children(node: ExtentNode) -> None:
    """Fuse same-match-key children of one delta node (counts sum)."""
    keys = set()
    duplicates = False
    for child in node.children:
        key = child.match_key()
        if key in keys:
            duplicates = True
            break
        keys.add(key)
    if not duplicates:
        return
    scratch = FusionReport()
    first_of: dict[tuple, ExtentNode] = {}
    merged: list[ExtentNode] = []
    dead: set[int] = set()
    for child in node.children:
        key = child.match_key()
        first = first_of.get(key)
        if first is None:
            first_of[key] = child
            merged.append(child)
        elif not _fuse(first, child, scratch):
            dead.add(id(first))
            del first_of[key]
    node.clear_children()
    for child in merged:
        if id(child) not in dead:
            node.insert_child(child)


def _fuse(existing: ExtentNode, incoming: ExtentNode,
          report: FusionReport, log: Optional[list] = None,
          path: tuple = ()) -> bool:
    """Fuse one matched pair; returns False when ``existing`` must die.

    ``log``/``path`` carry the delta capture: ``path`` is the identity
    path of ``existing`` (match keys below the forest root, see the
    record schema above) and is only extended while ``log`` is a list.
    """
    existing.xml = None
    report.merged += 1
    if incoming.agg is not None and existing.agg is not None:
        _merge_aggregate(existing, incoming, report, log, path)
        return True
    if incoming.refresh:
        existing.attributes = incoming.attributes   # never written in place
        if incoming.base:
            # An exposed base fragment re-derivation is complete: replace
            # the children wholesale (handles deletes inside the fragment).
            existing.clear_children()
            for child in incoming.children:
                _normalize_inserted(child)
                existing.insert_child(child)
            incoming.clear_children()
            report.replaced_text += 1
            if log is not None:
                _log_replace(log, path, existing)
            return True
        _replace_text_children(existing, incoming, report, log, path)
        _fuse_children(existing, incoming, report, refresh=True,
                       log=log, path=path)
        return True
    existing.count += incoming.count
    if existing.count <= 0:
        return False
    _fuse_children(existing, incoming, report, refresh=False,
                   log=log, path=path)
    return True


def _fuse_children(existing: ExtentNode, incoming: ExtentNode,
                   report: FusionReport, refresh: bool,
                   log: Optional[list] = None, path: tuple = ()) -> None:
    for child in list(incoming.children):
        if child.is_text and refresh:
            continue  # text already replaced wholesale
        key = child.match_key()
        match = existing.find_child(key)
        if match is None:
            if child.count <= 0 and not child.refresh:
                continue  # deleting something already absent
            incoming.remove_child(child)
            _normalize_inserted(child)
            existing.insert_child(child)
            report.inserted += 1
            if log is not None:
                _log_insert(log, path, child)
            continue
        alive = _fuse(match, child, report, log,
                      path + (key,) if log is not None else path)
        if not alive:
            report.removed_roots += 1
            report.removed_nodes += match.subtree_size()
            existing.remove_child(match)
            if log is not None:
                _log_remove(log, path, key)


def _replace_text_children(existing: ExtentNode, incoming: ExtentNode,
                           report: FusionReport,
                           log: Optional[list] = None,
                           path: tuple = ()) -> None:
    incoming_texts = [c for c in incoming.children if c.is_text]
    existing_texts = [c for c in existing.children if c.is_text]
    if not incoming_texts and not existing_texts:
        return
    if (len(incoming_texts) == 1 and len(existing_texts) == 1
            and incoming_texts[0].agg is not None
            and existing_texts[0].agg is not None):
        # An aggregate-valued text node under a refresh parent merges its
        # per-member contribution state — wholesale replacement would
        # adopt the *delta* state (value-only contributions, count 0)
        # and lose the derivation counts the next retraction needs.
        _merge_aggregate(
            existing_texts[0], incoming_texts[0], report, log,
            path + (existing_texts[0].match_key(),)
            if log is not None else path)
        return
    same = ([c.text for c in incoming_texts]
            == [c.text for c in existing_texts])
    if same:
        return
    for child in existing_texts:
        existing.remove_child(child)
    for child in incoming_texts:
        incoming.remove_child(child)
        _normalize_inserted(child)
        existing.insert_child(child)
    report.replaced_text += 1
    if log is not None:
        _log_text(log, path, existing)


def _merge_aggregate(existing: ExtentNode, incoming: ExtentNode,
                     report: FusionReport, log: Optional[list] = None,
                     path: tuple = ()) -> None:
    """Patch per-member aggregate contributions in place (Section 7.6).

    Thanks to the per-member counting state, min/max deletes re-evaluate
    over the surviving members locally — no group recomputation.  The
    incoming state is read, never kept: other passes fuse the same one.
    """
    before = existing.text
    if not existing.agg.owned:
        existing.agg = existing.agg.owned_copy()
    existing.agg.patch(incoming.agg)
    existing.text = existing.agg.value()
    if log is not None and existing.text != before:
        _log_agg(log, path, existing)
