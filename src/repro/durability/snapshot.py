"""Snapshot format 4: the explicit on-disk representation of engine state.

A checkpoint payload is one dict of plain builtins (lists, dicts, str,
int, bytes) that :class:`~repro.durability.checkpoint.CheckpointStore`
pickles as-is.  No live :class:`~repro.xmlmodel.XmlNode`,
:class:`~repro.apply.ExtentNode` or :class:`~repro.flexkeys.FlexKey`
object reaches the file: object graphs pickle slowly (one reduce call
per node, plus every derived field) and a tree is fully described by a
few **flat pre-order columns** — position ``i`` of every column
describes the ``i``-th node in document order and ``child_counts``
carries the shape.  This module alone knows the layout; nothing else
reads or writes a column.

A checkpoint stores the documents and the views, and nothing that can
be derived from them:

* **documents** — per document ``tags`` (``None`` marks a text node),
  ``values`` (text content), ``keys`` (FlexKey *strings*),
  ``child_counts`` and a sparse ``{position: attributes}`` map.  Keys
  must survive verbatim: WAL-tail records address nodes by key, and
  re-registering from XML text would relabel inserted nodes
  (``sibling_atom(index)`` ≠ the ``atom_for_insert`` keys they got
  live).  Restore re-creates the nodes, their ``parent`` links and one
  FlexKey per node; :meth:`StorageManager.restore_document` then runs
  the keying walk of ``register`` over the tree, which fills the node
  map, each node's tag path and the structural index's per-path key
  lists.
* **view extents** — per view ``ids``/``orders``/``tags``/``texts``/
  ``child_counts``/``counts``, ``flags`` (one byte per node: bit 0
  ``refresh``, bit 1 ``base``) and sparse ``{position: attributes}`` /
  ``{position: AggState}`` maps, plus the view's query, policy, work
  bound (``rows_read``) and refresh sequence — restore *grafts* extents
  instead of rematerializing every view (the reason checkpoint restore
  beats a cold start by construction).  Decoded names are interned.

The operator-state store is not stored: it starts empty after a restore
and fills each entry on its first use, as after any invalidation.

Views registered from raw :class:`XatOperator` plans (no query text)
cannot be serialized — the durable facade requires query strings.

**Older formats.**  Format 3 files carry the same documents and views
plus sections this build derives instead (``"index"``, ``"opstate"``
and a ``counts`` column per document); restore ignores them.  A
format-2 file was written when ``Distinct`` summed duplicate counts,
and deltas of that rule do not fuse into counts of the support-zero-
crossing rule: its documents restore exactly, but every view is
**re-materialized** from them.  Any other format is rejected.
"""

from __future__ import annotations

import sys

from ..apply.extent import ExtentNode
from ..flexkeys import FlexKey
from ..multiview.policies import MaintenancePolicy
from ..xmlmodel import XmlDocument, XmlNode
from ..xmlmodel.node import ELEMENT, TEXT

__all__ = ["SNAPSHOT_FORMAT", "capture_state", "restore_state"]

SNAPSHOT_FORMAT = 4

_REFRESH, _BASE = 1, 2


def _place(open_nodes: list, node, child_count: int):
    """One step of rebuilding a tree from its pre-order ``child_counts``:
    returns the parent of ``node`` (None for the root).  ``open_nodes``
    holds a ``[node, children still to come]`` frame for every ancestor
    that is not complete yet."""
    parent = None
    if open_nodes:
        frame = open_nodes[-1]
        parent = frame[0]
        frame[1] -= 1
        if not frame[1]:
            open_nodes.pop()
    if child_count:
        open_nodes.append([node, child_count])
    return parent


def _interned(attributes):
    """Names interned in place, order kept: pickle's memo shares the map."""
    for name in list(attributes or ()):
        attributes[sys.intern(name)] = attributes.pop(name)
    return attributes


# -- documents ----------------------------------------------------------------------------


def _encode_document(root: XmlNode) -> dict:
    tags, values, keys, child_counts = [], [], [], []
    attributes = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node.attributes:
            attributes[len(tags)] = node.attributes
        tags.append(node.tag)
        values.append(node.value)
        keys.append(node.key.value)
        children = node.children
        child_counts.append(len(children))
        if children:
            stack.extend(children[::-1])
    return {"tags": tags, "values": values, "keys": keys,
            "child_counts": child_counts, "attributes": attributes}


def _decode_document(columns: dict) -> XmlNode:
    attributes = columns["attributes"]
    root = None
    open_nodes: list = []
    for position, (tag, value, key, child_count) in enumerate(zip(
            columns["tags"], columns["values"], columns["keys"],
            columns["child_counts"])):
        node = XmlNode(TEXT if tag is None else ELEMENT, tag and sys.intern(tag), value)
        node.key = FlexKey(key)
        if position in attributes:
            node.attributes = _interned(attributes[position])
        parent = _place(open_nodes, node, child_count)
        if parent is None:
            root = node
        else:
            node.parent = parent
            parent.children.append(node)
    return root


# -- extents ------------------------------------------------------------------------------


def _encode_extent(root: ExtentNode) -> dict:
    ids, orders, tags, texts, child_counts, counts = [], [], [], [], [], []
    flags = bytearray()
    attributes, aggs = {}, {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node.attributes:
            attributes[len(ids)] = node.attributes
        if node.agg is not None:
            aggs[len(ids)] = node.agg
        ids.append(node.node_id)
        orders.append(node.order)
        tags.append(node.tag)
        texts.append(node.text)
        counts.append(node.count)
        flags.append((_REFRESH if node.refresh else 0)
                     | (_BASE if node.base else 0))
        children = node.children
        child_counts.append(len(children))
        if children:
            stack.extend(children[::-1])
    return {"ids": ids, "orders": orders, "tags": tags, "texts": texts,
            "child_counts": child_counts, "counts": counts,
            "flags": bytes(flags), "attributes": attributes, "aggs": aggs}


def _decode_extent(columns: dict) -> ExtentNode:
    attributes, aggs = columns["attributes"], columns["aggs"]
    root = None
    open_nodes: list = []
    for position, (node_id, order, tag, text, child_count, count,
                   flags) in enumerate(zip(
            columns["ids"], columns["orders"], columns["tags"],
            columns["texts"], columns["child_counts"], columns["counts"],
            columns["flags"])):
        node = ExtentNode(node_id, order, tag and sys.intern(tag), text,
                          _interned(attributes.get(position)), count,
                          bool(flags & _REFRESH), aggs.get(position),
                          bool(flags & _BASE))
        parent = _place(open_nodes, node, child_count)
        if parent is None:
            root = node
        else:
            parent.children.append(node)
    return root


# -- whole-registry capture / restore -----------------------------------------------------


def capture_state(registry) -> dict:
    """The registry's whole durable state as one dict of plain columns.

    The caller quiesces the registry first (``registry.flush()``):
    checkpoints are cut at a point where no pending delta queue needs
    serializing and the extents match a clean replay boundary.  The
    columns alias live aggregate states (attribute maps are never
    written in place) — encode the result before the next mutation.
    """
    storage = registry.storage
    views = []
    for name in registry.names():
        view = registry.view(name)
        if not view.query_text:
            raise ValueError(
                f"view {name!r} was registered from a raw plan; durable "
                f"registries require views registered from query strings")
        extent = view.pipeline.extent
        views.append({
            "name": name,
            "query": view.query_text,
            "policy_kind": view.policy.kind,
            "policy_threshold": view.policy.threshold,
            "extent": (_encode_extent(extent)
                       if extent is not None else None),
            "materialized": view.pipeline.materialized,
            "refresh_sequence": view.refresh_sequence,
            "rows_read": view.rows_read,
        })
    return {
        "format": SNAPSHOT_FORMAT,
        "documents": {name: _encode_document(document.root)
                      for name, document in storage._documents.items()},
        "views": views,
    }


def restore_state(registry, state: dict) -> None:
    """Rebuild a freshly-constructed registry (empty storage, no views)
    from a captured state dict, consuming it: each document's and view's
    columns are dropped once decoded, not kept beside the trees."""
    if state.get("format") not in (2, 3, SNAPSHOT_FORMAT):
        raise ValueError(
            f"unsupported snapshot format {state.get('format')!r}")
    # format 2: counts of the old Distinct rule (see above)
    graft = state["format"] != 2
    storage = registry.storage
    documents = state["documents"]
    for name in list(documents):
        root = _decode_document(documents.pop(name))
        storage.restore_document(XmlDocument(name, root), root.key)
    for spec in state["views"]:
        policy = MaintenancePolicy(spec["policy_kind"],
                                   spec["policy_threshold"])
        view = registry.register(spec["name"], spec["query"],
                                 policy=policy, materialize=False)
        view.refresh_sequence = spec["refresh_sequence"]
        if graft:
            # a view spec written before the work bound has no count: the
            # view stays incremental until its first recompute measures it
            view.rows_read = spec.get("rows_read")
            extent = spec.pop("extent")
            view.pipeline.extent = (_decode_extent(extent)
                                    if extent is not None else None)
            view.pipeline.materialized = spec["materialized"]
        elif spec["materialized"]:
            registry.materialize(spec["name"])
