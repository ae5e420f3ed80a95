"""Snapshot format 3: the explicit on-disk representation of engine state.

A checkpoint payload is one dict of plain builtins (lists, dicts, str,
int, bytes) that :class:`~repro.durability.checkpoint.CheckpointStore`
pickles as-is.  No live :class:`~repro.xmlmodel.XmlNode`,
:class:`~repro.apply.ExtentNode`, :class:`~repro.flexkeys.FlexKey` or
:class:`~repro.storage.index.StructuralIndex` object reaches the file:
object graphs pickle slowly (one reduce call per node, plus every
derived field) and a tree is fully described by a few **flat pre-order
columns** — position ``i`` of every column describes the ``i``-th node
in document order and ``child_counts`` carries the shape.  This module
alone knows the layout; nothing else reads or writes a column.

What is stored, and what :func:`restore_state` rebuilds instead:

* **documents** — per document ``tags`` (``None`` marks a text node),
  ``values`` (text content), ``keys`` (FlexKey *strings*),
  ``child_counts``, ``counts`` and a sparse ``{position: attributes}``
  map.  Keys must survive verbatim: WAL-tail records address nodes by
  key, and re-registering from XML text would relabel inserted nodes
  (``sibling_atom(index)`` ≠ the ``atom_for_insert`` keys they got
  live).  Restore re-creates the nodes, their ``parent`` links and one
  FlexKey per node; :meth:`StorageManager.restore_document` then
  re-adopts the tree into the node map in one walk.
* **the StructuralIndex** — its sorted per-tag-path key lists, tag-path
  cache and path interner, as the plain dicts they are, so restore
  adopts them without rebuilding; they are filled into the fresh
  storage's own index, which reads its FlexKeys from the node map.  A
  file written before the index kept only path lists (per-tag and
  all-element lists instead, format 2 or 3) restores the same: its path
  lists are the all-element lists grouped by the tag-path cache, both
  sorted already, so restore rebuilds them in one appending pass.  A
  payload without index columns — written by a store that kept no
  index — is rejected before storage is touched.
* **view extents** — per view ``ids``/``orders``/``tags``/``texts``/
  ``child_counts``/``counts``, ``flags`` (one byte per node: bit 0
  ``refresh``, bit 1 ``base``) and sparse ``{position: attributes}`` /
  ``{position: AggState}`` maps, plus the view's query, policy, work
  bound (``rows_read``) and refresh sequence — restore *grafts* extents
  instead of rematerializing every view (the reason checkpoint restore
  beats a cold start by construction).  A node's child index is built
  from its children's match keys on the first lookup, as for any node.
* **operator state** — the clean :class:`CachedEntry` FULL tables by
  subplan signature, pickled as objects.  Cells reference storage by
  FlexKey only, so the tables are independent of the node graph; on
  restore the store re-adopts them via :meth:`CachedEntry.populate`
  (fingerprints are recomputed against the restored storage, which
  mirrors the checkpointed one exactly).  Adoption is belt-and-braces
  guarded: the cache is a pure performance layer, dropping an entry
  never affects correctness.

Views registered from raw :class:`XatOperator` plans (no query text)
cannot be serialized — the durable facade requires query strings.

**Format 3 vs 2.**  The column layout is the same; what changed is the
meaning of the derivation counts inside extents and operator-state
tables: a format-2 file was written when ``Distinct`` summed duplicate
counts, format 3 under the support-zero-crossing rule, and deltas of one
rule do not fuse into counts of the other.  A format-2 file therefore
still restores its documents and index columns exactly, but every view
is **re-materialized** from them and no operator-state table is
adopted.  Any other format is rejected.
"""

from __future__ import annotations

from ..apply.extent import ExtentNode
from ..flexkeys import FlexKey
from ..multiview.policies import MaintenancePolicy
from ..xmlmodel import XmlDocument, XmlNode
from ..xmlmodel.node import ELEMENT, TEXT

__all__ = ["SNAPSHOT_FORMAT", "capture_state", "restore_state"]

SNAPSHOT_FORMAT = 3

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


# -- documents ----------------------------------------------------------------------------


def _encode_document(root: XmlNode) -> dict:
    tags, values, keys, child_counts, counts = [], [], [], [], []
    attributes = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node.attributes:
            attributes[len(tags)] = node.attributes
        tags.append(node.tag)
        values.append(node.value)
        keys.append(node.key.value)
        counts.append(node.count)
        children = node.children
        child_counts.append(len(children))
        if children:
            stack.extend(children[::-1])
    return {"tags": tags, "values": values, "keys": keys,
            "child_counts": child_counts, "counts": counts,
            "attributes": attributes}


def _decode_document(columns: dict) -> XmlNode:
    attributes = columns["attributes"]
    root = None
    open_nodes: list = []
    for position, (tag, value, key, child_count, count) in enumerate(zip(
            columns["tags"], columns["values"], columns["keys"],
            columns["child_counts"], columns["counts"])):
        node = XmlNode(TEXT if tag is None else ELEMENT, tag, value)
        node.key = FlexKey(key)
        node.count = count
        if position in attributes:
            node.attributes = attributes[position]
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
        node = ExtentNode(node_id, order, tag, text,
                          attributes.get(position), count,
                          bool(flags & _REFRESH), aggs.get(position),
                          bool(flags & _BASE))
        parent = _place(open_nodes, node, child_count)
        if parent is None:
            root = node
        else:
            parent.children.append(node)
    return root


# -- the structural index -----------------------------------------------------------------


def _encode_index(index) -> dict:
    """The per-path lists, tag-path cache and path interner — not the
    activity counters (per-process); the FlexKeys themselves are the
    restored nodes' own."""
    return {"path_lists": index._path_lists, "tag_paths": index._tag_paths,
            "path_interner": index._path_interner}


def _restore_index(index, columns: dict) -> None:
    """Fill a fresh storage's index in place from its columns."""
    index._tag_paths = columns["tag_paths"]
    index._path_interner = columns["path_interner"]
    path_lists = columns.get("path_lists")
    if path_lists is None:
        # an older layout: per-tag and all-element lists, no path lists;
        # the latter are the all-element lists grouped by tag path
        path_lists = {}
        tag_paths = index._tag_paths
        for document, keys in columns["all_lists"].items():
            for value in keys:   # sorted, so every path list stays sorted
                path_lists.setdefault((document, tag_paths[value]),
                                      []).append(value)
    index._path_lists = path_lists


# -- whole-registry capture / restore -----------------------------------------------------


def capture_state(registry) -> dict:
    """The registry's whole durable state as one dict of plain columns.

    The caller quiesces the registry first (``registry.flush()``):
    checkpoints are cut at a point where no pending delta queue needs
    serializing and the extents match a clean replay boundary.  The
    columns alias live attribute dicts, index lists and aggregate
    states — encode the result before the next mutation.
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
    opstate = {}
    for entry in registry.state_store.entries():
        # A stale backlog means the table lags storage — skip.  A
        # leftover ``prepared`` plan does not: applied it is spent,
        # unapplied its deletions never arrived (the registry is
        # quiesced before capture), so the table mirrors storage
        # either way and the plan itself is simply not persisted.
        if entry.valid and not entry.stale and entry.table is not None:
            opstate[entry.signature] = entry.table
    return {
        "format": SNAPSHOT_FORMAT,
        "documents": {name: _encode_document(document.root)
                      for name, document in storage._documents.items()},
        "index": _encode_index(storage.index),
        "views": views,
        "opstate": opstate,
    }


def restore_state(registry, state: dict) -> None:
    """Rebuild a freshly-constructed registry (empty storage, no views)
    from a captured state dict."""
    if state.get("format") not in (2, SNAPSHOT_FORMAT):
        raise ValueError(
            f"unsupported snapshot format {state.get('format')!r}")
    if state.get("index") is None:
        raise ValueError(
            "snapshot has no structural index: it was written by a "
            "storage manager constructed without one, which this "
            "release no longer supports")
    # format 2: same columns, counts of the old Distinct rule (see above)
    graft = state["format"] == SNAPSHOT_FORMAT
    storage = registry.storage
    _restore_index(storage.index, state["index"])
    for name, columns in state["documents"].items():
        root = _decode_document(columns)
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
            view.pipeline.extent = (_decode_extent(spec["extent"])
                                    if spec["extent"] is not None else None)
            view.pipeline.materialized = spec["materialized"]
        elif spec["materialized"]:
            registry.materialize(spec["name"])
    if graft and state["opstate"]:
        plans = [registry.view(name).pipeline.plan
                 for name in registry.names()]
        registry.state_store.adopt(state["opstate"], plans)
