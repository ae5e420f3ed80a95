"""Source and navigation operators (Section 2.2.2).

Besides normal evaluation, navigation implements the delta admission
rules that make running the *same plan* in ``delta`` mode compute the
Z-semantics change of each intermediate table (Chapter 7): **delta**
mode *seeks* the update roots.  An unnest step keeps only targets on a
path to/at a root whenever any such target exists (pure context steps
keep everything); the update sign is multiplied into the tuple count
exactly once, when navigation first crosses *into* an update root's
subtree; crossing into a *modify* root, stopping at a proper ancestor of
a root, or changing only a collection's content marks the tuple
``refresh`` (content re-derivation, count-neutral).
"""

from __future__ import annotations

from ..flexkeys import LEVEL_SEP, FlexKey
from .base import DELTA, ExecutionContext, XatOperator
from .paths import CHILD, Path, Step
from .table import (AtomicItem, ContextSpec, Item, NodeItem, TableSchema,
                    XatTable, XatTuple, items_of)

#: classification labels used during delta navigation
_AT = "at"
_ANCESTOR = "ancestor"


class Source(XatOperator):
    """``S_xmlDoc -> col``: one tuple referencing the document root."""

    symbol = "S"

    def __init__(self, document: str, out: str):
        super().__init__()
        self.document = document
        self.out = out
        self._cached: tuple = (None, None)   # (storage manager, table)

    def _own_documents(self):
        return (self.document,)

    def _build_schema(self) -> TableSchema:
        # Category I of Table 4.1: Context Schema ()[]; Order Schema empty.
        return TableSchema((self.out,), (),
                           {self.out: ContextSpec(order=(), lineage=())})

    def compute(self, ctx: ExecutionContext, inputs) -> XatTable:
        # Mode-independent, a document's root key never changes and no
        # consumer mutates an input table: one table per storage manager
        # serves every run.
        storage, table = self._cached
        if storage is not ctx.storage:
            table = XatTable(self.schema)
            root = ctx.storage.root_key(self.document)
            table.append(XatTuple({self.out: NodeItem(root)}))
            self._cached = (ctx.storage, table)
        return table

    def signature_core(self) -> tuple:
        return (self.symbol, self.document, self.out)


def _element_targets(ctx: ExecutionContext, entry_key: FlexKey,
                     step: Step, is_first: bool) -> list[FlexKey]:
    """Element-step navigation in storage with document-node semantics.

    Frontier expansion stays on the storage index's sorted-key range
    scans: the stored node is only resolved for the document-node special
    case of the first step, never per expanded frontier key.
    """
    storage = ctx.storage
    targets: list[FlexKey] = []
    if is_first and storage.is_document_root(entry_key):
        # From the implicit document node the first step names (or, for
        # descendant, includes) the document element itself.
        if storage.node(entry_key).tag == step.test:
            targets.append(entry_key)
        if step.axis == CHILD:
            return targets
    elif step.axis == CHILD:
        return storage.children(entry_key, step.test)
    targets.extend(storage.descendants(entry_key, step.test))
    return targets


def _related_targets(ctx: ExecutionContext, entry_key: FlexKey,
                     step: Step, is_first: bool) -> list[FlexKey]:
    """Delta-mode seek: the step's targets *related to an update root*,
    derived from the roots themselves instead of scanning the full target
    set — this is what makes propagation cost scale with the batch, not
    the document.

    Only called for an untouched frontier key outside every root subtree
    (classification ``None`` or ``"ancestor"``): the seek rule keeps
    exactly the related targets there, and when none exist the kept-all
    targets would only produce untouched tuples that the unnest drops —
    so related-only enumeration is exact.  A related target is either an
    ancestor of a root on the path down from ``entry_key`` (one key per
    root per level, read off the root's own atoms) or a matching node
    inside a root's subtree (an index range scan, delta-sized).

    Memoized on the spec (``DeltaSpec.seek_memo``): every navigation of
    the pass that seeks the same step from the same key reads one
    answer.  Several views' paths share their leading child steps
    (``/site/people/person`` under ``$p/name`` and ``$p/address/city``),
    and each pass re-seeks them from the document root; the seek below
    the root — one candidate per update root per step — is what a hit
    saves.  The returned list is shared, so callers only iterate it.
    """
    memo = ctx.delta.seek_memo
    memo_key = (entry_key.value, step.axis, step.test, is_first)
    ordered = memo.get(memo_key)
    if ordered is None:
        ordered = memo[memo_key] = _seek(ctx, entry_key, step, is_first)
    return ordered


def _seek(ctx: ExecutionContext, entry_key: FlexKey, step: Step,
          is_first: bool) -> list[FlexKey]:
    """The uncached body of :func:`_related_targets`."""
    storage = ctx.storage
    results: dict[str, FlexKey] = {}
    if is_first and storage.is_document_root(entry_key):
        # Document-node convention: the first step names (or, for
        # descendant, includes) the document element itself.
        if storage.node(entry_key).tag == step.test:
            results[entry_key.value] = entry_key
        if step.axis == CHILD:
            return list(results.values())
    entry_atoms = entry_key.atoms
    entry_depth = len(entry_atoms)
    for root in ctx.delta.roots:
        root_atoms = root.key.atoms
        if (len(root_atoms) <= entry_depth
                or root_atoms[:entry_depth] != entry_atoms):
            continue  # root not below this frontier key
        if step.axis == CHILD:
            candidates = [FlexKey(
                LEVEL_SEP.join(root_atoms[:entry_depth + 1]))]
        else:
            candidates = [FlexKey(LEVEL_SEP.join(root_atoms[:depth]))
                          for depth in range(entry_depth + 1,
                                             len(root_atoms) + 1)]
            candidates.extend(storage.descendants(root.key, step.test))
        for candidate in candidates:
            value = candidate.value
            if value in results or not storage.has_node(candidate):
                continue
            node = storage.node(candidate)
            if node.is_element and node.tag == step.test:
                results[value] = candidate
    ordered = list(results.values())
    ordered.sort(key=lambda key: key.value)
    return ordered


def _reached(ctx: ExecutionContext, entry_key: FlexKey,
             element_steps: tuple[Step, ...]) -> list[FlexKey]:
    """FULL navigation: the elements ``element_steps`` reach from one
    entry node."""
    storage = ctx.storage
    frontier = [entry_key]
    is_first = storage.is_document_root(entry_key)
    for step in element_steps:
        reached: list[FlexKey] = []
        for key in frontier:
            reached.extend(_element_targets(ctx, key, step, is_first))
        frontier = reached
        is_first = False
    return frontier


def _cell_items(ctx: ExecutionContext, element_key: FlexKey,
                value_steps: tuple[Step, ...]) -> list[Item]:
    """The items one reached element contributes to the output cell: the
    node itself, or what trailing ``@attr`` / ``text()`` steps read."""
    storage = ctx.storage
    if not value_steps:
        return [NodeItem(element_key)]
    first = value_steps[0]
    if first.is_attribute:
        value = storage.attribute(element_key, first.attribute_name)
        if value is None:
            return []
        return [AtomicItem(value, source_key=element_key)]
    # text(): one item per direct text child, in document order.
    node = storage.node(element_key)
    return [AtomicItem(child.value or "", source_key=child.key)
            for child in node.children if child.is_text]


def _pair_variants(ctx: ExecutionContext, key: FlexKey,
                   value_steps: tuple[Step, ...]):
    """``(old_items, new_items)`` when the cell produced at ``key`` reads
    a value that a first-class modify of this batch changed, else None
    (the caller has established that the batch carries pairs and that
    ``value_steps`` reads no attribute — modifies replace text only).

    The two item lists carry the same *identity* (semantic ids, grouping
    and order resolve from keys/values exactly as the old and new
    derivations would) but the old list answers value reads with the
    pre-update text — the retraction half of the pair must be routed by
    the predicates/sort keys the way the original derivation was.
    """
    spec = ctx.delta
    if value_steps:
        root = spec.pair_root(key)
        if root is None:
            return None
        return (root.old_items(key), _cell_items(ctx, key, value_steps))
    if not spec.pair_roots_below(key):
        return None
    return ([NodeItem(key, text_override=spec)], [NodeItem(key)])


def _emit_pair(table: XatTable, tup: XatTuple, out_col: str, variants,
               count: int) -> None:
    """Emit a first-class modify pair for one navigated tuple.

    An era-neutral tuple splits into a retraction (old items, negated
    count) followed by an assertion (new items, positive count); a tuple
    that already is one half of a pair extends with the matching era's
    items only.  Pair halves never carry ``refresh`` — the assertion is
    a complete re-derivation, which subsumes any content refresh the
    walk accumulated.
    """
    old_items, new_items = variants
    if tup.era is not None:
        for item in (old_items if tup.era == "old" else new_items):
            table.append(tup.extended(out_col, item, count=count,
                                      refresh=False, touched=True))
        return
    for item in old_items:
        table.append(tup.extended(out_col, item, count=-count,
                                  refresh=False, touched=True, era="old"))
    for item in new_items:
        table.append(tup.extended(out_col, item, count=count,
                                  refresh=False, touched=True, era="new"))


class NavigateUnnest(XatOperator):
    """``phi_{col,path} -> col'``: navigate then unnest (one output tuple
    per reached node/value)."""

    symbol = "phi"

    def __init__(self, child: XatOperator, col: str, path: Path, out: str,
                 keep_empty: bool = False):
        """``keep_empty`` gives the unnest outer-join semantics: a tuple
        whose navigation reaches nothing survives with a null cell (used for
        correlated inner FLWOR blocks whose group shell must survive)."""
        super().__init__([child])
        self.col = col
        self.path = path
        self.out = out
        self.keep_empty = keep_empty

    def _build_schema(self) -> TableSchema:
        base = self.inputs[0].schema
        columns = base.columns + (self.out,)
        context = dict(base.context)
        in_spec = base.spec(self.col)
        if self.path.ends_in_value:
            # Navigating to a text/attribute value: order and lineage follow
            # the entry column (special case of Category III, Table 4.1).
            order_schema = base.order_schema
            context[self.out] = ContextSpec(order=in_spec.order,
                                            lineage=((self.col, None),))
        else:
            # Category IV of Table 3.1: OS' = OS + col' (entry column, when
            # last, is subsumed); Category III of Table 4.1: self lineage.
            order = list(base.order_schema)
            if order and order[-1] == self.col:
                order.pop()
            order.append(self.out)
            order_schema = tuple(order)
            context[self.out] = ContextSpec(order=(), lineage=())
        return TableSchema(columns, order_schema, context)

    def _precompute(self) -> None:
        self._element_steps = self.path.element_steps()
        self._value_steps = self.path.value_steps()

    def compute(self, ctx: ExecutionContext, inputs) -> XatTable:
        if ctx.mode == DELTA and ctx.delta is not None:
            return self._delta(ctx, inputs[0])
        table = XatTable(self.schema)
        element_steps = self._element_steps
        value_steps = self._value_steps
        out = self.out
        for tup in inputs[0].tuples:
            for entry in items_of(tup[self.col]):
                if not isinstance(entry, NodeItem):
                    continue
                produced = False
                for key in _reached(ctx, entry.key.without_override(),
                                    element_steps):
                    for item in _cell_items(ctx, key, value_steps):
                        table.append(tup.extended(out, item))
                        produced = True
                if not produced and self.keep_empty:
                    table.append(tup.extended(out, None))
        return table

    def _delta(self, ctx: ExecutionContext, source: XatTable) -> XatTable:
        """Δφ(T) = φ(ΔT), seeking the update roots (see the module doc).

        Navigation never leaves the entry node's document, so whether
        the batch's document is the one being walked is decided once per
        entry; every frontier key carries ``(count multiplier, refresh,
        classification)`` so each target is classified exactly once.
        """
        spec = ctx.delta
        storage = ctx.storage
        document_of_key = storage.document_of_key
        classify = spec.classify
        sign_at = spec.sign_at
        doc = spec.document
        element_steps = self._element_steps
        value_steps = self._value_steps
        n_last = len(element_steps) - 1
        col = self.col
        out = self.out
        attr_value = bool(value_steps) and value_steps[0].is_attribute
        # A text modify can change neither attributes nor binding
        # multiplicities, so an attribute-valued unnest is inert under a
        # modify batch: crossing/stopping near a modify root must not mark
        # refresh (a spurious group-level refresh would swallow the
        # count-carrying halves of first-class pairs downstream).
        attr_inert = spec.phase == "modify" and attr_value
        pairs_possible = (spec.phase == "modify" and spec.has_pairs
                          and not attr_value)
        table = XatTable(self.schema)
        append = table.append
        for tup in source.tuples:
            cell = tup.cells.get(col)
            if cell is None:
                continue
            tup_touched = tup.touched
            for entry in (cell,) if isinstance(cell, Item) else cell:
                if not isinstance(entry, NodeItem):
                    continue
                entry_key = entry.key.without_override()
                in_doc = document_of_key(entry_key) == doc
                if not in_doc and not tup_touched:
                    # Every product would come out untouched and be
                    # dropped (no classification, no sign, no pair can
                    # apply in a foreign document) — skip the walk.
                    continue
                entry_status = classify(entry_key) if in_doc else None
                frontier = [(entry_key, 1, False, entry_status)]
                is_first = storage.is_document_root(entry_key)
                # An untouched tuple outside every root subtree *seeks*:
                # only the targets related to a root are enumerated,
                # derived from the roots themselves.
                seeking = in_doc and not tup_touched
                for index, step in enumerate(element_steps):
                    is_last = index == n_last
                    nxt: list = []
                    for key, mult, refresh, status in frontier:
                        if seeking and status != _AT:
                            targets = _related_targets(ctx, key, step,
                                                       is_first)
                        else:
                            targets = _element_targets(ctx, key, step,
                                                       is_first)
                        if not targets:
                            continue
                        if status == _AT or not in_doc:
                            # Inside a root's subtree everything belongs
                            # to the delta (the sign was applied at the
                            # crossing) and is itself at or below that
                            # root; outside the batch's document no
                            # target classifies.
                            nxt += [(tgt, mult, refresh, status)
                                    for tgt in targets]
                            continue
                        classified = [(tgt, classify(tgt))
                                      for tgt in targets]
                        related = [tc for tc in classified
                                   if tc[1] is not None]
                        if related:
                            classified = related
                        for tgt, cls in classified:
                            if cls == _AT:
                                # The update sign multiplies in exactly
                                # once, at the crossing into a root's
                                # subtree; a modify root (sign 0) marks
                                # a count-neutral refresh instead.
                                sign = sign_at(tgt)
                                if sign == 0:
                                    nxt.append((tgt, mult, True, cls))
                                else:
                                    nxt.append((tgt, mult * sign, refresh,
                                                cls))
                            elif cls == _ANCESTOR and is_last:
                                # Stopping at a proper ancestor of a root:
                                # the reached fragment's content changed
                                # (passing through one on the way down
                                # means nothing yet).
                                nxt.append((tgt, mult, True, cls))
                            else:
                                nxt.append((tgt, mult, refresh, cls))
                    frontier = nxt
                    is_first = False
                entry_at = entry_status == _AT
                for key, mult, refresh, status in frontier:
                    if attr_inert:
                        refresh = False
                        status = None
                    # A tuple is pinned to the delta when this navigation's
                    # final node relates to an update root, or when the
                    # tuple already was.  Unpinned tuples are dropped: an
                    # unrelated branch (self-join) must contribute an
                    # empty delta, not its full table.
                    if not (tup_touched or refresh or mult != 1
                            or status is not None or entry_at):
                        continue
                    count = tup.count * mult
                    if pairs_possible:
                        variants = _pair_variants(ctx, key, value_steps)
                        if variants is not None:
                            _emit_pair(table, tup, out, variants, count)
                            continue
                    for item in _cell_items(ctx, key, value_steps):
                        cells = dict(tup.cells)
                        cells[out] = item
                        append(XatTuple(cells, count,
                                        tup.refresh or refresh, True,
                                        tup.era))
        return table

    def signature_core(self) -> tuple:
        return (self.symbol, self.col, str(self.path), self.out,
                self.keep_empty)


class NavigateCollection(XatOperator):
    """``Phi_{col,path} -> col'``: navigation without unnesting — one output
    tuple per input tuple, the cell holding the reached collection."""

    symbol = "Phi"

    def __init__(self, child: XatOperator, col: str, path: Path, out: str):
        super().__init__([child])
        self.col = col
        self.path = path
        self.out = out

    def _build_schema(self) -> TableSchema:
        base = self.inputs[0].schema
        columns = base.columns + (self.out,)
        context = dict(base.context)
        in_spec = base.spec(self.col)
        # Category II of Table 4.1: lineage follows the entry column.
        lineage = ((self.col, None),)
        context[self.out] = ContextSpec(order=in_spec.order, lineage=lineage)
        return TableSchema(columns, base.order_schema, context)

    def _precompute(self) -> None:
        self._element_steps = self.path.element_steps()
        self._value_steps = self.path.value_steps()

    def _member_variants(self, ctx: ExecutionContext, key: FlexKey,
                         items: list[Item]
                         ) -> tuple[list[Item], list[Item], bool]:
        """One final member's ``(old_items, new_items, changed)``, for a
        member in the batch's document.

        Inserted members exist only in the new state, deleted members
        only in the old one (the deferred-delete discipline keeps them
        readable during propagation); a member whose text a first-class
        modify changed appears in both states but the old variant reads
        the pre-update value.  An unchanged member is shared.
        """
        spec = ctx.delta
        value_steps = self._value_steps
        cls = spec.classify(key)
        if spec.phase == "insert" and cls == _AT:
            return [], items, True
        if spec.phase == "delete" and cls == _AT:
            return items, [], True
        if spec.phase == "modify" and spec.has_pairs:
            if value_steps:
                if not value_steps[0].is_attribute:
                    root = spec.pair_root(key)
                    if root is not None:
                        return root.old_items(key), items, True
            elif spec.pair_roots_below(key):
                return [NodeItem(key, text_override=spec)], items, True
        return items, items, False

    def compute(self, ctx: ExecutionContext, inputs) -> XatTable:
        if ctx.mode == DELTA and ctx.delta is not None:
            return self._delta(ctx, inputs[0])
        table = XatTable(self.schema)
        value_steps = self._value_steps
        for tup in inputs[0].tuples:
            collected: list[Item] = []
            for entry in items_of(tup[self.col]):
                if not isinstance(entry, NodeItem):
                    continue
                for key in _reached(ctx, entry.key.without_override(),
                                    self._element_steps):
                    collected.extend(_cell_items(ctx, key, value_steps))
            table.append(tup.extended(self.out, collected))
        return table

    def _delta(self, ctx: ExecutionContext, source: XatTable) -> XatTable:
        """One output tuple per input tuple: a cell whose membership or
        member text differs between the pre- and post-batch states turns
        the tuple into a retract/assert pair; content changing *below* a
        member marks it ``refresh``; otherwise it passes through."""
        spec = ctx.delta
        storage = ctx.storage
        document_of_key = storage.document_of_key
        classify = spec.classify
        sign_at = spec.sign_at
        doc = spec.document
        element_steps = self._element_steps
        value_steps = self._value_steps
        n_last = len(element_steps) - 1
        col = self.col
        out = self.out
        table = XatTable(self.schema)
        append = table.append
        for tup in source.tuples:
            collected: list[Item] = []    # current-state members
            old_members: list[Item] = []  # pre-batch members
            new_members: list[Item] = []  # post-batch members
            changed = False
            refresh = False
            for entry in items_of(tup.cells.get(col)):
                if not isinstance(entry, NodeItem):
                    continue
                entry_key = entry.key.without_override()
                in_doc = document_of_key(entry_key) == doc
                # Inside an update root the whole tuple reads one state
                # (the sign was applied at the unnest crossing), never a
                # pair; outside the batch's document nothing classifies.
                shared = not in_doc or classify(entry_key) == _AT
                frontier = [entry_key]
                is_first = storage.is_document_root(entry_key)
                for index, step in enumerate(element_steps):
                    is_last = index == n_last
                    nxt: list = []
                    for key in frontier:
                        targets = _element_targets(ctx, key, step, is_first)
                        if not shared:
                            for tgt in targets:
                                cls = classify(tgt)
                                # Collections never change tuple
                                # multiplicity: any crossing that is not
                                # a plain insert (+1), or stopping at an
                                # ancestor of a root, marks the tuple
                                # refresh instead.
                                if cls == _AT:
                                    if sign_at(tgt) != 1:
                                        refresh = True
                                elif cls == _ANCESTOR and is_last:
                                    refresh = True
                        nxt.extend(targets)
                    frontier = nxt
                    is_first = False
                for key in frontier:
                    items = _cell_items(ctx, key, value_steps)
                    collected.extend(items)
                    if shared:
                        old_members.extend(items)
                        new_members.extend(items)
                        continue
                    olds, news, member_changed = self._member_variants(
                        ctx, key, items)
                    old_members.extend(olds)
                    new_members.extend(news)
                    changed = changed or member_changed
            if tup.era is not None:
                # One half of an upstream pair: extend with the matching
                # state's members (the count already carries the sign).
                members = old_members if tup.era == "old" else new_members
                append(tup.extended(out, members, refresh=False,
                                    touched=True))
            elif changed:
                # The cell's content differs between the two states: a
                # count-neutral refresh cannot re-route derivations that
                # join/group/sort on this cell, so the tuple becomes a
                # first-class retract/assert pair (Section 5.2.2 handled
                # in-flight instead of by delete+reinsert decomposition).
                append(tup.extended(out, old_members, count=-tup.count,
                                    refresh=False, touched=True, era="old"))
                append(tup.extended(out, new_members, refresh=False,
                                    touched=True, era="new"))
            else:
                append(tup.extended(out, collected,
                                    refresh=tup.refresh or refresh))
        return table

    def signature_core(self) -> tuple:
        return (self.symbol, self.col, str(self.path), self.out)
