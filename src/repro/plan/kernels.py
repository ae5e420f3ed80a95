"""Specialized kernels for hot delta opcodes.

A kernel is ``fn(instr, ctx, inputs) -> XatTable | None`` where
``inputs`` are the already-computed input tables from the VM's register
file.  Returning ``None`` means "this batch shape is outside my fast
path" — the VM then runs the interpreter's operator, so a kernel can
guard aggressively and never be wrong, only slower.

A kernel is either a delegation — ``DISTINCT.d`` and ``ORDER_BY.d`` call
the one delta method their operator owns, so that rule exists once — or
a *faithful port* of its operator's delta path with the per-batch
invariants hoisted out of the per-tuple loops:

* compile-time statics (navigation step tables, equi-key columns,
  flattened lineage recipes) live on the instruction's
  :class:`~repro.plan.compiler.PreparedOp` record, shared across
  structurally-equal subplans of different views;
* the document membership check of ``_classify`` — one first-atom parse
  and dict probe per navigated key in the interpreter — is hoisted to
  one check per entry item (navigation never leaves the entry's
  document), after which classification is a memo probe on the run's
  :class:`~repro.plan.vm.FastDeltaSpec`;
* the two classification passes per navigation target (admission
  filtering, then status annotation) merge into one;
* per-tuple profiler context managers are dropped (they cost a
  ``perf_counter`` call each even when profiling is off).

The differential suite runs every view and mutator kind under both
execution modes; any divergence between a kernel and its operator is a
test failure, not a silent wrong answer.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..flexkeys import COMPOSE_SEP, FlexKey
from ..storage import ContentItem, Skeleton
from ..xat.base import DELTA, FULL
from ..xat.conditions import Literal, item_value
from ..xat.grouping import assign_overriding_orders, compute_aggregate
from ..xat.navigation import (_ANCESTOR, _AT, _element_targets, _emit_pair,
                              _pair_variants, _related_targets, _value_items)
from ..xat.relational import (_hash_keys, _probe_union, old_side_handle,
                              side_handle)
from ..xat.semantic_ids import constructed_id, lineage_token_of_item
from ..xat.table import (AtomicItem, Item, NodeItem, XatTable, XatTuple,
                         items_of, single_item)

__all__ = ["kernel_for", "prepare_statics", "register_kernel"]

#: (operator class name, mode) -> kernel callable
_KERNELS: dict[tuple[str, str], Callable] = {}


def register_kernel(op_class_name: str, *modes: str):
    """Decorator registering one specialized kernel for the given modes."""
    def wrap(fn: Callable) -> Callable:
        for mode in modes:
            _KERNELS[(op_class_name, mode)] = fn
        return fn
    return wrap


def kernel_for(op, mode: str) -> Optional[Callable]:
    return _KERNELS.get((type(op).__name__, mode))


# ---------------------------------------------------------------------------
# compile-time statics
# ---------------------------------------------------------------------------


def _lineage_terminals(schema, col: str, out: list) -> None:
    """Flatten the static recursion of ``lineage_tokens`` into a recipe.

    The Context Schema is fixed at prepare time, so the recursive
    column-reference resolution always terminates in the same ordered
    sequence of ``("*", None)`` / ``("self", col)`` terminals; resolving
    the recipe per tuple is then a flat loop over cells.
    """
    spec = schema.spec(col)
    if spec.is_all_lineage:
        out.append(("*", None))
    elif spec.is_self_lineage:
        out.append(("self", col))
    else:
        for ref_col, _cid in spec.lineage:
            _lineage_terminals(schema, ref_col, out)


def _tagger_statics(op) -> dict:
    schema = op.inputs[0].schema
    id_cols = op._id_source_columns()
    terminals: list = []
    for col in id_cols:
        _lineage_terminals(schema, col, terminals)
    content_cols = op.pattern.content_columns()
    if content_cols:
        order_spec = schema.spec(content_cols[0]).order
    else:
        order_spec = ()
    attributes = tuple(
        (name, operand.value if isinstance(operand, Literal) else None,
         None if isinstance(operand, Literal) else operand.column)
        for name, operand in op.pattern.attributes)
    multi = len(op.pattern.content) > 1
    content = tuple(
        (isinstance(entry, str), entry if isinstance(entry, str)
         else entry[1],
         Tagger_column_ids[index] if multi else None)
        for index, entry in enumerate(op.pattern.content))
    return {"has_ids": bool(id_cols), "terminals": tuple(terminals),
            "order_spec": order_spec or None, "attrs": attributes,
            "content": content, "tag": op.pattern.tag}


#: per-entry order prefixes for multi-content Taggers (same scheme as
#: XML Union's column ids)
Tagger_column_ids = "abcdefghijklmnopqrstuvwxyz"


def prepare_statics(op) -> dict:
    """Kernel-independent static metadata hoisted at compile time.

    The dict is signature-shared, so the work happens once per plan
    structure, not once per view or per batch.
    """
    name = type(op).__name__
    if name in ("NavigateUnnest", "NavigateCollection"):
        return {"element_steps": tuple(op.path.element_steps()),
                "value_steps": tuple(op.path.value_steps())}
    if name in ("Join", "LeftOuterJoin", "CartesianProduct"):
        return {"equi": op._equi_key_columns()}
    if name == "Tagger":
        return _tagger_statics(op)
    if name == "GroupBy":
        return {"order_schema": op.inputs[0].schema.order_schema}
    return {}


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _fast_keys(tup, cols, ctx) -> list[tuple]:
    """``_hash_keys`` with the single-column / single-item fast path."""
    if len(cols) == 1:
        cell = tup.cells.get(cols[0])
        if cell is None:
            return []
        if isinstance(cell, Item):
            if type(cell) is AtomicItem:
                return [(cell.value,)]
            return [(item_value(cell, ctx),)]
        if len(cell) == 1:
            return [(item_value(cell[0], ctx),)]
    return _hash_keys(tup, cols, ctx)


# ---------------------------------------------------------------------------
# source / structural pass-through
# ---------------------------------------------------------------------------


@register_kernel("Source", DELTA)
def _source_delta(instr, ctx, inputs):
    """Source is mode-independent and consumers never mutate its table:
    cache the one-tuple result per storage manager across batches."""
    statics = instr.prepared.statics
    cached = statics.get("source")
    if cached is not None and cached[0] is ctx.storage:
        return cached[1]
    table = instr.xop.execute(ctx)
    statics["source"] = (ctx.storage, table)
    return table


@register_kernel("Expose", DELTA, FULL)
def _expose(instr, ctx, inputs):
    return inputs[0]


@register_kernel("Select", DELTA)
def _select_delta(instr, ctx, inputs):
    op = instr.xop
    condition = op.condition
    table = XatTable(op.schema)
    append = table.append
    for tup in inputs[0].tuples:
        if condition.evaluate(tup, ctx):
            append(tup)
    return table


# ---------------------------------------------------------------------------
# navigation
# ---------------------------------------------------------------------------


@register_kernel("NavigateUnnest", DELTA)
def _nav_unnest_delta(instr, ctx, inputs):
    spec = ctx.delta
    if spec is None:
        return None
    op = instr.xop
    statics = instr.prepared.statics
    element_steps = statics["element_steps"]
    value_steps = statics["value_steps"]
    storage = ctx.storage
    document_of_key = storage.document_of_key
    classify = spec.classify
    sign_at = spec.sign_at
    doc = spec.document
    col = op.col
    out = op.out
    table = XatTable(op.schema)
    append = table.append
    n_last = len(element_steps) - 1
    attr_value = bool(value_steps) and value_steps[0].is_attribute
    attr_inert = spec.phase == "modify" and attr_value
    pairs_possible = (spec.phase == "modify" and spec.has_pairs
                      and not attr_value)
    attr_name = value_steps[0].attribute_name if attr_value else None
    for tup in inputs[0].tuples:
        cell = tup.cells.get(col)
        if cell is None:
            continue
        entries = (cell,) if isinstance(cell, Item) else cell
        tup_touched = tup.touched
        tup_count = tup.count
        tup_refresh = tup.refresh
        for entry in entries:
            if not isinstance(entry, NodeItem):
                continue
            entry_key = entry.key.without_override()
            in_doc = document_of_key(entry_key) == doc
            if not in_doc and not tup_touched:
                # Every product would come out untouched and be dropped
                # (no classification, no sign, no pair can apply in a
                # foreign document) — skip the walk entirely.
                continue
            entry_status = classify(entry_key) if in_doc else None
            frontier = [(entry_key, 1, False, entry_status)]
            is_first = storage.is_document_root(entry_key)
            seeking = not tup_touched
            for index, step in enumerate(element_steps):
                is_last = index == n_last
                nxt: list = []
                for key, mult, refresh, status in frontier:
                    if seeking and in_doc and status != _AT:
                        targets = _related_targets(ctx, key, step,
                                                   is_first)
                    else:
                        targets = _element_targets(ctx, key, step,
                                                   is_first)
                    if not targets:
                        continue
                    if status == _AT or not in_doc:
                        # Inside a root's subtree everything is admitted
                        # unannotated; outside the batch's document no
                        # target classifies.
                        for tgt in targets:
                            nxt.append((tgt, mult, refresh,
                                        classify(tgt) if in_doc
                                        else None))
                        continue
                    classified = [(tgt, classify(tgt)) for tgt in targets]
                    related = [tc for tc in classified
                               if tc[1] is not None]
                    if related:
                        classified = related
                    for tgt, cls in classified:
                        if cls == _AT:
                            sign = sign_at(tgt)
                            if sign == 0:
                                nxt.append((tgt, mult, True, cls))
                            else:
                                nxt.append((tgt, mult * sign, refresh,
                                            cls))
                        elif cls == _ANCESTOR and is_last:
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
                touched = (tup_touched or refresh or mult != 1
                           or status is not None or entry_at)
                if not touched:
                    continue
                if pairs_possible:
                    variants = _pair_variants(ctx, key, value_steps)
                    if variants is not None:
                        _emit_pair(table, tup, out, variants,
                                   tup_count * mult)
                        continue
                if attr_name is not None:
                    value = storage.attribute(key, attr_name)
                    if value is None:
                        continue
                    cells = dict(tup.cells)
                    cells[out] = AtomicItem(value, source_key=key)
                    append(XatTuple(cells, tup_count * mult,
                                    tup_refresh or refresh, touched,
                                    tup.era))
                elif value_steps:
                    for item in _value_items(ctx, key, value_steps):
                        cells = dict(tup.cells)
                        cells[out] = item
                        append(XatTuple(cells, tup_count * mult,
                                        tup_refresh or refresh, touched,
                                        tup.era))
                else:
                    cells = dict(tup.cells)
                    cells[out] = NodeItem(key)
                    append(XatTuple(cells, tup_count * mult,
                                    tup_refresh or refresh, touched,
                                    tup.era))
    return table


@register_kernel("NavigateCollection", DELTA)
def _nav_collect_delta(instr, ctx, inputs):
    spec = ctx.delta
    if spec is None:
        return None
    op = instr.xop
    statics = instr.prepared.statics
    element_steps = statics["element_steps"]
    value_steps = statics["value_steps"]
    storage = ctx.storage
    document_of_key = storage.document_of_key
    classify = spec.classify
    sign_at = spec.sign_at
    doc = spec.document
    col = op.col
    out = op.out
    member_variants = op._member_variants
    table = XatTable(op.schema)
    append = table.append
    n_last = len(element_steps) - 1
    modify_pairs = spec.phase == "modify" and spec.has_pairs
    for tup in inputs[0].tuples:
        collected: list[Item] = []
        old_members: list[Item] = []
        new_members: list[Item] = []
        changed = False
        refresh = False
        cell = tup.cells.get(col)
        entries = (() if cell is None
                   else (cell,) if isinstance(cell, Item) else cell)
        for entry in entries:
            if not isinstance(entry, NodeItem):
                continue
            entry_key = entry.key.without_override()
            in_doc = document_of_key(entry_key) == doc
            entry_status = classify(entry_key) if in_doc else None
            entry_at = entry_status == _AT
            frontier = [entry_key]
            is_first = storage.is_document_root(entry_key)
            for index, step in enumerate(element_steps):
                is_last = index == n_last
                nxt: list = []
                for key in frontier:
                    targets = _element_targets(ctx, key, step, is_first)
                    if entry_at or not in_doc:
                        nxt.extend(targets)
                        continue
                    for tgt in targets:
                        cls = classify(tgt)
                        if cls == _AT:
                            # Collections never change tuple multiplicity:
                            # any crossing that is not a plain insert
                            # (+1) marks the tuple refresh instead.
                            if sign_at(tgt) != 1:
                                refresh = True
                        elif cls == _ANCESTOR and is_last:
                            refresh = True
                        nxt.append(tgt)
                frontier = nxt
                is_first = False
            for key in frontier:
                items = (_value_items(ctx, key, value_steps)
                         if value_steps else [NodeItem(key)])
                collected.extend(items)
                if entry_at:
                    # The whole tuple is inside an update root: cells
                    # read one state, never a pair.
                    old_members.extend(items)
                    new_members.extend(items)
                    continue
                if not in_doc and not modify_pairs:
                    old_members.extend(items)
                    new_members.extend(items)
                    continue
                olds, news, member_changed = member_variants(
                    ctx, key, items, value_steps)
                old_members.extend(olds)
                new_members.extend(news)
                changed = changed or member_changed
        if tup.era is not None:
            members = old_members if tup.era == "old" else new_members
            cells = dict(tup.cells)
            cells[out] = members
            append(XatTuple(cells, tup.count, False, True, tup.era))
            continue
        if changed:
            cells = dict(tup.cells)
            cells[out] = old_members
            append(XatTuple(cells, -tup.count, False, True, "old"))
            cells = dict(tup.cells)
            cells[out] = new_members
            append(XatTuple(cells, tup.count, False, True, "new"))
            continue
        cells = dict(tup.cells)
        cells[out] = collected
        append(XatTuple(cells, tup.count, tup.refresh or refresh,
                        tup.touched, tup.era))
    return table


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


@register_kernel("Join", DELTA)
def _join_delta(instr, ctx, inputs):
    spec = ctx.delta
    if spec is None or ctx.bindings:
        return None
    op = instr.xop
    equi = instr.prepared.statics["equi"]
    if equi is None:
        return None  # theta join: interpreter's nested-loop term
    lcols, rcols = equi
    table = XatTable(op.schema)
    append = table.append
    ldelta, rdelta = inputs
    # The VM's compile-time short-circuit (and the interpreter's own
    # evaluate-level one) already makes the delta of a subtree outside the
    # batch's document empty, so emptiness subsumes the doc checks of the
    # interpreter's two-term expansion.
    if ldelta.tuples:
        other = side_handle(ctx, op.inputs[1], ctx.mode_for_new, rcols)
        probe = other.probe
        for dt in ldelta.tuples:
            for ot in _probe_union(probe,
                                   _fast_keys(dt, lcols, ctx)):
                append(dt.merged(ot))
    if rdelta.tuples:
        other = old_side_handle(ctx, op.inputs[0], ctx.mode_for_old,
                                lcols)
        probe = other.probe
        for dt in rdelta.tuples:
            for ot in _probe_union(probe,
                                   _fast_keys(dt, rcols, ctx)):
                append(ot.merged(dt))
    return table


@register_kernel("LeftOuterJoin", DELTA)
def _loj_delta(instr, ctx, inputs):
    spec = ctx.delta
    if spec is None or ctx.bindings:
        return None
    op = instr.xop
    equi = instr.prepared.statics["equi"]
    if equi is None:
        return None
    lcols, rcols = equi
    table = XatTable(op.schema)
    append = table.append
    modify = spec.phase == "modify"
    ldelta, rdelta = inputs
    if ldelta.tuples:
        # Inner term over (ΔA, B_new) with LOJ null-padding; under a
        # modify batch count-carrying ΔA rows pad against the old right
        # state (see LeftOuterJoin._combine_delta).
        other = side_handle(ctx, op.inputs[1], ctx.mode_for_new, rcols)
        probe = other.probe
        old_check = None
        for dt in ldelta.tuples:
            matches = _probe_union(probe,
                                   _fast_keys(dt, lcols, ctx))
            for ot in matches:
                append(dt.merged(ot))
            if not modify or dt.refresh:
                if not matches:
                    append(op._null_padded(dt, dt.count))
                continue
            if old_check is None:
                old_check = old_side_handle(ctx, op.inputs[1],
                                            ctx.mode_for_old, rcols)
            if not op._handle_has_match(ctx, dt, lcols, old_check):
                append(op._null_padded(dt, dt.count))
    if rdelta.tuples:
        # Old-left inner term plus dangling-status flip corrections.
        other = old_side_handle(ctx, op.inputs[0], ctx.mode_for_old,
                                lcols)
        probe = other.probe
        matched_lefts: dict[int, XatTuple] = {}
        for dt in rdelta.tuples:
            for lt in _probe_union(probe,
                                   _fast_keys(dt, rcols, ctx)):
                append(lt.merged(dt))
                matched_lefts.setdefault(id(lt), lt)
        if not matched_lefts:
            return table
        if modify:
            if not spec.has_pairs:
                return table  # refresh-only modify: no re-routing
            new_check = side_handle(ctx, op.inputs[1], ctx.mode_for_new,
                                    rcols)
            old_check = old_side_handle(ctx, op.inputs[1],
                                        ctx.mode_for_old, rcols)
            for lt in matched_lefts.values():
                if lt.era is not None:
                    continue  # synthetic diff row, not an extent left
                has_new = op._handle_has_match(ctx, lt, lcols, new_check)
                has_old = op._handle_has_match(ctx, lt, lcols, old_check)
                if has_old and not has_new:
                    append(op._null_padded(lt, lt.count))
                elif has_new and not has_old:
                    append(op._null_padded(lt, -lt.count))
            return table
        check_mode = (ctx.mode_for_old if spec.phase == "insert"
                      else ctx.mode_for_new)
        check = side_handle(ctx, op.inputs[1], check_mode, rcols)
        for lt in matched_lefts.values():
            if _probe_union(check.probe,
                            _fast_keys(lt, lcols, ctx)):
                continue
            if spec.phase == "insert":
                append(op._null_padded(lt, -lt.count))
            else:  # delete
                append(op._null_padded(lt, lt.count))
    return table


# ---------------------------------------------------------------------------
# grouping / distinct / combine
# ---------------------------------------------------------------------------


def _cell_group_value(cell):
    """One column's contribution to a value-based grouping key."""
    if cell is None:
        return None
    if isinstance(cell, Item):
        item = cell
    else:
        if not cell:
            return None
        if len(cell) > 1:
            raise ValueError(
                f"expected singleton cell, got {len(cell)} items")
        item = cell[0]
    if isinstance(item, AtomicItem):
        return item.value
    return item.key.value


@register_kernel("Distinct", DELTA)
def _distinct_delta(instr, ctx, inputs):
    return instr.xop.delta_rows(inputs[0], ctx)


@register_kernel("OrderBy", DELTA)
def _order_by_delta(instr, ctx, inputs):
    return instr.xop.keyed_rows(inputs[0], ctx)


@register_kernel("Combine", DELTA)
def _combine_delta(instr, ctx, inputs):
    op = instr.xop
    source = inputs[0]
    items = assign_overriding_orders(source.tuples, op.col,
                                     source.schema.order_schema, ctx)
    table = XatTable(op.schema)
    table.append(XatTuple({op.col: items}))
    return table


@register_kernel("GroupBy", DELTA)
def _groupby_delta(instr, ctx, inputs):
    op = instr.xop
    source = inputs[0]
    group_cols = op.group_cols
    order_schema = instr.prepared.statics["order_schema"]
    groups: dict[tuple, list[XatTuple]] = {}
    single = len(group_cols) == 1
    gcol = group_cols[0] if single else None
    for tup in source.tuples:
        if single:
            key = (_cell_group_value(tup.cells.get(gcol)),)
        else:
            key = tuple(_cell_group_value(tup.cells.get(c))
                        for c in group_cols)
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = [tup]
        else:
            bucket.append(tup)
    table = XatTable(op.schema)
    result_col = op._result_col()
    combine_col = op.combine_col
    agg = op.agg
    plain_cols = tuple(c for c in op.schema.columns if c != result_col)

    def emit(members: list[XatTuple]) -> None:
        count = 0
        refresh = False
        for t in members:
            count += t.count
            refresh = refresh or t.refresh
        eras = {t.era for t in members}
        era = eras.pop() if len(eras) == 1 else None
        cells: dict = {}
        first = members[0]
        for c in plain_cols:
            value = first.cells.get(c)
            if value is None:
                for member in members[1:]:
                    other = member.cells.get(c)
                    if other is not None:
                        value = other
                        break
            cells[c] = value
        if combine_col is not None:
            cells[combine_col] = assign_overriding_orders(
                members, combine_col, order_schema, ctx)
            if count == 0 and not refresh and not cells[combine_col]:
                return
        else:
            kind, in_col, out_col = agg
            state = compute_aggregate(kind, members, in_col, ctx)
            cells[out_col] = AtomicItem(state.value(), agg=state)
        table.append(XatTuple(cells, count, refresh, era=era))

    for members in groups.values():
        # Count-carrying and count-neutral (refresh) members emit as
        # separate group tuples — see GroupBy.execute.
        refreshers = [t for t in members if t.refresh]
        counted = [t for t in members if not t.refresh]
        if refreshers and counted:
            emit(counted)
            emit(refreshers)
            continue
        emit(members)
    return table


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _prefixed_fast(item: Item, cid: str) -> Item:
    """``assignColIdPrfx`` without the per-item profiler timer."""
    token = item.order_token()
    override = FlexKey(cid + "." + token if token else cid)
    if isinstance(item, NodeItem):
        return NodeItem(item.key.with_override(override), item.count,
                        item.refresh, item.skeleton)
    source = (item.source_key or FlexKey("z")).with_override(override)
    return AtomicItem(item.value, source, item.count, item.refresh,
                      item.order_value, item.agg)


@register_kernel("Tagger", DELTA, FULL)
def _tagger(instr, ctx, inputs):
    op = instr.xop
    statics = instr.prepared.statics
    terminals = statics["terminals"]
    has_ids = statics["has_ids"]
    order_spec = statics["order_spec"]
    attrs = statics["attrs"]
    content_recipe = statics["content"]
    tag = statics["tag"]
    out = op.out
    table = XatTable(op.schema)
    append = table.append
    for tup in inputs[0].tuples:
        cells_in = tup.cells
        body: list[str] = []
        for kind, col in terminals:
            if kind == "*":
                body.append("*")
                continue
            cell = cells_in.get(col)
            if cell is None:
                continue
            if isinstance(cell, Item):
                body.append(lineage_token_of_item(cell))
            else:
                for item in cell:
                    body.append(lineage_token_of_item(item))
        if has_ids and not body:
            # Null-padded (outer-join) tuple: no node constructed.
            cells = dict(cells_in)
            cells[out] = None
            append(XatTuple(cells, tup.count, tup.refresh, tup.touched,
                            tup.era))
            continue
        node_id = constructed_id(body)
        override = None
        if order_spec is not None:
            tokens = []
            for order_col in order_spec:
                item = single_item(cells_in.get(order_col))
                tokens.append(item.order_token() if item is not None
                              else "")
            if tokens:
                override = FlexKey(COMPOSE_SEP.join(tokens))
        attributes = {}
        for name, literal, col in attrs:
            if col is None:
                attributes[name] = literal
            else:
                item = single_item(cells_in.get(col))
                attributes[name] = (item_value(item, ctx)
                                    if item is not None else "")
        content: list[ContentItem] = []
        for is_col, payload, cid in content_recipe:
            if is_col:
                for item in items_of(cells_in.get(payload)):
                    if cid is not None:
                        item = _prefixed_fast(item, cid)
                    if isinstance(item, NodeItem):
                        content.append(ContentItem.ref(
                            item.key, item.count, item.refresh,
                            item.skeleton))
                    else:
                        entry = ContentItem.value(item.value, item.count,
                                                  item.refresh)
                        entry.agg = item.agg
                        if (item.source_key is not None
                                and item.source_key.override is not None):
                            entry.key = item.source_key
                        content.append(entry)
            else:
                literal = ContentItem.value(payload)
                if cid is not None:
                    literal.key = FlexKey("z").with_override(FlexKey(cid))
                content.append(literal)
        skeleton = Skeleton(node_id, tag, attributes, content, count=1)
        item = NodeItem(node_id if override is None
                        else node_id.with_override(override),
                        count=1, refresh=tup.refresh, skeleton=skeleton)
        cells = dict(cells_in)
        cells[out] = item
        append(XatTuple(cells, tup.count, tup.refresh, tup.touched,
                        tup.era))
    return table
