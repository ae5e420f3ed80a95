"""Combine, Group By and aggregate functions (Sections 2.2.2, 3.3.2, 7.6).

Combine implements the ``combine`` function of Fig 3.3 (overriding orders
composed from the input Order Schema) and the ``assignOverRidOrd`` id
operation of Table 4.2.  Group By supports the paper's two ``func`` forms:
a nested Combine (grouping without aggregation) and an aggregate function.
Counts sum across group members, keeping both operators linear for
maintenance (Chapter 6) — unlike Distinct, whose output counts existence
(:class:`repro.xat.relational.Distinct`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..flexkeys import COMPOSE_SEP, FlexKey
from .base import DELTA, ExecutionContext, XatOperator, cached_tuple, \
    item_fingerprint
from .conditions import item_value
from .relational import group_key
from .table import (AtomicItem, ContextSpec, Item, NodeItem, TableSchema,
                    XatTable, XatTuple, items_of, single_item)

AGG_FUNCTIONS = ("count", "sum", "avg", "min", "max")


@dataclass
class AggContrib:
    """One group member's contribution: value, derivation count, refresh.

    ``refresh`` marks a contribution whose *value* was (re-)derived this
    round — a count-neutral content refresh, or the assertion half of a
    first-class modify pair.  Counts are pure Z-arithmetic: a member is
    alive while its derivation count is positive; the flag only controls
    whether a merge adopts the carried value.
    """

    value: float
    count: int
    refresh: bool = False


@dataclass
class AggState:
    """Incremental aggregate state: per-member contributions (Section 7.6).

    Keying contributions by member identity makes aggregate maintenance
    *idempotent* under re-derivations (the delta-join terms re-derive
    existing members) and handles min/max deletes without recomputation: a
    member is alive while its derivation count is positive; the aggregate
    value is computed over alive members, each counted once.

    There is one contribution rule, :meth:`patch`, in place and
    O(|other|).  Who may call it is a matter of *ownership*: a state
    built by :func:`compute_aggregate` rides a delta or FULL table that
    several passes (and the operator-state store) read, so nobody
    mutates it; :meth:`owned_copy` hands its caller a private state,
    alive members only, which the caller alone holds and patches.  The
    view extent owns the states it patches (``apply/deep_union.py``); a
    cached table's states are shared with every pass the table serves
    and go through the pure :meth:`merge`.  ``owned`` defaults on the
    class, so a state pickled before the mark existed reads not owned.

    An owned state holds alive members only, so its ``count`` is
    ``len(contribs)``; ``sum``/``avg``/``min``/``max`` scan the alive
    members' values on every :meth:`value` (no running total is kept: a
    running float drifts from recomputation's ``sum``).
    """

    kind: str
    contribs: dict[str, AggContrib] = field(default_factory=dict)
    owned: bool = False

    def add(self, member_id: str, value: float, count: int,
            refresh: bool = False) -> None:
        existing = self.contribs.get(member_id)
        if existing is None:
            self.contribs[member_id] = AggContrib(value, count,
                                                  refresh or count > 0)
            return
        existing.count += count
        if refresh or count > 0:
            # An assertion (or content refresh) carries the member's
            # current value: adopt it, and remember that this state
            # re-derived the value so a later merge adopts it too —
            # even when a retract/assert pair nets the count to zero
            # (the member stays alive in the merged state, its value
            # moves).
            existing.value = value
            existing.refresh = True

    def owned_copy(self) -> "AggState":
        """A private copy, alive members only, that its one holder
        patches in place."""
        return AggState(self.kind,
                        {k: AggContrib(c.value, c.count)
                         for k, c in self.contribs.items() if c.count > 0},
                        owned=True)

    def patch(self, other: "AggState") -> None:
        """Fold the delta state ``other`` in, in place, in O(|other|)."""
        contribs = self.contribs
        for member_id, contrib in other.contribs.items():
            existing = contribs.get(member_id)
            if existing is None:
                if contrib.count > 0:
                    contribs[member_id] = AggContrib(contrib.value,
                                                     contrib.count)
                elif contrib.refresh:
                    # value-only re-derivation of a member this state
                    # never saw: keep it alive with one derivation
                    contribs[member_id] = AggContrib(contrib.value, 1)
                continue
            existing.count += contrib.count
            if existing.count <= 0:
                del contribs[member_id]
            elif contrib.refresh:
                existing.value = contrib.value

    def merge(self, other: "AggState") -> "AggState":
        """The pure form of :meth:`patch`, for holders that share their
        states (a cached table stages a patch before committing it)."""
        merged = self.owned_copy()
        merged.patch(other)
        merged.owned = False
        return merged

    def alive_values(self) -> list[float]:
        return [c.value for c in self.contribs.values() if c.count > 0]

    def value(self) -> str:
        if self.owned and self.kind == "count":
            return _format_number(len(self.contribs))
        return _aggregate_text(self.kind, self.alive_values())


def _aggregate_text(kind: str, values: list[float]) -> str:
    """The text of aggregate ``kind`` over ``values``."""
    if kind == "count":
        return _format_number(len(values))
    if kind == "sum":
        return _format_number(sum(values))
    if not values:
        return ""
    if kind == "avg":
        return _format_number(sum(values) / len(values))
    return _format_number(min(values) if kind == "min" else max(values))


def _format_number(value) -> str:
    number = float(value)
    if number == int(number):
        return str(int(number))
    return repr(number)


def _member_id(item) -> str:
    if isinstance(item, NodeItem):
        return item.key.value
    assert isinstance(item, AtomicItem)
    if item.source_key is not None:
        return item.source_key.value
    return "v:" + item.value


def compute_aggregate(kind: str, tuples: Sequence[XatTuple], col: str,
                      ctx: ExecutionContext) -> AggState:
    """Per-member aggregate state over the ``col`` cells of ``tuples``.

    A member's derivation sign comes from its tuple's count — the delta
    join terms may re-derive a member several times with inflated Z-counts,
    but per-member counting keeps each value contribution single.
    """
    if kind not in AGG_FUNCTIONS:
        raise ValueError(f"unknown aggregate {kind!r}")
    state = AggState(kind)
    for tup in tuples:
        for item in items_of(tup[col]):
            weight = tup.count * item.count
            refresh = tup.refresh or item.refresh
            if refresh:
                # A content refresh is count-neutral: it re-derives the
                # member's value but adds no derivation (its tuple count
                # of 1 is not a delta).
                weight = 0
            if weight == 0 and not refresh:
                continue
            # count() aggregates nodes, whose text need not be numeric.
            number = 0.0 if kind == "count" else float(item_value(item, ctx))
            state.add(_member_id(item), number, weight, refresh=refresh)
    return state


def _copied_item(item: Item, count: int) -> Item:
    """A cached-table copy of one group member (refresh flag stripped)."""
    if isinstance(item, NodeItem):
        return NodeItem(item.key, count, False, item.skeleton)
    assert isinstance(item, AtomicItem)
    return AtomicItem(item.value, item.source_key, count, False,
                      item.order_value, item.agg)


def merge_member_items(existing: Sequence[Item],
                       delta: Sequence[Item]) -> Optional[list[Item]]:
    """Patch a cached group's member list with its delta members.

    Members match by item identity (key / value, overriding orders
    included); counts merge under Z-semantics, refresh members replace in
    place.  ``None`` when the delta cannot be reconciled (the caller
    falls back to recomputation).
    """
    merged: dict[tuple, Item] = {}
    for item in existing:
        merged[item_fingerprint(item)] = item
    for item in delta:
        key = item_fingerprint(item)
        current = merged.get(key)
        if item.refresh:
            if current is None:
                return None
            merged[key] = _copied_item(item, current.count)
        elif current is None:
            if item.count <= 0:
                return None
            merged[key] = _copied_item(item, item.count)
        else:
            count = current.count + item.count
            if count <= 0:
                del merged[key]
            else:
                merged[key] = _copied_item(current, count)
    return list(merged.values())


def _resigned_item(item: Item, count: int, refresh: bool) -> Item:
    """A copy of ``item`` carrying a merged count / refresh flag."""
    if isinstance(item, NodeItem):
        return NodeItem(item.key, count, refresh, item.skeleton,
                        item.text_override)
    assert isinstance(item, AtomicItem)
    return AtomicItem(item.value, item.source_key, count, refresh,
                      item.order_value, item.agg)


def _merge_signed_items(combined: list[Item]) -> list[Item]:
    """Collapse same-identity signed items to one net emission.

    A delta pass may derive one member several times with signed counts
    (the retract/assert halves of a first-class modify, plus the old-side
    cross terms of the join expansion).  The Deep Union fuses a combine
    list *sequentially*, so an interleaving whose running sum crosses
    zero would remove the extent node mid-way and silently drop the
    remaining retractions; netting per identity first makes the emission
    order-free.  A pair netting to zero with a positive (new-state) half
    becomes a count-neutral content refresh — the derivation survives,
    its content is re-derived.
    """
    def identity(item: Item) -> tuple:
        # The full emission identity: value/key fingerprint *plus* the
        # order token — value-equal items at different positions are
        # distinct result members and must not net against each other.
        return (item_fingerprint(item), item.order_token())

    seen: set = set()
    duplicated = False
    for item in combined:
        if item.refresh:
            continue
        fingerprint = identity(item)
        if fingerprint in seen:
            duplicated = True
            break
        seen.add(fingerprint)
    if not duplicated:
        return combined
    out: list = []
    buckets: dict = {}
    for item in combined:
        if item.refresh:
            out.append(item)
            continue
        fingerprint = identity(item)
        bucket = buckets.get(fingerprint)
        if bucket is None:
            buckets[fingerprint] = bucket = [item]
            out.append(bucket)
        else:
            bucket.append(item)
    result: list[Item] = []
    for entry in out:
        if not isinstance(entry, list):
            result.append(entry)
            continue
        if len(entry) == 1:
            result.append(entry[0])
            continue
        net = sum(item.count for item in entry)
        positive = next((item for item in reversed(entry)
                         if item.count > 0), None)
        if net == 0:
            if positive is not None:
                result.append(_resigned_item(positive, 1, True))
            continue
        representative = positive if positive is not None else entry[0]
        result.append(_resigned_item(representative, net, False))
    return result


def assign_overriding_orders(tuples: Sequence[XatTuple], col: str,
                             order_schema: Sequence[str]) -> list[Item]:
    """The ``combine`` function of Fig 3.3: annotate items of ``col``.

    Each produced item carries an overriding order composed of the tuple's
    Order Schema tokens (plus the item's own order when ``col`` is not part
    of the Order Schema), and the tuple's count/refresh annotations.
    """
    combined: list[Item] = []
    order_cols = [c for c in order_schema if c != col]
    for tup in tuples:
        prefix_tokens = []
        for oc in order_cols:
            item = single_item(tup[oc])
            prefix_tokens.append(item.order_token()
                                 if item is not None else "")
        for item in items_of(tup[col]):
            if not order_schema:
                new_item = _annotated(item, None, tup)
            else:
                tokens = prefix_tokens + [item.order_token()]
                new_item = _annotated(
                    item, FlexKey(COMPOSE_SEP.join(tokens)), tup)
            combined.append(new_item)
    return _merge_signed_items(combined)


def _annotated(item: Item, override: Optional[FlexKey],
               tup: XatTuple) -> Item:
    count = item.count * tup.count
    refresh = item.refresh or tup.refresh
    if isinstance(item, NodeItem):
        key = item.key if override is None else item.key.with_override(override)
        return NodeItem(key, count, refresh, item.skeleton)
    assert isinstance(item, AtomicItem)
    source = item.source_key
    if override is not None:
        source = (source or FlexKey(item.order_token() or "zz")) \
            .with_override(override)
    return AtomicItem(item.value, source, count, refresh,
                      item.order_value, item.agg)


class Combine(XatOperator):
    """``C_col(T)``: all cells of ``col`` merged into one sequence."""

    symbol = "C"

    def __init__(self, child: XatOperator, col: str):
        super().__init__([child])
        self.col = col

    def _build_schema(self) -> TableSchema:
        # Category IV of Table 4.1: the "all" lineage; no tuple order.
        return TableSchema(
            (self.col,), (),
            {self.col: ContextSpec(order=None,
                                   lineage=(("*", None),))})

    def compute(self, ctx: ExecutionContext, inputs) -> XatTable:
        source = inputs[0]
        items = assign_overriding_orders(
            source.tuples, self.col, source.schema.order_schema)
        table = XatTable(self.schema)
        # The one "all" tuple exists before and after every batch: its Δ
        # is count-neutral (the constructor above keeps its count).
        table.append(XatTuple({self.col: items}, int(ctx.mode != DELTA)))
        return table

    def signature_core(self) -> tuple:
        return (self.symbol, self.col)


class GroupBy(XatOperator):
    """``gamma_cols(T, func)`` where func is Combine or an aggregate.

    Value-based grouping; group counts are sums of member counts.
    """

    symbol = "gamma"

    def __init__(self, child: XatOperator, group_cols: Sequence[str],
                 combine_col: Optional[str] = None,
                 agg: Optional[tuple[str, str, str]] = None):
        """``combine_col`` nests that column per group; ``agg`` is
        ``(function, input_col, output_col)``.  Exactly one must be given."""
        super().__init__([child])
        if (combine_col is None) == (agg is None):
            raise ValueError("GroupBy needs exactly one of combine_col/agg")
        self.group_cols = tuple(group_cols)
        self.combine_col = combine_col
        self.agg = agg

    def _result_col(self) -> str:
        return self.combine_col if self.combine_col else self.agg[2]

    def _build_schema(self) -> TableSchema:
        base = self.inputs[0].schema
        carried = tuple(c for c in base.columns
                        if c not in self.group_cols
                        and c != self._result_col())
        columns = self.group_cols + carried + (self._result_col(),)
        context: dict[str, ContextSpec] = {}
        lineage = tuple((g, None) for g in self.group_cols)
        for col in self.group_cols:
            context[col] = ContextSpec(order=None, lineage=())
        for col in carried:
            # Carried columns are functionally dependent on the grouping
            # columns (they come from the outer block being grouped).
            context[col] = ContextSpec(order=None,
                                       lineage=base.spec(col).lineage)
        context[self._result_col()] = ContextSpec(order=None, lineage=lineage)
        # Value-based grouping destroys tuple order (Category II, Table 3.1).
        return TableSchema(columns, (), context)

    def compute(self, ctx: ExecutionContext, inputs) -> XatTable:
        # Δγ(T) = γ_Z(ΔT): counts sum in Z, so the same grouping runs
        # over current-state and delta tuples alike.
        source = inputs[0]
        groups: dict[tuple, list[XatTuple]] = {}
        for tup in source.tuples:
            groups.setdefault(group_key(tup, self.group_cols, ctx),
                              []).append(tup)
        table = XatTable(self.schema)
        result_col = self._result_col()
        plain_cols = [c for c in self.schema.columns if c != result_col]
        order_schema = source.schema.order_schema
        combine_col = self.combine_col

        def emit(members: list[XatTuple]) -> None:
            # one pass: the summed count, any refresh, and the era the
            # members share (None when they do not all share one)
            count = 0
            refresh = False
            era = members[0].era
            for member in members:
                count += member.count
                if member.refresh:
                    refresh = True
                if member.era != era:
                    era = None
            cells: dict = {}
            for col in plain_cols:
                for member in members:
                    value = member.cells.get(col)
                    if value is not None:
                        break
                cells[col] = value
            if combine_col is not None:
                cells[combine_col] = assign_overriding_orders(
                    members, combine_col, order_schema)
                if count == 0 and not refresh and not cells[combine_col]:
                    return
            else:
                kind, in_col, out_col = self.agg
                state = compute_aggregate(kind, members, in_col, ctx)
                cells[out_col] = AtomicItem(state.value(), agg=state)
            table.append(XatTuple(cells, count, refresh, era=era))

        for members in groups.values():
            # A delta group may mix count-carrying members (retractions,
            # assertions, signed re-derivations) with count-neutral
            # refresh members.  One merged tuple cannot express both —
            # downstream, a refresh node fuses count-neutrally and would
            # swallow the counts (and an aggregate cell would conflate
            # value re-derivations with derivation-count deltas) — so
            # the two parts emit separately: the signed part first, the
            # content refresh after it.
            refreshers = [t for t in members if t.refresh]
            if refreshers and len(refreshers) < len(members):
                emit([t for t in members if not t.refresh])
                emit(refreshers)
            else:
                emit(members)
        return table

    # Persistent count state (Section 7.6): cached group tuples merge by
    # group key; aggregate cells merge per-member contribution state,
    # Combine cells merge member item lists.

    def state_merge_key(self, tup: XatTuple, ctx) -> tuple:
        return ("group", group_key(tup, self.group_cols, ctx))

    def state_apply(self, existing, dt, ctx):
        result_col = self._result_col()
        if existing is None:
            if dt.refresh or dt.count < 0:
                return ("fail", None)
            return ("insert", cached_tuple(dt))
        count = existing.count + (0 if dt.refresh else dt.count)
        if self.agg is not None:
            e_item = single_item(existing[result_col])
            d_item = single_item(dt[result_col])
            if (e_item is None or d_item is None or e_item.agg is None
                    or d_item.agg is None):
                return ("fail", None)
            merged_state = e_item.agg.merge(d_item.agg)
            if not merged_state.contribs:
                return ("remove", None)
            if count <= 0:
                # Count bookkeeping and contribution state disagree (a
                # refresh-mixed batch can do this): recompute instead of
                # serving a fabricated group count.
                return ("fail", None)
            cells = dict(existing.cells)
            cells[result_col] = AtomicItem(merged_state.value(),
                                           agg=merged_state)
            return ("replace", XatTuple(cells, count, False, False))
        merged = merge_member_items(items_of(existing[result_col]),
                                    items_of(dt[result_col]))
        if merged is None:
            return ("fail", None)
        if count <= 0 and not merged:
            return ("remove", None)
        cells = dict(existing.cells)
        cells[result_col] = merged
        return ("replace", XatTuple(cells, count, False, False))

    def signature_core(self) -> tuple:
        return (self.symbol, self.group_cols, self.combine_col, self.agg)


class Aggregate(XatOperator):
    """Whole-table aggregate (no grouping): one output tuple."""

    symbol = "agg"

    def __init__(self, child: XatOperator, kind: str, col: str, out: str):
        super().__init__([child])
        if kind not in AGG_FUNCTIONS:
            raise ValueError(f"unknown aggregate {kind!r}")
        self.kind = kind
        self.col = col
        self.out = out

    def _build_schema(self) -> TableSchema:
        return TableSchema((self.out,),
                           (), {self.out: ContextSpec(order=None,
                                                      lineage=(("*", None),))})

    def compute(self, ctx: ExecutionContext, inputs) -> XatTable:
        state = compute_aggregate(self.kind, inputs[0].tuples, self.col,
                                  ctx)
        table = XatTable(self.schema)
        table.append(XatTuple({self.out: AtomicItem(state.value(),
                                                    agg=state)},
                              int(ctx.mode != DELTA)))   # as Combine's
        return table

    def signature_core(self) -> tuple:
        return (self.symbol, self.kind, self.col, self.out)


class TupleFunction(XatOperator):
    """Per-tuple scalar aggregate over a collection cell (e.g. ``count($p/i)``)."""

    symbol = "f"

    def __init__(self, child: XatOperator, kind: str, col: str, out: str):
        super().__init__([child])
        if kind not in AGG_FUNCTIONS:
            raise ValueError(f"unknown aggregate {kind!r}")
        self.kind = kind
        self.col = col
        self.out = out

    def _build_schema(self) -> TableSchema:
        base = self.inputs[0].schema
        context = dict(base.context)
        context[self.out] = ContextSpec(order=base.spec(self.col).order,
                                        lineage=((self.col, None),))
        return TableSchema(base.columns + (self.out,), base.order_schema,
                           context)

    def compute(self, ctx: ExecutionContext, inputs) -> XatTable:
        table = XatTable(self.schema)
        for tup in inputs[0]:
            items = items_of(tup[self.col])
            if self.kind == "count":
                value = _format_number(sum(i.count for i in items))
            else:
                numbers = [float(item_value(i, ctx)) for i in items]
                value = _aggregate_text(self.kind, numbers) \
                    if numbers else ""
            table.append(tup.extended(self.out, AtomicItem(value)))
        return table

    def signature_core(self) -> tuple:
        return (self.symbol, self.kind, self.col, self.out)
