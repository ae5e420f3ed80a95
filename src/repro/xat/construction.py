"""Result construction operators: Tagger, XML Union/Unique, Merge, Map.

The Tagger records constructed nodes (never full trees) and assigns
semantic identifiers (``composeNodeIds`` of Fig 4.4).  XML Union assigns the
column-id order prefixes of ``assignColIdPrfx`` (Fig 4.5).  Merge is linear
for maintenance (each side's delta passes through independently).  Map gives
nested FLWOR blocks an executable nested-loop semantics; it is removed by
decorrelation before maintenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..flexkeys import FlexKey
from ..xmlmodel.node import EMPTY_ATTRIBUTES
from .base import DELTA, ExecutionContext, PlanError, XatOperator
from .conditions import ColumnRef, Literal, item_value
from .semantic_ids import (constructed_id, lineage_terminals,
                           override_from_tokens, resolve_lineage,
                           resolve_order)
from .table import (AtomicItem, ContextSpec, Item, NodeItem, Skeleton,
                    TableSchema, XatTable, XatTuple, items_of, single_item)


@dataclass(frozen=True)
class Pattern:
    """A Tagger pattern: ``<tag attr=...>content</tag>``.

    ``attributes`` maps names to operands (columns or literals); ``content``
    entries are column names or ``("literal", text)`` pairs.
    """

    tag: str
    attributes: tuple[tuple[str, Union[ColumnRef, Literal]], ...] = ()
    content: tuple[Union[str, tuple[str, str]], ...] = ()

    def content_columns(self) -> list[str]:
        return [entry for entry in self.content if isinstance(entry, str)]

    def __str__(self) -> str:
        attrs = "".join(f" {name}={{{operand}}}"
                        for name, operand in self.attributes)
        inner = " ".join(entry if isinstance(entry, str) else repr(entry[1])
                         for entry in self.content)
        return f"<{self.tag}{attrs}>{inner}</{self.tag}>"


class Tagger(XatOperator):
    """``T^col_p(T)``: construct one new node per input tuple."""

    symbol = "T"
    XmlUnionColumnIds = "abcdefghijklmnopqrstuvwxyz"

    def __init__(self, child: XatOperator, pattern: Pattern, out: str):
        super().__init__([child])
        self.pattern = pattern
        self.out = out

    def _build_schema(self) -> TableSchema:
        base = self.inputs[0].schema
        columns = base.columns + (self.out,)
        context = dict(base.context)
        # Category V of Table 4.1: self lineage; order follows p.col's order.
        content_cols = self.pattern.content_columns()
        if content_cols:
            in_spec = base.spec(content_cols[0])
            order = in_spec.order
        else:
            order = ()
        context[self.out] = ContextSpec(order=order, lineage=())
        # Category I of Table 3.1: Order Schema passes through.
        return TableSchema(columns, base.order_schema, context)

    def _id_source_columns(self) -> list[str]:
        cols = self.pattern.content_columns()
        if cols:
            return cols
        return [operand.column
                for _name, operand in self.pattern.attributes
                if isinstance(operand, ColumnRef)]

    def _precompute(self) -> None:
        schema = self.inputs[0].schema
        pattern = self.pattern
        id_cols = self._id_source_columns()
        self._has_ids = bool(id_cols)
        #: the Lineage Context of the id columns, flattened to terminals
        self._lineage = tuple(terminal for col in id_cols
                              for terminal in lineage_terminals(schema, col))
        content_cols = pattern.content_columns()
        #: the columns whose order tokens prefix the node's overriding
        #: order — the Order Context of the first content column; empty
        #: when that is undefined or equals the lineage (no override)
        self._order_cols = ((schema.spec(content_cols[0]).order or ())
                            if content_cols else ())
        #: ``(name, literal text or None, column)`` per attribute
        self._attributes = tuple(
            (name, operand.value, None) if isinstance(operand, Literal)
            else (name, None, operand.column)
            for name, operand in pattern.attributes)
        # With several content entries, a per-entry order prefix fixes
        # construction order (same scheme as XML Union).
        cids = (self.XmlUnionColumnIds if len(pattern.content) > 1
                else [None] * len(pattern.content))
        plan = []
        for entry, cid in zip(pattern.content, cids):
            if isinstance(entry, str):
                plan.append((entry, cid, None))
            else:
                key = cid and FlexKey("z").with_override(FlexKey(cid))
                plan.append((None, None, AtomicItem(entry[1], key)))
        #: ``(column, union prefix, literal item)`` per content entry: a
        #: column entry or a literal, never both
        self._content = tuple(plan)

    def compute(self, ctx: ExecutionContext, inputs) -> XatTable:
        # Linear: one constructed node per input tuple, in every mode.
        construct = self.construct
        return XatTable(self.schema, [construct(tup, ctx)
                                      for tup in inputs[0].tuples])

    def construct(self, tup: XatTuple, ctx: ExecutionContext) -> XatTuple:
        """``tup`` extended with the node this Tagger constructs for it.

        The plan-fixed parts (lineage terminals, order columns, the
        attribute and content plans) were resolved in
        :meth:`_precompute`; only the tuple's own cells are read here.
        """
        body = resolve_lineage(self._lineage, tup)
        if self._has_ids and not body:
            # Null-padded (outer-join) tuple: the nested RETURN has
            # no binding here, so no node is constructed.
            return tup.extended(self.out, None)
        node_id = constructed_id(body)
        cells = tup.cells
        order_cols = self._order_cols
        override = (override_from_tokens(resolve_order(order_cols, tup))
                    if order_cols else None)
        attributes = {} if self._attributes else EMPTY_ATTRIBUTES
        for name, literal, column in self._attributes:
            if column is None:
                attributes[name] = literal
            else:
                item = single_item(cells.get(column))
                attributes[name] = (item_value(item, ctx)
                                    if item is not None else "")
        content: list[Item] = []
        append = content.append
        delta = ctx.mode == DELTA
        for column, cid, literal in self._content:
            if column is None:
                append(literal)
                continue
            cell = cells.get(column)
            if cell is None:
                continue
            # A single-item cell is part of this node, once per instance
            # of it: under Δ it is count-neutral — the node's own count
            # carries the change, and a node entering the extent whole
            # counts its content 1.  Collection members keep their own
            # signed counts.
            single = isinstance(cell, Item)
            for item in (cell,) if single else cell:
                count = 0 if single and delta else item.count
                if cid is not None:
                    item = _prefixed(item, cid)
                if isinstance(item, AtomicItem):
                    # ordered by its overriding order, else by its text
                    source = item.source_key
                    if source is not None and source.override is None:
                        source = None
                    item = AtomicItem(item.value, source, count,
                                      item.refresh, None, item.agg)
                elif count != item.count:
                    item = NodeItem(item.key, count, item.refresh,
                                    item.skeleton, item.text_override)
                append(item)
        # The item's count is *relative* to its tuple (1): the absolute
        # derivation count (tuple count x relative) is applied where the
        # item is consumed — by Combine / Group By (assignOverRidOrd) or
        # by an enclosing Tagger.  This keeps join/distinct
        # multiplicities from being applied twice.  A count-0 Δ tuple
        # derives no node: 0 at any consumer, the forest's root included.
        item = NodeItem(node_id if override is None
                        else node_id.with_override(override),
                        1 if tup.count else 0, tup.refresh,
                        Skeleton(self.pattern.tag, attributes, content))
        return tup.extended(self.out, item)

    def signature_core(self) -> tuple:
        return (self.symbol, str(self.pattern), self.out)


class XmlUnion(XatOperator):
    """``x-union_{col1,col2} -> col``: per-tuple sequence concatenation."""

    symbol = "U"

    def __init__(self, child: XatOperator, col1: str, col2: str, out: str):
        super().__init__([child])
        self.col1 = col1
        self.col2 = col2
        self.out = out

    def _build_schema(self) -> TableSchema:
        base = self.inputs[0].schema
        columns = base.columns + (self.out,)
        context = dict(base.context)
        spec1, spec2 = base.spec(self.col1), base.spec(self.col2)
        # Category VII of Table 4.1.
        lineage = ((self.col1, "a"), (self.col2, "b"))
        if spec1.order == () and spec2.order == ():
            order: Optional[tuple[str, ...]] = ()
        else:
            merged: list[str] = []
            for spec in (spec1, spec2):
                for c in (spec.order or ()):
                    if c not in merged:
                        merged.append(c)
            order = tuple(merged)
        context[self.out] = ContextSpec(order=order, lineage=lineage)
        return TableSchema(columns, base.order_schema, context)

    def compute(self, ctx: ExecutionContext, inputs) -> XatTable:
        table = XatTable(self.schema)
        for tup in inputs[0]:
            items: list[Item] = []
            for cid, col in (("a", self.col1), ("b", self.col2)):
                for item in items_of(tup[col]):
                    items.append(_prefixed(item, cid))
            table.append(tup.extended(self.out, items))
        return table

    def signature_core(self) -> tuple:
        return (self.symbol, self.col1, self.col2, self.out)


def _prefixed(item: Item, cid: str) -> Item:
    """``assignColIdPrfx`` (Fig 4.5): order prefix reflecting union side."""
    token = item.order_token()
    override = FlexKey(cid + "." + token if token else cid)
    if isinstance(item, NodeItem):
        return NodeItem(item.key.with_override(override), item.count,
                        item.refresh, item.skeleton)
    assert isinstance(item, AtomicItem)
    source = (item.source_key or FlexKey("z")).with_override(override)
    return AtomicItem(item.value, source, item.count, item.refresh,
                      item.order_value, item.agg)


class XmlUnique(XatOperator):
    """``upsilon_col -> col'``: drop duplicate members by node identity."""

    symbol = "u"

    def __init__(self, child: XatOperator, col: str, out: str):
        super().__init__([child])
        self.col = col
        self.out = out

    def _build_schema(self) -> TableSchema:
        base = self.inputs[0].schema
        columns = base.columns + (self.out,)
        context = dict(base.context)
        spec = base.spec(self.col)
        context[self.out] = ContextSpec(order=spec.order,
                                        lineage=((self.col, None),))
        return TableSchema(columns, base.order_schema, context)

    def compute(self, ctx: ExecutionContext, inputs) -> XatTable:
        table = XatTable(self.schema)
        for tup in inputs[0]:
            seen: set = set()
            unique: list[Item] = []
            for item in items_of(tup[self.col]):
                marker = (item.key.value if isinstance(item, NodeItem)
                          else ("v", item.value))
                if marker in seen:
                    continue
                seen.add(marker)
                # XML collection operators strip overriding orders: their
                # output is in document order (Section 3.3.2).
                if isinstance(item, NodeItem):
                    unique.append(NodeItem(item.key.without_override(),
                                           item.count, item.refresh,
                                           item.skeleton))
                else:
                    unique.append(item)
            table.append(tup.extended(self.out, unique))
        return table

    def signature_core(self) -> tuple:
        return (self.symbol, self.col, self.out)


class Merge(XatOperator):
    """``M(T1, T2)``: vertical concatenation of two single-tuple tables.

    Linear for maintenance: a delta on either side merges with *empty*
    cells for the other side (the other side's content is unchanged).
    """

    symbol = "M"

    def _build_schema(self) -> TableSchema:
        left, right = self.inputs[0].schema, self.inputs[1].schema
        overlap = set(left.columns) & set(right.columns)
        if overlap:
            raise PlanError(f"merge inputs share columns {sorted(overlap)}")
        context = dict(left.context)
        context.update(right.context)
        return TableSchema(left.columns + right.columns, (), context)

    def __init__(self, left: XatOperator, right: XatOperator):
        super().__init__([left, right])

    def compute(self, ctx: ExecutionContext, inputs) -> XatTable:
        left, right = inputs
        table = XatTable(self.schema)
        lt = left.tuples[0] if left.tuples else XatTuple()
        rt = right.tuples[0] if right.tuples else XatTuple()
        if not left.tuples and not right.tuples:
            return table
        table.append(lt.merged(rt))
        return table

    def signature_core(self) -> tuple:
        return (self.symbol,)


class VariableBinding(XatOperator):
    """Leaf reading the current Map correlation binding (one tuple)."""

    def __init__(self, columns: Sequence[str]):
        super().__init__()
        self.columns = tuple(columns)

    def _build_schema(self) -> TableSchema:
        return TableSchema(self.columns, (),
                           {c: ContextSpec(order=(), lineage=())
                            for c in self.columns})

    def compute(self, ctx: ExecutionContext, inputs) -> XatTable:
        if not ctx.bindings:
            raise PlanError("VariableBinding evaluated outside a Map")
        bound = ctx.bindings[-1]
        table = XatTable(self.schema)
        table.append(bound.projected(self.columns))
        return table

    def __repr__(self) -> str:
        return f"VariableBinding({', '.join(self.columns)})"


class Map(XatOperator):
    """``Map`` (Section 2.2.2): nested-loop evaluation of a correlated RHS.

    Executable so that every parsed query runs even before decorrelation;
    maintenance requires decorrelated plans (PlanError otherwise).
    """

    symbol = "Map"

    def __init__(self, left: XatOperator, right: XatOperator):
        super().__init__([left, right])

    def _build_schema(self) -> TableSchema:
        left, right = self.inputs[0].schema, self.inputs[1].schema
        columns = left.columns + tuple(c for c in right.columns
                                       if c not in left.columns)
        context = dict(right.context)
        context.update(left.context)
        return TableSchema(columns, left.order_schema, context)

    def scheduled_inputs(self):
        # The RHS is correlated: it evaluates per binding inside
        # compute and must never be scheduled (or memoized) standalone.
        return self.inputs[:1]

    def compute(self, ctx: ExecutionContext, inputs) -> XatTable:
        if ctx.mode == DELTA:
            raise PlanError(
                "Map cannot be maintained incrementally; decorrelate first")
        table = XatTable(self.schema)
        for tup in inputs[0]:
            ctx.bindings.append(tup)
            try:
                inner = self.inputs[1].execute(ctx)
            finally:
                ctx.bindings.pop()
            for rt in inner:
                table.append(tup.merged(rt))
        return table


class Expose(XatOperator):
    """``epsilon_col``: marks the result column (root of every plan)."""

    symbol = "eps"

    def __init__(self, child: XatOperator, col: str):
        super().__init__([child])
        self.col = col

    def _build_schema(self) -> TableSchema:
        return self.inputs[0].schema

    def compute(self, ctx: ExecutionContext, inputs) -> XatTable:
        return inputs[0]

    def signature_core(self) -> tuple:
        return (self.symbol, self.col)
