"""Semantic identifier generation (Chapter 4, Definition 4.3.1, Table 4.2).

A semantic id of a constructed node is ``<lineage body>c`` where the body is
the ``..``-joined lineage tokens resolved from the Context Schema of the
constructor's input column(s); exposed base nodes keep their FlexKey.  The
optional order prefix (overriding order) is resolved from the Order part of
the Context Schema.  Both resolutions touch only values already present in
the tuple — no node-level de-referencing (Section 4.3.1).
"""

from __future__ import annotations

from typing import Optional

from ..flexkeys import COMPOSE_SEP, FlexKey
from .table import AtomicItem, Item, NodeItem, TableSchema, XatTuple, \
    single_item

#: Suffix marking constructed-node identifiers.
CONSTRUCTED_SUFFIX = "c"
#: The Combine "all" lineage token.
ALL_TOKEN = "*"


def lineage_token_of_item(item) -> str:
    """Lineage token of one item (constructed nodes contribute their body)."""
    if isinstance(item, NodeItem):
        value = item.key.value
        if item.is_constructed and value.endswith(CONSTRUCTED_SUFFIX):
            return value[:-len(CONSTRUCTED_SUFFIX)]
        return value
    if isinstance(item, AtomicItem):
        return item.value
    raise TypeError(f"unexpected item {item!r}")


def lineage_terminals(schema: TableSchema, col: str
                      ) -> list[Optional[str]]:
    """The Lineage Context of ``col`` flattened to its terminals.

    The Context Schema is fixed once a plan is prepared, so the
    recursive column-reference resolution of Def 4.2.1 always ends in
    the same ordered sequence of self-lineage columns (by name) and
    Combine "all" lineages (``None``); an operator flattens it once and
    resolves it per tuple with :func:`resolve_lineage`.
    """
    spec = schema.spec(col)
    if spec.is_all_lineage:
        return [None]
    if spec.is_self_lineage:
        return [col]
    return [terminal for ref_col, _cid in spec.lineage
            for terminal in lineage_terminals(schema, ref_col)]


def resolve_lineage(terminals, tup: XatTuple) -> list[str]:
    """The lineage tokens of one tuple under flattened ``terminals``."""
    tokens: list[str] = []
    for col in terminals:
        if col is None:
            tokens.append(ALL_TOKEN)
            continue
        cell = tup.cells.get(col)
        if isinstance(cell, Item):
            tokens.append(lineage_token_of_item(cell))
        elif cell:
            tokens.extend(lineage_token_of_item(item) for item in cell)
    return tokens


def lineage_tokens(schema: TableSchema, tup: XatTuple, col: str
                   ) -> list[str]:
    """Resolve the Lineage Context of ``col`` for one tuple (Def 4.2.1)."""
    return resolve_lineage(lineage_terminals(schema, col), tup)


def order_tokens(schema: TableSchema, tup: XatTuple, col: str
                 ) -> Optional[list[str]]:
    """Resolve the Order Context of ``col`` for one tuple.

    Returns None when no order is defined (the paper's ``~`` prefix), an
    empty list when order equals lineage (no explicit prefix needed), and
    the token list otherwise.
    """
    spec = schema.spec(col)
    if spec.order is None:
        return None
    return resolve_order(spec.order, tup)


def resolve_order(order_cols, tup: XatTuple) -> list[str]:
    """The order tokens of one tuple under a resolved Order Context
    (its column names; an operator looks them up once per plan)."""
    tokens = []
    for order_col in order_cols:
        item = single_item(tup.cells.get(order_col))
        tokens.append(item.order_token() if item is not None else "")
    return tokens


def constructed_id(body_tokens: list[str]) -> FlexKey:
    """Semantic id FlexKey for a constructed node from lineage tokens."""
    body = COMPOSE_SEP.join(body_tokens) if body_tokens else ALL_TOKEN
    return FlexKey(body + CONSTRUCTED_SUFFIX)


def override_from_tokens(tokens: Optional[list[str]]) -> Optional[FlexKey]:
    """Overriding-order FlexKey composed from order tokens (None = none)."""
    if not tokens:
        return None
    return FlexKey(COMPOSE_SEP.join(tokens))
