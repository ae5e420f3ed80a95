"""XAT tables: the tabular data model of the XAT algebra (Section 2.2.1).

An XAT table is an order-*insensitive* bag of tuples (the paper's migration
to non-ordered bag semantics, Section 3.4.3): tuple order is recoverable
from the Order Schema columns, never from physical position.

Cells store :class:`Item` values — references to XML nodes (base or
constructed) or atomic values — or sequences thereof.  Items carry

* an optional *overriding order* on their FlexKey (Section 3.3.2),
* a *count* annotation (Chapter 6) used by delete propagation, and
* a *refresh* flag marking content-only re-derivations (modify updates and
  updates inside exposed fragments), which fuse count-neutrally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union

from ..flexkeys import FlexKey, order_of


class Item:
    """Base class for cell contents."""

    __slots__ = ("count", "refresh")

    def __init__(self, count: int = 1, refresh: bool = False):
        self.count = count
        self.refresh = refresh

    def order_token(self) -> str:
        raise NotImplementedError


class NodeItem(Item):
    """A reference to a base or constructed XML node by FlexKey.

    Constructed nodes carry their :class:`Skeleton` directly
    (``skeleton`` is None for base nodes).

    ``text_override`` materializes a *pre-update* text value on the item:
    the retraction half of a first-class modify pair references the same
    stored node (identity — semantic ids, grouping, order — is the key
    and must match the extent), but every value read must see the text
    the old derivation was routed by.  ``None`` (the default) reads
    current storage.  Delta navigation sets it to the pass's
    :class:`~repro.xat.base.DeltaSpec`, whose ``old_text`` reconstructs
    the pre-update text on the first read: most retracted nodes (a
    person above a changed city) are never read by value.
    """

    __slots__ = ("key", "skeleton", "text_override")

    def __init__(self, key: FlexKey, count: int = 1, refresh: bool = False,
                 skeleton=None, text_override=None):
        super().__init__(count, refresh)
        self.key = key
        self.skeleton = skeleton
        self.text_override = text_override

    @property
    def is_constructed(self) -> bool:
        return self.skeleton is not None

    def with_override(self, override: Optional[FlexKey]) -> "NodeItem":
        return NodeItem(self.key.with_override(override), self.count,
                        self.refresh, self.skeleton, self.text_override)

    def order_token(self) -> str:
        return order_of(self.key)

    def __repr__(self) -> str:
        return f"N({self.key!r})"


class Skeleton:
    """A constructed node as its Tagger recorded it (Section 3.3.1): the
    tag, the attribute map (shared: replaced, never written) and the
    content — the items the Tagger read, in order.  Only
    :func:`repro.apply.extent.node_from_item` instantiates it."""

    __slots__ = ("tag", "attributes", "content")

    def __init__(self, tag: str, attributes, content: list):
        self.tag = tag
        self.attributes = attributes
        self.content = content


class AtomicItem(Item):
    """A text/attribute value; ``source_key`` is its provenance for order.

    ``order_value`` (set by Order By) overrides both — it holds the sortable
    form of the sort key so downstream overriding orders follow query order.
    ``agg`` optionally carries incremental aggregate state (Chapter 7.6).
    """

    __slots__ = ("value", "source_key", "order_value", "agg")

    def __init__(self, value: str, source_key: Optional[FlexKey] = None,
                 count: int = 1, refresh: bool = False,
                 order_value: Optional[str] = None, agg=None):
        super().__init__(count, refresh)
        self.value = value
        self.source_key = source_key
        self.order_value = order_value
        self.agg = agg

    def order_token(self) -> str:
        if self.order_value is not None:
            return self.order_value
        if self.source_key is not None:
            return order_of(self.source_key)
        return self.value

    def __repr__(self) -> str:
        return f"A({self.value!r})"


#: What one cell may hold.
CellValue = Union[None, Item, list]


def items_of(cell: CellValue) -> list[Item]:
    """Normalize a cell to a list of items (empty for None)."""
    if cell is None:
        return []
    if isinstance(cell, Item):
        return [cell]
    return list(cell)


def single_item(cell: CellValue) -> Optional[Item]:
    """The single item of a cell, or None (raises if the cell is a list >1)."""
    items = items_of(cell)
    if not items:
        return None
    if len(items) > 1:
        raise ValueError(f"expected singleton cell, got {len(items)} items")
    return items[0]


class XatTuple:
    """One tuple: named cells plus maintenance annotations.

    ``touched`` marks delta-mode tuples pinned to the propagated update
    (some navigation reached a node at/below/above an update root); unnest
    chains drop untouched tuples so an unrelated branch of a self-join
    contributes an empty delta, not its full table.

    ``era`` marks the halves of a first-class modify pair while the delta
    flows through the plan: ``"old"`` is the retraction (reads pre-update
    values, count < 0), ``"new"`` the assertion.  ``None`` everywhere
    else; downstream navigations use it to resolve the matching state of
    cells they add to the tuple.
    """

    __slots__ = ("cells", "count", "refresh", "touched", "era")

    def __init__(self, cells: Optional[dict[str, CellValue]] = None,
                 count: int = 1, refresh: bool = False,
                 touched: bool = False, era: Optional[str] = None):
        self.cells = cells if cells is not None else {}
        self.count = count
        self.refresh = refresh
        self.touched = touched
        self.era = era

    def __getitem__(self, column: str) -> CellValue:
        return self.cells.get(column)

    def __setitem__(self, column: str, value: CellValue) -> None:
        self.cells[column] = value

    def extended(self, column: str, value: CellValue,
                 count: Optional[int] = None,
                 refresh: Optional[bool] = None,
                 touched: Optional[bool] = None,
                 era: Optional[str] = None) -> "XatTuple":
        """A shallow copy with one extra/overwritten cell."""
        cells = dict(self.cells)
        cells[column] = value
        return XatTuple(cells,
                        self.count if count is None else count,
                        self.refresh if refresh is None else refresh,
                        self.touched if touched is None else touched,
                        self.era if era is None else era)

    def merged(self, other: "XatTuple") -> "XatTuple":
        """Concatenation of two tuples (join output); counts multiply."""
        cells = dict(self.cells)
        cells.update(other.cells)
        return XatTuple(cells, self.count * other.count,
                        self.refresh or other.refresh,
                        self.touched or other.touched,
                        self.era or other.era)

    def projected(self, columns: Iterable[str]) -> "XatTuple":
        return XatTuple({c: self.cells.get(c) for c in columns},
                        self.count, self.refresh, self.touched, self.era)

    def __repr__(self) -> str:
        flags = "" if self.count == 1 and not self.refresh else (
            f" count={self.count}{' refresh' if self.refresh else ''}")
        return f"Tuple({self.cells!r}{flags})"


@dataclass
class ContextSpec:
    """Context Schema entry for one column (Definition 4.2.2).

    ``order``:
      * ``None``      — no order defined (the paper's absent prefix / null);
      * ``()``        — order equals the lineage (the paper's ``()``);
      * ``(c1, …)``   — order derived from the named columns.
    ``lineage``:
      * ``()``                    — self lineage (the paper's ``[]``);
      * ``(("*", None),)``        — the Combine "all" lineage;
      * ``((col, col_id), …)``    — derived from columns, ``col_id`` set by
        XML Union to distinguish/ order the unioned inputs.
    """

    order: Optional[tuple[str, ...]] = ()
    lineage: tuple[tuple[str, Optional[str]], ...] = ()

    @property
    def is_self_lineage(self) -> bool:
        return self.lineage == ()

    @property
    def is_all_lineage(self) -> bool:
        return len(self.lineage) == 1 and self.lineage[0][0] == "*"

    def __repr__(self) -> str:
        if self.order is None:
            order_txt = ""
        elif self.order == ():
            order_txt = "()"
        else:
            order_txt = "(" + ",".join(self.order) + ")"
        lng = ",".join(col + (("{" + cid + "}") if cid else "")
                       for col, cid in self.lineage)
        return f"{order_txt}[{lng}]"


@dataclass
class TableSchema:
    """Schema of an XAT table: columns, Order Schema, Context Schema, ECC."""

    columns: tuple[str, ...]
    order_schema: tuple[str, ...] = ()
    context: dict[str, ContextSpec] = field(default_factory=dict)

    def spec(self, column: str) -> ContextSpec:
        spec = self.context.get(column)
        return spec if spec is not None else ContextSpec()

    @property
    def ecc(self) -> tuple[str, ...]:
        """Evaluation Context Columns (Definition 4.2.3): self-lineage cols."""
        return tuple(c for c in self.columns
                     if self.spec(c).is_self_lineage)


class XatTable:
    """A bag of :class:`XatTuple` under a :class:`TableSchema`."""

    __slots__ = ("schema", "tuples")

    def __init__(self, schema: TableSchema,
                 tuples: Optional[list[XatTuple]] = None):
        self.schema = schema
        self.tuples = tuples if tuples is not None else []

    @property
    def columns(self) -> tuple[str, ...]:
        return self.schema.columns

    def append(self, tup: XatTuple) -> None:
        self.tuples.append(tup)

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[XatTuple]:
        return iter(self.tuples)

    def __repr__(self) -> str:
        return f"XatTable(cols={list(self.columns)}, {len(self.tuples)} tuples)"
