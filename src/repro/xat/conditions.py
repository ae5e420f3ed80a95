"""Predicates for Select and join conditions.

Comparisons follow XPath general-comparison semantics over our cells:
collections compare existentially, values compare numerically when both
sides parse as numbers and as strings otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .table import AtomicItem, Item, NodeItem, XatTuple, items_of


@dataclass(frozen=True)
class ColumnRef:
    column: str

    def __str__(self) -> str:
        return self.column


@dataclass(frozen=True)
class Literal:
    value: str

    def __str__(self) -> str:
        return f'"{self.value}"'


Operand = Union[ColumnRef, Literal]

_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def item_value(item: Item, ctx) -> str:
    """The comparison value of one item (node items take their text).

    A node item carrying a ``text_override`` (the retraction half of a
    first-class modify pair) answers with the pre-update text — a string,
    or the spec that reconstructs it — instead of current storage.  Under
    a delta spec the text is read once per node per pass
    (:meth:`DeltaSpec.node_text`).
    """
    if isinstance(item, AtomicItem):
        return item.value
    if isinstance(item, NodeItem):
        override = item.text_override
        if override is not None:
            if override.__class__ is str:
                return override
            return override.old_text(ctx.storage, item.key)
        if item.is_constructed:
            raise ValueError("cannot compare constructed nodes by value")
        if ctx.delta is not None:
            return ctx.delta.node_text(ctx.storage, item.key)
        return ctx.storage.text(item.key)
    raise TypeError(f"unexpected item {item!r}")


def _coerce(a: str, b: str):
    try:
        return float(a), float(b)
    except (TypeError, ValueError):
        return a, b


@dataclass(frozen=True)
class Comparison:
    """``left op right`` with existential collection semantics."""

    left: Operand
    op: str
    right: Operand

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def _values(self, operand: Operand, tup: XatTuple, ctx) -> list[str]:
        if isinstance(operand, Literal):
            return [operand.value]
        return [item_value(item, ctx)
                for item in items_of(tup[operand.column])]

    def evaluate(self, tup: XatTuple, ctx) -> bool:
        fn = _OPS[self.op]
        lefts = self._values(self.left, tup, ctx)
        rights = self._values(self.right, tup, ctx)
        for lv in lefts:
            for rv in rights:
                a, b = _coerce(lv, rv)
                if type(a) is not type(b):
                    a, b = str(lv), str(rv)
                if fn(a, b):
                    return True
        return False

    def columns(self) -> list[str]:
        cols = []
        for operand in (self.left, self.right):
            if isinstance(operand, ColumnRef):
                cols.append(operand.column)
        return cols

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class And:
    conditions: tuple

    def evaluate(self, tup: XatTuple, ctx) -> bool:
        return all(c.evaluate(tup, ctx) for c in self.conditions)

    def columns(self) -> list[str]:
        cols: list[str] = []
        for cond in self.conditions:
            cols.extend(cond.columns())
        return cols

    def __str__(self) -> str:
        return " and ".join(str(c) for c in self.conditions)


Condition = Union[Comparison, And]


def conjuncts(condition: Optional[Condition]) -> list[Comparison]:
    if condition is None:
        return []
    if isinstance(condition, And):
        result = []
        for c in condition.conditions:
            result.extend(conjuncts(c))
        return result
    return [condition]
