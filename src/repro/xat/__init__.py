"""The XAT algebra: tables, operators, order & context schemas (Ch 2-4)."""

from .base import (DELETE, DELTA, FULL, INSERT, MODIFY, DeltaRoot, DeltaSpec,
                   ExecutionContext, PlanError, XatOperator)
from .conditions import And, ColumnRef, Comparison, Literal, conjuncts, \
    item_value
from .construction import (Expose, Merge, Pattern, Tagger, XmlUnion,
                           XmlUnique)
from .grouping import AGG_FUNCTIONS, AggState, Aggregate, Combine, GroupBy
from .navigation import NavigateCollection, NavigateUnnest, Source
from .paths import CHILD, DESCENDANT, Path, PathError, Step
from .relational import (CartesianProduct, Distinct, Join, LeftOuterJoin,
                         OrderBy, Rename, Select)
from .semantic_ids import constructed_id, override_from_tokens
from .table import (AtomicItem, CellValue, ContextSpec, Item, NodeItem,
                    TableSchema, XatTable, XatTuple, items_of, single_item)

__all__ = [
    "AGG_FUNCTIONS", "AggState", "Aggregate", "And", "AtomicItem", "CHILD",
    "CartesianProduct", "CellValue", "ColumnRef", "Combine",
    "Comparison", "ContextSpec", "DELETE", "DELTA", "DESCENDANT", "DeltaRoot",
    "DeltaSpec", "Distinct", "ExecutionContext", "Expose", "FULL", "GroupBy",
    "INSERT", "Item", "Join", "LeftOuterJoin", "Literal", "MODIFY",
    "Merge", "NavigateCollection", "NavigateUnnest", "NodeItem", "OrderBy",
    "Path", "PathError", "Pattern", "PlanError", "Rename",
    "Select", "Source", "Step", "TableSchema", "Tagger",
    "XatOperator", "XatTable", "XatTuple", "XmlUnion", "XmlUnique",
    "conjuncts", "constructed_id", "item_value", "items_of",
    "override_from_tokens", "single_item",
]
