"""The public facade: materialized XQuery views under V-P-A maintenance.

:class:`MaterializedXQueryView` ties the whole system together (Fig 1.5):

* **define** — an XQuery string (or a prepared XAT plan) over documents
  registered in a :class:`~repro.storage.StorageManager`;
* **materialize** — execute once, keeping the extent (with semantic ids,
  order tokens and count annotations);
* **apply_updates** — the V-P-A pipeline: *Validate* each update against
  the view's SAPT (irrelevant updates only touch storage; insufficient
  modifies travel as first-class retract/assert pairs), *Propagate* batch
  update trees through the same plan in delta mode, and *Apply* the
  resulting delta update trees with the count-aware Deep Union.

Updates are processed in order; maximal runs over the same document with
the same kind form one batch update tree (one delta pass).  Inserts and
modifies reach storage before their batch propagates, deletes after — the
phase/count discipline of Chapter 6.

The machinery itself lives in :mod:`repro.multiview.pipeline` and is
shared with :class:`repro.multiview.ViewRegistry`, which maintains many
views over one storage from a single update stream.

This class is a thin engine-level shim kept for plan-in-hand and
single-view work; application code should prefer the key-free session
surface :class:`repro.api.Database` (``create_view`` / path-addressed
``update`` / ``batch`` / ``subscribe``), which funnels every write
through the shared validation router exactly once.
"""

from __future__ import annotations

from typing import Optional, Union

from .apply import ExtentNode
from .engine import Engine
from .multiview.pipeline import (MaintenanceReport, ViewPipeline,
                                 run_maintenance)
from .storage import StorageManager
from .translate import translate_query
from .updates.primitives import UpdateRequest
from .xat import Profiler, XatOperator

__all__ = ["MaintenanceReport", "MaterializedXQueryView"]


class MaterializedXQueryView:
    """A materialized XQuery view maintained incrementally."""

    def __init__(self, storage: StorageManager,
                 query: Union[str, XatOperator],
                 validate_updates: bool = True,
                 operator_state: bool = True):
        self.storage = storage
        self.engine = Engine(storage)
        if isinstance(query, str):
            self.query_text: Optional[str] = query
            plan = translate_query(query)
        else:
            self.query_text = None
            plan = query
        extra = {} if operator_state else {"state_store": None}
        self._pipeline = ViewPipeline(
            self.engine, plan, validate_updates=validate_updates, **extra)

    # -- pipeline state (kept as attributes for API compatibility) -----------------------

    @property
    def plan(self) -> XatOperator:
        return self._pipeline.plan

    @property
    def sapt(self):
        return self._pipeline.sapt

    @property
    def validate_updates(self) -> bool:
        return self._pipeline.validate_updates

    @validate_updates.setter
    def validate_updates(self, value: bool) -> None:
        self._pipeline.validate_updates = value

    @property
    def extent(self) -> Optional[ExtentNode]:
        return self._pipeline.extent

    @extent.setter
    def extent(self, value: Optional[ExtentNode]) -> None:
        self._pipeline.extent = value

    @property
    def _materialized(self) -> bool:
        return self._pipeline.materialized

    @property
    def state_store(self):
        """The pipeline's persistent operator-state store (None when
        disabled via ``operator_state=False``)."""
        return self._pipeline.state_store

    def close(self) -> None:
        """Detach view-owned storage listeners (idempotent).

        A view with operator state owns a mutation listener on its
        storage manager; call this (or use the view as a context
        manager) when discarding a view whose StorageManager outlives
        it, like :meth:`ViewRegistry.close`.
        """
        self._pipeline.close()

    def __enter__(self) -> "MaterializedXQueryView":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- materialization ---------------------------------------------------------------

    def materialize(self, profiler: Optional[Profiler] = None) -> str:
        """Execute the view and keep the extent; returns the XML string."""
        self._pipeline.materialize(profiler=profiler)
        return self.to_xml()

    def to_xml(self) -> str:
        """Serialized current extent (content and order)."""
        return self._pipeline.to_xml()

    def recompute_xml(self) -> str:
        """Full recomputation over current sources (the correctness oracle)."""
        return self._pipeline.recompute_xml()

    def extent_size(self) -> int:
        return self._pipeline.extent_size()

    # -- maintenance (V-P-A) ---------------------------------------------------------------

    def apply_updates(self, updates: list[UpdateRequest],
                      profiler: Optional[Profiler] = None
                      ) -> MaintenanceReport:
        """Validate, propagate and apply a heterogeneous update sequence."""
        return run_maintenance(self._pipeline, updates, profiler=profiler)
