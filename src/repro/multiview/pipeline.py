"""The reusable V-P-A pipeline (Validate / Propagate / Apply).

This module is the single implementation of the maintenance machinery of
Chapters 5-7, extracted from the original single-view facade so that both
:class:`repro.MaterializedXQueryView` (one view) and
:class:`repro.multiview.ViewRegistry` (N views over one storage) run the
same code:

* the **Validate** helpers — relevancy classification against a SAPT,
  storage application of accepted primitives, and the first-class
  treatment of insufficient modifies (Section 5.2.2): the replaced text
  travels as an ``(old, new)`` pair on the update tree and propagates as
  a retraction+assertion;
* the **Propagate/Apply** step — :meth:`ViewPipeline.propagate_run` runs
  one batch update tree through the plan in delta mode and fuses the delta
  forest into the extent with the count-aware Deep Union;
* the sequential driver :func:`run_maintenance` — the exact single-view
  discipline: updates processed in order, maximal same-document same-kind
  runs batched (via :class:`repro.updates.batch.RunBatcher`), inserts and
  modifies applied to storage before their batch propagates, deletes
  after.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from ..apply import ExtentNode, FusionReport
from ..engine import Engine
from ..engine.opstate import OperatorStateStore
from ..plan import PlanCache, PlanVM
from ..updates.batch import RunBatcher, spec_for_run
from ..updates.primitives import UpdateRequest, UpdateTree
from ..updates.sapt import Sapt
from ..storage import StorageManager
from ..xat import DELETE, INSERT, MODIFY, Profiler, XatOperator


@dataclass
class MaintenanceReport:
    """What one maintenance pass did, with timing per V-P-A phase.

    ``state_hits`` / ``state_misses`` / ``state_patches`` expose the
    operator-state store's activity during this view's propagation:
    side tables served from persistent state, side tables that had to be
    (re)computed, and cached tables patched from batch deltas.
    """

    accepted: int = 0
    irrelevant: int = 0
    batches: int = 0
    validate_seconds: float = 0.0
    propagate_seconds: float = 0.0
    apply_seconds: float = 0.0
    recomputed: bool = False
    fusion: FusionReport = field(default_factory=FusionReport)
    state_hits: int = 0
    state_misses: int = 0
    state_patches: int = 0

    @property
    def total_seconds(self) -> float:
        return (self.validate_seconds + self.propagate_seconds
                + self.apply_seconds)

    def as_dict(self) -> dict:
        return {"accepted": self.accepted,
                "irrelevant": self.irrelevant,
                "batches": self.batches,
                "validate_seconds": self.validate_seconds,
                "propagate_seconds": self.propagate_seconds,
                "apply_seconds": self.apply_seconds,
                "total_seconds": self.total_seconds,
                "recomputed": self.recomputed,
                "state_hits": self.state_hits,
                "state_misses": self.state_misses,
                "state_patches": self.state_patches,
                "fusion": self.fusion.as_dict()}

    def merge(self, other: "MaintenanceReport") -> "MaintenanceReport":
        """Fold another pass's activity into this report.

        Counters and phase timings add; ``recomputed`` ors (any pass
        falling back to recomputation taints the merged summary).  Used
        by benchmark summaries and :class:`MultiViewReport` merging to
        aggregate across flushes.
        """
        self.accepted += other.accepted
        self.irrelevant += other.irrelevant
        self.batches += other.batches
        self.validate_seconds += other.validate_seconds
        self.propagate_seconds += other.propagate_seconds
        self.apply_seconds += other.apply_seconds
        self.recomputed = self.recomputed or other.recomputed
        self.state_hits += other.state_hits
        self.state_misses += other.state_misses
        self.state_patches += other.state_patches
        self.fusion.merge(other.fusion)
        return self


# -- Validate phase: storage application helpers ----------------------------------------


def apply_insert(storage: StorageManager, request: UpdateRequest):
    """Apply an insert request to storage, returning the new root's key."""
    if request.position == "into":
        return storage.insert_fragment(request.target, request.fragment)
    parent = storage.parent_key(request.target)
    if parent is None:
        raise ValueError("cannot insert next to a document root")
    if request.position == "after":
        return storage.insert_fragment(parent, request.fragment,
                                       after=request.target)
    return storage.insert_fragment(parent, request.fragment,
                                   before=request.target)


def direct_text(storage: StorageManager, key) -> str:
    """The concatenated *direct* text children of the element at ``key``
    — exactly what the modify primitive replaces (``storage.text`` would
    concatenate the whole subtree)."""
    return "".join(child.value or ""
                   for child in storage.node(key).children
                   if child.is_text)


def validate_one(storage: StorageManager, sapt: Sapt,
                 request: UpdateRequest, report: MaintenanceReport,
                 validate_updates: bool = True):
    """Single-view Validate: classify one request and apply its storage
    change at the right point of the pipeline.

    Returns ``(UpdateTree, deferred delete request | None)`` or ``None``
    (irrelevant — the storage change has been applied, nothing
    propagates).

    An insufficient modify (the value feeds a predicate or sort key)
    becomes a *first-class modify tree* carrying the ``(old, new)`` text
    pair; the Propagate phase turns it into a retraction+assertion that
    re-routes derivations in one pass.
    """
    if request.kind == INSERT:
        key = apply_insert(storage, request)
        if validate_updates and not sapt.is_relevant(
                storage, request.document, key):
            report.irrelevant += 1
            return None
        report.accepted += 1
        return UpdateTree(request.document, key, INSERT), None
    if request.kind == DELETE:
        if validate_updates and not sapt.is_relevant(
                storage, request.document, request.target):
            storage.delete_subtree(request.target)
            report.irrelevant += 1
            return None
        report.accepted += 1
        return (UpdateTree(request.document, request.target, DELETE),
                request)
    # MODIFY
    if validate_updates and not sapt.is_relevant(
            storage, request.document, request.target):
        storage.replace_text(request.target, request.new_value)
        report.irrelevant += 1
        return None
    if validate_updates and sapt.modify_hits_predicate(
            storage, request.document, request.target):
        report.accepted += 1
        old_value = direct_text(storage, request.target)
        storage.replace_text(request.target, request.new_value)
        return UpdateTree(request.document, request.target, MODIFY,
                          old_value=old_value,
                          new_value=request.new_value), None
    report.accepted += 1
    storage.replace_text(request.target, request.new_value)
    return UpdateTree(request.document, request.target, MODIFY), None


# -- the maintainable state of one view ------------------------------------------------


#: sentinel: "create a store of your own" (None means "disabled")
_OWN_STORE = object()


class ViewPipeline:
    """Plan, SAPT and extent of one materialized view, plus its P-A step.

    This is the view-side state the registry manages per registered view
    and the facade wraps for the single-view API.

    ``state_store`` is the persistent operator-state store used by the
    Propagate step: by default the pipeline owns a fresh one; the registry
    passes one *shared* store so structurally-equal subplans across views
    resolve to the same cached tables; ``None`` disables persistent state
    (every run re-derives its side tables, the pre-store behaviour).

    ``tracer`` is an optional :class:`repro.obs.Tracer`; when set (the
    registry wires its own in) the Propagate/Apply phase timings of each
    batch are emitted as child spans of whatever span is current.
    """

    def __init__(self, engine: Engine, plan: XatOperator,
                 sapt: Optional[Sapt] = None, validate_updates: bool = True,
                 state_store=_OWN_STORE, plan_cache=None):
        self.engine = engine
        self.storage = engine.storage
        self.plan = plan if plan.schema is not None else plan.prepare()
        self.sapt = sapt if sapt is not None else Sapt.from_plan(self.plan)
        self.validate_updates = validate_updates
        self.tracer = None
        self.extent: Optional[ExtentNode] = None
        self.materialized = False
        self._closed = False
        # ``plan_cache`` shares lowered subplans across views (the
        # registry passes its own); a standalone pipeline owns one.
        self.vm = PlanVM(plan_cache if plan_cache is not None
                         else PlanCache())
        if state_store is _OWN_STORE:
            self.state_store = OperatorStateStore(self.storage)
            self._owns_store = True
        else:
            self.state_store = state_store
            self._owns_store = False

    def close(self) -> None:
        """Detach pipeline-owned resources from storage (idempotent —
        double-close must never detach another owner's listeners)."""
        if self._closed:
            return
        self._closed = True
        if self._owns_store and self.state_store is not None:
            self.state_store.close()

    def materialize(self, profiler: Optional[Profiler] = None) -> None:
        self.extent, _report = self.engine.materialize(self.plan,
                                                       profiler=profiler,
                                                       vm=self.vm)
        self.materialized = True

    def recompute(self) -> None:
        """Replace the extent by full recomputation over current sources."""
        self.extent, _report = self.engine.materialize(self.plan,
                                                       vm=self.vm)

    def to_xml(self) -> str:
        return Engine.serialize_extent(self.extent)

    def recompute_xml(self) -> str:
        """Full recomputation over current sources (the correctness
        oracle) — does not touch the maintained extent."""
        extent, _report = self.engine.materialize(self.plan)
        return Engine.serialize_extent(extent)

    def extent_size(self) -> int:
        return self.extent.subtree_size() if self.extent is not None else 0

    def propagate_run(self, run: list[UpdateTree],
                      report: MaintenanceReport,
                      profiler: Optional[Profiler] = None,
                      before_fuse=None) -> None:
        """Propagate one closed run (one batch update tree) and fuse the
        delta into the extent."""
        report.batches += 1
        store = self.state_store
        before = store.stats.snapshot() if store is not None else None
        tracer = self.tracer
        tracing = tracer is not None and tracer.active
        if tracing:
            propagate_before = report.propagate_seconds
            apply_before = report.apply_seconds
        self.extent, _fusion = self.engine.propagate(
            self.plan, self.extent, spec_for_run(run), profiler=profiler,
            report=report, before_fuse=before_fuse, store=store,
            vm=self.vm)
        if store is not None:
            hits, misses, patches, _inv = store.stats.snapshot()
            report.state_hits += hits - before[0]
            report.state_misses += misses - before[1]
            report.state_patches += patches - before[2]
        if tracing:
            tracer.record(
                "phase.propagate",
                report.propagate_seconds - propagate_before,
                trees=len(run), kind=run[0].kind)
            tracer.record("phase.apply",
                          report.apply_seconds - apply_before,
                          trees=len(run))


# -- the single-view V-P-A driver ------------------------------------------------------


def run_maintenance(view: ViewPipeline, updates: list[UpdateRequest],
                    profiler: Optional[Profiler] = None
                    ) -> MaintenanceReport:
    """Validate, propagate and apply a heterogeneous update sequence
    against one view — the Fig 1.5 loop."""
    if not view.materialized:
        raise RuntimeError("materialize() the view before updating it")
    storage = view.storage
    report = MaintenanceReport()
    batcher = RunBatcher()
    deferred_deletes: list[UpdateRequest] = []

    def flush(run, deletes):
        if run is None:
            return

        def apply_deletes():
            # Deletes reach storage only after propagation has read the
            # doomed subtrees (the phase/count discipline of Chapter 6).
            for request in deletes:
                storage.delete_subtree(request.target)

        view.propagate_run(run, report, profiler=profiler,
                           before_fuse=apply_deletes)

    for request in updates:
        # A kind/document boundary closes the pending run — flushed
        # before validate_one applies this request's storage change
        # (see RunBatcher.crosses; a leaked mutation would be seen by
        # the closed batch's delta pass *and* by its own batch later,
        # double-applying it).
        if batcher.crosses(request.document, request.kind):
            flush(batcher.close(), deferred_deletes)
            deferred_deletes = []
        started = time.perf_counter()
        outcome = validate_one(storage, view.sapt, request, report,
                               view.validate_updates)
        report.validate_seconds += time.perf_counter() - started
        if outcome is None:
            continue
        tree, deferred = outcome
        closed, accepted = batcher.push(tree)
        assert closed is None  # the boundary flush above closed the run
        if not accepted:
            continue  # already covered by an enclosing root in the run
        if deferred is not None:
            deferred_deletes.append(deferred)
    flush(batcher.close(), deferred_deletes)

    if report.fusion.aggregate_refreshes:
        # min/max eviction: fall back to recomputation (Section 7.6).
        started = time.perf_counter()
        view.recompute()
        report.recomputed = True
        report.apply_seconds += time.perf_counter() - started
    return report
