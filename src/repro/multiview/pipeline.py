"""The per-view half of the V-P-A loop (Validate / Propagate / Apply).

:class:`~repro.multiview.registry.ViewRegistry` is the one driver of the
Fig 1.5 loop; this module holds what it runs per view and per request:

* the **Validate** storage helper :func:`apply_insert`;
* the **Propagate/Apply** step — :meth:`ViewPipeline.propagate_run` runs
  one batch update tree through the plan in delta mode and fuses the
  delta forest into the extent with the count-aware Deep Union;
* :class:`MaintenanceReport`, the cumulative per-view record of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..apply import ExtentNode, FusionReport
from ..apply.extent import WRITER_TALLY
from ..engine import Engine
from ..engine.opstate import OperatorStateStore
from ..plan import PlanCache, PlanVM
from ..updates.primitives import UpdateRequest
from ..updates.sapt import Sapt
from ..storage import StorageManager
from ..xat import DeltaSpec, XatOperator
from ..xat.base import FULL


@dataclass
class MaintenanceReport:
    """What maintenance did to one view, with timing per P-A phase (the
    shared Validate time is on :class:`MultiViewReport`).

    ``state_hits`` / ``state_misses`` / ``state_patches`` expose the
    operator-state store's activity during this view's propagation:
    side tables served from persistent state, side tables that had to be
    (re)computed, and cached tables patched from batch deltas.
    """

    batches: int = 0
    propagate_seconds: float = 0.0
    apply_seconds: float = 0.0
    recomputed: bool = False
    fusion: FusionReport = field(default_factory=FusionReport)
    state_hits: int = 0
    state_misses: int = 0
    state_patches: int = 0


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


# -- the maintainable state of one view ------------------------------------------------


class ViewPipeline:
    """Plan, SAPT and extent of one materialized view, plus its P-A step
    — the view-side state the registry keeps per registered view.

    ``state_store`` and ``plan_cache`` are the registry's: one shared
    :class:`~repro.engine.opstate.OperatorStateStore` and one shared
    :class:`~repro.plan.PlanCache`, so structurally-equal subplans across
    views resolve to the same cached tables and compile once.

    ``tracer`` is an optional :class:`repro.obs.Tracer`; when set (the
    registry wires its own in) the Propagate/Apply phase timings of each
    batch are emitted as child spans of whatever span is current.
    """

    def __init__(self, engine: Engine, plan: XatOperator,
                 state_store: OperatorStateStore, plan_cache: PlanCache):
        self.engine = engine
        self.plan = plan if plan.schema is not None else plan.prepare()
        self.sapt = Sapt.from_plan(self.plan)
        self.tracer = None
        self.extent: Optional[ExtentNode] = None
        self.materialized = False
        #: extent elements rebuilt by reads (a read takes every other
        #: element from its cached XML)
        self.serialized_elements = 0
        self.vm = PlanVM(plan_cache)
        self.state_store = state_store

    def materialize(self) -> int:
        """(Re)build the extent by full computation over current sources;
        returns the rows the FULL plan's instructions read doing it (the
        counters accumulate on the instructions, so their change)."""
        compiled = self.vm.cache.plan(self.plan, FULL)
        before = sum(instr.rows_in for instr in compiled.instructions)
        self.extent, _report = self.engine.materialize(self.plan,
                                                       vm=self.vm)
        self.materialized = True
        return sum(instr.rows_in for instr in compiled.instructions) - before

    def to_xml(self) -> str:
        before = WRITER_TALLY.built
        xml = Engine.serialize_extent(self.extent)
        self.serialized_elements += WRITER_TALLY.built - before
        return xml

    def recompute_xml(self) -> str:
        """Full recomputation over current sources (the correctness
        oracle) — does not touch the maintained extent."""
        extent, _report = self.engine.materialize(self.plan)
        return Engine.serialize_extent(extent)

    def extent_size(self) -> int:
        return self.extent.subtree_size() if self.extent is not None else 0

    def propagate_run(self, spec: DeltaSpec, memo: dict,
                      report: MaintenanceReport) -> None:
        """Propagate one closed run (one batch update tree, as the
        registry's ``spec`` for this view's routed subset of it) and
        fuse the delta into the extent.  ``memo`` is the register file
        the registry keeps beside ``spec``: shared with every other
        view's pass under the same spec object, else empty."""
        report.batches += 1
        store = self.state_store
        before = store.stats.snapshot()
        tracer = self.tracer
        tracing = tracer is not None and tracer.active
        if tracing:
            propagate_before = report.propagate_seconds
            apply_before = report.apply_seconds
        self.extent, _fusion = self.engine.propagate(
            self.plan, self.extent, spec, memo, report=report,
            store=store, vm=self.vm)
        hits, misses, patches, _inv = store.stats.snapshot()
        report.state_hits += hits - before[0]
        report.state_misses += misses - before[1]
        report.state_patches += patches - before[2]
        if tracing:
            tracer.record(
                "phase.propagate",
                report.propagate_seconds - propagate_before,
                trees=len(spec.roots), kind=spec.phase)
            tracer.record("phase.apply",
                          report.apply_seconds - apply_before,
                          trees=len(spec.roots))
