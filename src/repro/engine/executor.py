"""Query engine: executes prepared XAT plans against the storage manager.

The engine produces either a plain query result (an XML string / node tree)
or a materialized :class:`~repro.apply.extent.ExtentNode` tree with
semantic ids and count annotations, ready for incremental maintenance.
No final sort (Section 3.3.3) runs: ``ExtentNode.insert_child`` keeps
every children list in order-token order, and checkpoints keep that order.
"""

from __future__ import annotations

import time
from typing import Optional

from ..apply.deep_union import FusionReport, fuse_forest
from ..apply.extent import ExtentNode, node_from_item, serialize_extent
from ..storage import StorageManager
from ..xat.base import DELTA, FULL, DeltaSpec, ExecutionContext, XatOperator
from ..xat.construction import Expose
from ..xat.table import XatTable, items_of


class Engine:
    """Executes XAT plans; one engine per storage manager."""

    def __init__(self, storage: StorageManager):
        self.storage = storage

    # -- low-level -----------------------------------------------------------------

    def run(self, plan: XatOperator, mode: str = FULL,
            delta: Optional[DeltaSpec] = None, store=None,
            vm=None, memo: Optional[dict] = None) -> XatTable:
        """Execute a prepared plan and return the root operator's table.

        ``store`` (an :class:`~repro.engine.opstate.OperatorStateStore`)
        plugs persistent cross-run operator state into the execution
        context; a delta run needs it, since its Δ rules read the other
        side of every join through the store's ``side``.
        ``vm`` (a :class:`~repro.plan.PlanVM`) runs the operators in
        its linear schedule; without one (the recompute oracle) they
        evaluate recursively through ``ctx.evaluate`` — the same
        operator bodies either way.  ``memo`` replaces the context's
        private run memo (see :meth:`propagate`); without one, a FULL
        run keeps only the tables a later step still reads.
        """
        if plan.schema is None:
            raise RuntimeError("plan not prepared; call plan.prepare()")
        ctx = ExecutionContext(self.storage, mode=mode, delta=delta,
                               store=store)
        if memo is not None:
            ctx.memo, ctx.memo_private = memo, False
        if vm is not None:
            return vm.run(plan, ctx)
        if mode == FULL and memo is None:
            ctx.count_reads(plan)
        return ctx.evaluate(plan)

    # -- result materialization -----------------------------------------------------

    @staticmethod
    def exposed_column(plan: XatOperator) -> str:
        if isinstance(plan, Expose):
            return plan.col
        return plan.schema.columns[-1]

    def result_forest(self, plan: XatOperator, mode: str = FULL,
                      delta: Optional[DeltaSpec] = None, store=None,
                      vm=None, memo: Optional[dict] = None
                      ) -> list[ExtentNode]:
        """Execute and de-reference the exposed column into extent trees
        (their children already in order-token order)."""
        table = self.run(plan, mode=mode, delta=delta, store=store, vm=vm,
                         memo=memo)
        column = self.exposed_column(plan)
        forest: list[ExtentNode] = []
        for tup in table:
            for item in items_of(tup[column]):
                node = node_from_item(item, self.storage, delta)
                if node is not None:
                    forest.append(node)
        return forest

    def propagate(self, plan: XatOperator, spec: DeltaSpec, memo: dict, *,
                  store, report=None, vm=None) -> list[ExtentNode]:
        """The Propagate half of one V-P-A delta pass: execute ``plan`` in
        delta mode for ``spec`` and return the delta forest, which
        :meth:`fuse` applies — at once or, for a queued view, later.

        ``memo`` is the pass's register file, ``{(signature, mode):
        table}``, the one the registry's dispatch keeps beside ``spec``:
        whatever an earlier view's pass under this same spec object
        computed is reused, not re-run, and the delta forest is built
        afresh from the shared root table.  ``report`` is an optional
        maintenance report (any object with ``propagate_seconds``,
        ``apply_seconds`` and ``fusion`` attributes) that receives the
        per-phase timings.
        """
        started = time.perf_counter()
        # Registers already filled: an earlier pass of this dispatch ran
        # (and reconciled) under this spec, and the store has been
        # current for it since.
        follower = bool(memo)
        forest = self.result_forest(plan, mode=DELTA, delta=spec,
                                    store=store, vm=vm, memo=memo)
        if not follower:
            # Patch (or, for deletes, stage) the batch's stale operator
            # state while the update subtrees are still readable — the
            # registry's delete barrier reaches storage only after the
            # passes — reading each Δ from the registers just filled.
            store.reconcile(spec, memo)
        if report is not None:
            report.propagate_seconds += time.perf_counter() - started
        return forest

    @staticmethod
    def fuse(extent: Optional[ExtentNode], forest: list[ExtentNode],
             report=None) -> Optional[ExtentNode]:
        """The Apply half: fuse one delta forest :meth:`propagate` built
        into ``extent`` with the count-aware Deep Union and return the
        extent.  The forest holds copies, so it fuses alike whenever it
        is applied, as long as the forests of one view fuse in order."""
        started = time.perf_counter()
        extent, _fusion = fuse_forest(
            extent, forest, report.fusion if report is not None else None)
        if report is not None:
            report.apply_seconds += time.perf_counter() - started
        return extent

    def materialize(self, plan: XatOperator, vm=None
                    ) -> tuple[ExtentNode, FusionReport]:
        """Initial view materialization: execute and fuse into an extent.

        The returned extent is always the synthetic forest wrapper; views
        with a single top-level constructor have a one-child forest.
        """
        forest = self.result_forest(plan, vm=vm)
        return fuse_forest(None, forest)

    @staticmethod
    def serialize_extent(extent: Optional[ExtentNode]) -> str:
        """Compact XML of an extent — byte-identical to
        ``serialize(extent.to_xml())`` for each root of the forest.

        Written by :func:`repro.apply.extent.serialize_extent`, which
        reuses every element's cached string and rebuilds only the
        elements Deep Union changed since the extent was last written,
        so a read costs O(elements changed), not O(view)."""
        return serialize_extent(extent)

    def query(self, plan: XatOperator) -> str:
        """Plain query execution: serialized XML result."""
        extent, _report = self.materialize(plan)
        return self.serialize_extent(extent)
