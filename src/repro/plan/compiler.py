"""Lowering XAT trees to linear plans, and the cross-view plan cache.

Lowering is a postorder walk of the ``(operator, mode)`` DAG: every node
gets one register and one instruction; inputs are scheduled before
consumers, so the emitted list executes straight-line.  A Δ plan
schedules no side state: the operator-state store every Δ run carries
serves a join's other side as its stored table ± that side's own Δ
(which the plan already computes), and the recursive ``ctx.evaluate``
resolves a table the store rebuilds on first touch — which keeps the
instruction stream exactly the work the delta pass performs.

Each subtree's source-document set lives on a :class:`PreparedOp`
record keyed by the operator's *structural signature* — the same
signatures :mod:`repro.engine.opstate` shares cached tables under — so
structurally-equal subplans across views compile once and share their
prepared metadata.  The :class:`PlanCache` owns those records plus the
per-root plan memo, and keeps the plain-int counters the obs registry
mirrors (``plan_compile_seconds``, ``plan_cache_hits/misses``).
"""

from __future__ import annotations

import time
from typing import Optional

from ..engine.opstate import subplan_signature
from ..xat.base import DELTA, FULL, XatOperator
from .ir import CompiledPlan, Instruction, opcode_for

__all__ = ["PlanCache", "PreparedOp", "lower"]


class PreparedOp:
    """Compile-time metadata of one operator structure (signature-keyed).

    ``source_documents`` backs the VM's per-instruction empty-Δ
    short-circuit without re-walking the subtree every batch.
    ``first_root`` is the plan root whose lowering created the record:
    an instruction of any *other* root that resolves to it is one that
    root's view can fill for it (``shared-prefix=`` in the listing).
    """

    __slots__ = ("signature", "source_documents", "first_root")

    def __init__(self, signature, source_documents: frozenset, first_root):
        self.signature = signature
        self.source_documents = source_documents
        self.first_root = first_root


class PlanCache:
    """Compiled-plan and prepared-metadata cache shared across views.

    One instance per :class:`~repro.multiview.ViewRegistry` (or per
    standalone pipeline): plans memoize per root operator and mode;
    prepared metadata memoizes per structural signature, so a subplan
    prefix two views share compiles once.  All counters are plain ints
    (mirrored into the metrics registry by a sync hook, never
    incremented through it).
    """

    def __init__(self):
        self._plans: dict[tuple[int, str], CompiledPlan] = {}
        self._prepared: dict[tuple, PreparedOp] = {}
        # -- counters (mirrored by obs sync hooks) --
        self.compiles = 0
        self.compile_seconds = 0.0
        self.hits = 0
        self.misses = 0
        self.instructions_executed = 0
        self.instructions_reused = 0

    # -- prepared metadata -------------------------------------------------------------

    def prepared_for(self, op: XatOperator, root: XatOperator
                     ) -> PreparedOp:
        signature = subplan_signature(op)
        prepared = self._prepared.get(signature)
        if prepared is not None:
            self.hits += 1
            return prepared
        self.misses += 1
        prepared = PreparedOp(signature, op.source_documents(), root)
        self._prepared[signature] = prepared
        return prepared

    # -- plans -------------------------------------------------------------------------

    def plan(self, root: XatOperator, mode: str) -> CompiledPlan:
        key = (id(root), mode)
        cached = self._plans.get(key)
        if cached is not None:
            return cached
        started = time.perf_counter()
        compiled = lower(root, mode, cache=self)
        compiled.compile_seconds = time.perf_counter() - started
        # Hits on this root's own records (its Δ compile meets its FULL
        # compile's) are not sharing.
        compiled.shared_prefix_instructions = sum(
            instr.prepared.first_root is not root
            for instr in compiled.instructions)
        self.compiles += 1
        self.compile_seconds += compiled.compile_seconds
        self._plans[key] = compiled
        return compiled

    def plans_for(self, root: XatOperator) -> list[CompiledPlan]:
        """The compiled plans of one root, FULL before Δ (for EXPLAIN)."""
        return [plan for mode in (FULL, DELTA)
                if (plan := self._plans.get((id(root), mode))) is not None]

    def invalidate(self, root: Optional[XatOperator] = None) -> None:
        """Drop compiled plans (all, or one root's) — prepared metadata
        is structural and stays."""
        if root is None:
            self._plans.clear()
            return
        for mode in (FULL, DELTA):
            self._plans.pop((id(root), mode), None)

    def stats(self) -> dict:
        return {"compiles": self.compiles,
                "compile_seconds": self.compile_seconds,
                "hits": self.hits,
                "misses": self.misses,
                "instructions_executed": self.instructions_executed,
                "instructions_reused": self.instructions_reused}


def lower(root: XatOperator, mode: str,
          cache: Optional[PlanCache] = None) -> CompiledPlan:
    """Lower ``root`` (and its whole tree) for one execution mode.

    Returns a :class:`CompiledPlan` whose instructions are in dependency
    order.  ``cache`` supplies (and is populated with) shared prepared
    metadata; a private cache is used when none is given.
    """
    if root.schema is None:
        raise RuntimeError("plan not prepared; call plan.prepare()")
    owned_cache = cache if cache is not None else PlanCache()
    instructions: list[Instruction] = []
    reg_of: dict[tuple[int, str], int] = {}

    def visit(op: XatOperator, op_mode: str) -> int:
        key = (id(op), op_mode)
        reg = reg_of.get(key)
        if reg is not None:
            return reg
        srcs = tuple(visit(child, op_mode)
                     for child in op.scheduled_inputs())
        reg = len(instructions)
        reg_of[key] = reg
        prepared = owned_cache.prepared_for(op, root)
        instructions.append(Instruction(
            opcode_for(op, op_mode), reg, srcs, op, op_mode, prepared))
        return reg

    root_reg = visit(root, mode)
    compiled = CompiledPlan(instructions, len(instructions), root_reg, mode,
                            subplan_signature(root))
    if mode == FULL:
        compiled.live = _schedule_frees(instructions, root_reg)
    return compiled


def _schedule_frees(instructions: list[Instruction], root: int) -> int:
    """Give each instruction the registers to drop after it runs — those
    whose memo key no later instruction reads or refills (registers of
    one key go together; the root's stays) — and return the most
    registers alive at once under that schedule."""
    last: dict[tuple, int] = {}
    for instr in instructions:
        for reg in (*instr.srcs, instr.dest):
            last[instructions[reg].key] = instr.dest
    del last[instructions[root].key]
    for instr in instructions:
        if instr.key in last:
            instructions[last[instr.key]].frees += (instr.dest,)
    live = peak = 0
    for instr in instructions:
        peak = max(peak, live + 1)
        live += 1 - len(instr.frees)
    return peak
