"""The plan VM: executes a lowered plan over a register file.

Each instruction runs its operator's own
:meth:`~repro.xat.base.XatOperator.compute` on the registers holding its
inputs — the same method the recursive
:meth:`~repro.xat.base.ExecutionContext.evaluate` reaches, so a rule has
one body however it is scheduled.  The register file is backed by the
run's memo: an instruction first looks its ``(signature, mode)`` key up
in the context's ``memo`` and executes only on a miss, and every table
it computes is seeded there — so an evaluation the schedule does not
cover (a join side the operator-state store recomputes or evaluates
live, the Δ it patches an entry from) resolves recursively against the
same tables, and inside one registry dispatch a later view's pass under
the same ``DeltaSpec`` reuses what an earlier one computed.  A FULL run
over a memo of its own drops each table after its last reader.
"""

from __future__ import annotations

from typing import Optional

from ..xat.base import DELTA, ExecutionContext, XatOperator
from ..xat.table import XatTable
from .compiler import PlanCache
from .ir import CompiledPlan

__all__ = ["PlanVM"]


class PlanVM:
    """Executes compiled plans; one per pipeline (cache may be shared)."""

    __slots__ = ("cache",)

    def __init__(self, cache: Optional[PlanCache] = None):
        self.cache = cache if cache is not None else PlanCache()

    def run(self, root: XatOperator, ctx: ExecutionContext) -> XatTable:
        """Compile (or fetch) the plan for ``ctx.mode`` and execute it."""
        return self.execute(self.cache.plan(root, ctx.mode), ctx)

    def execute(self, cplan: CompiledPlan,
                ctx: ExecutionContext) -> XatTable:
        regs: list = [None] * cplan.nregs
        memo = ctx.memo
        drop = ctx.memo_private      # a dispatch's memo keeps all (I1-I4)
        instructions = cplan.instructions
        delta_doc = ctx.delta.document if ctx.delta is not None else None
        executed = reused = 0
        for instr in instructions:
            key = instr.key
            result = memo.get(key)
            if result is not None:
                instr.reused += 1
                reused += 1
            else:
                op = instr.xop
                executed += 1
                instr.executed += 1
                if (instr.mode == DELTA and delta_doc is not None
                        and delta_doc not in instr.prepared.source_documents):
                    # Empty-Δ short-circuit, resolved at compile time: the
                    # batch's document feeds nothing under this subtree.
                    result = XatTable(op.schema)
                    instr.shortcircuits += 1
                    rows_out = 0
                else:
                    srcs = instr.srcs
                    if len(srcs) == 1:
                        table = regs[srcs[0]]
                        result = op.compute(ctx, (table,))
                        instr.rows_in += len(table.tuples)
                    else:
                        inputs = [regs[src] for src in srcs]
                        result = op.compute(ctx, inputs)
                        for table in inputs:
                            instr.rows_in += len(table.tuples)
                    rows_out = len(result.tuples)
                    instr.rows_out += rows_out
                memo[key] = result
                stats = instr.op_stats
                stats[instr.runs_stat] += 1
                stats[instr.out_stat] += rows_out
            regs[instr.dest] = result
            if drop:
                for reg in instr.frees:
                    regs[reg] = None
                    memo.pop(instructions[reg].key, None)
        self.cache.instructions_executed += executed
        self.cache.instructions_reused += reused
        return regs[cplan.root]
