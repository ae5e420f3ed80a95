"""The plan IR: XAT algebra trees lowered to a linear schedule.

The operators of :mod:`repro.xat` own every rule (one ``compute`` body
per operator, Δ included); this package only decides *when* each runs:

* :mod:`repro.plan.ir` — opcodes, instructions, the register model and
  the compiled-plan container (with per-instruction counters for the
  live ``EXPLAIN`` listing);
* :mod:`repro.plan.compiler` — lowering an operator DAG to dependency
  order, common-subplan sharing across views via structural signatures,
  and the :class:`PlanCache` (compile timings + hit/miss counters that
  feed the obs registry);
* :mod:`repro.plan.vm` — the :class:`PlanVM` running a lowered plan over
  an :class:`~repro.xat.base.ExecutionContext`, seeding the context's
  memo as it goes so anything the schedule does not cover resolves
  through recursive ``ctx.evaluate`` against the same tables.
"""

from .compiler import PlanCache, lower
from .ir import CompiledPlan, Instruction, opcode_for
from .vm import PlanVM

__all__ = [
    "CompiledPlan",
    "Instruction",
    "PlanCache",
    "PlanVM",
    "lower",
    "opcode_for",
]
