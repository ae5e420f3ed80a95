"""Incremental Maintenance Plans (IMPs) as first-class objects (Chapter 7).

The paper's Propagate phase derives, from the view's algebra plan, an
*incremental maintenance plan in the same algebraic language*, executable
by the ordinary query engine.  In this implementation the IMP is the view
plan itself re-interpreted under a :class:`~repro.xat.DeltaSpec` — the
delta-mode execution rules attached to each operator realize the paper's
propagation equations:

=====================  ====================================================
operator               propagation rule (Z-semantics)
=====================  ====================================================
Navigate (unnest)      Δφ(T) = φ(ΔT) — navigation seeks the update roots;
                       the update sign multiplies in at the root crossing
Navigate (collection)  content change ⇒ tuple marked ``refresh``
Select                 Δσ(T) = σ(ΔT)
Join                   Δ(A ⋈ B) = ΔA ⋈ B_new  ∪  A_old ⋈ ΔB
Left Outer Join        as Join, plus retraction/restoration of null-padded
                       tuples whose dangling status flips (Section 7.4)
Distinct               Δδ(T) = (v, ±1) for each value v whose support —
                       ΔT netted onto the input's persistent state —
                       crosses zero; nothing otherwise
Group By               Δγ(T) = γ_Z(ΔT) per touched group
Combine / Tagger /     linear: evaluated over the delta tuples; semantic
XML Union              ids make the fragments fusable (Chapter 4)
Merge                  linear per side (the other side's delta is empty)
Aggregate              per-member contribution deltas (Section 7.6)
=====================  ====================================================

:class:`IncrementalMaintenancePlan` packages a view plan + batch update
tree and produces the delta update trees the Apply phase consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..apply import ExtentNode
from ..engine import Engine
from ..storage import StorageManager
from ..xat import DELTA, DeltaSpec, Profiler, XatOperator
from ..xat.relational import _BinaryJoinBase


@dataclass
class IncrementalMaintenancePlan:
    """One derived IMP: the view plan under a specific batch update tree."""

    plan: XatOperator
    delta: DeltaSpec

    def execute(self, storage: StorageManager,
                profiler: Optional[Profiler] = None, *,
                engine: Optional[Engine] = None,
                store=None) -> list[ExtentNode]:
        """Run the IMP; returns the delta update trees (Chapter 7 output).

        Callers holding a long-lived :class:`Engine` (and an
        operator-state ``store``) pass them in so successive IMPs reuse
        persistent per-operator state instead of paying a cold start —
        a throwaway engine is only built for one-shot use.
        """
        if engine is None:
            engine = Engine(storage)
        return engine.result_forest(self.plan, mode=DELTA, delta=self.delta,
                                    profiler=profiler, store=store)

    def describe(self) -> str:
        """The IMP in algebraic form, with delta annotations per operator.

        Operators whose subtree touches the updated document are marked
        ``Δ``; binary operators over two touched sides show the two-term
        expansion they will evaluate.
        """
        doc = self.delta.document
        lines = [f"IMP for batch on {doc!r} "
                 f"({self.delta.phase}, {len(self.delta.roots)} roots):"]

        def visit(op: XatOperator, depth: int) -> None:
            touched = doc in op.source_documents()
            marker = "Δ " if touched else "  "
            note = ""
            if isinstance(op, _BinaryJoinBase):
                left = doc in op.inputs[0].source_documents()
                right = doc in op.inputs[1].source_documents()
                if left and right:
                    note = "   [ΔA ⋈ B_new  ∪  A_old ⋈ ΔB]"
                elif left:
                    note = "   [ΔA ⋈ B]"
                elif right:
                    note = "   [A ⋈ ΔB]"
            lines.append("  " * depth + marker + op.describe() + note)
            for child in op.inputs:
                visit(child, depth + 1)

        visit(self.plan, 0)
        return "\n".join(lines)


def derive_imp(plan: XatOperator, delta: DeltaSpec
               ) -> IncrementalMaintenancePlan:
    """Derive the incremental maintenance plan for one batch update tree.

    The batch must be homogeneous (one document, one update kind) — the
    Validate phase's :func:`repro.updates.batch_update_trees` produces
    exactly such batches.
    """
    if plan.schema is None:
        plan.prepare()
    if delta.document not in plan.source_documents():
        raise ValueError(
            f"document {delta.document!r} does not feed this view")
    return IncrementalMaintenancePlan(plan, delta)
