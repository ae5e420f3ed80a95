"""Batching of validated update trees (Section 5.3).

Heterogeneous sequences of updates are grouped into *batch update trees*:
maximal runs over the same document with the same update kind become one
:class:`repro.xat.DeltaSpec` and are propagated in a single pass.  Runs are
not reordered across kind/document boundaries — the paper's batches encode
updates "of possibly different types" that may share prefix paths, and
sequential semantics must be preserved.

:class:`RunBatcher` is the one implementation of this grouping; the view
registry (:mod:`repro.multiview.registry`) feeds it validated trees and
dispatches each closed run, and :func:`spec_for_run` turns a run (or a
view's routed subset of one) into the spec of its propagation pass.
"""

from __future__ import annotations

from typing import Optional

from ..xat.base import MODIFY, DeltaRoot, DeltaSpec
from .primitives import UpdateTree


class RunBatcher:
    """Incrementally groups update trees into maximal same-document,
    same-kind runs.

    ``push`` returns ``(closed_run, accepted)``: ``closed_run`` is the
    previous run when the new tree crossed a document/kind boundary (else
    ``None``), and ``accepted`` is False when the tree is already covered
    by an enclosing root in the current run (nested roots in one batch
    would double-propagate, so only the outermost root is kept).

    Modify runs follow their own root discipline: modify roots replace a
    single element's direct text, so *nested* roots touch disjoint text
    and must all propagate (an ancestor refresh does not carry another
    element's retract/assert pair), while an *equal* root is the same
    text modified twice — the trees coalesce into one pair spanning the
    first old value and the latest new value.
    """

    def __init__(self):
        self._run: list[UpdateTree] = []

    @property
    def pending(self) -> list[UpdateTree]:
        """The trees of the still-open run (a copy)."""
        return list(self._run)

    def crosses(self, document: str, kind: str) -> bool:
        """Whether an update of this document/kind would close the open
        run.  The maintenance drivers check this *before* applying the
        update's storage change: a closed batch must propagate against
        exactly the state its own updates produced, so the boundary
        request's mutation must not leak into storage first.
        """
        return bool(self._run) and (document != self._run[0].document
                                    or kind != self._run[0].kind)

    def push(self, tree: UpdateTree
             ) -> tuple[Optional[list[UpdateTree]], bool]:
        closed = None
        if self._run and (tree.document != self._run[0].document
                          or tree.kind != self._run[0].kind):
            closed = self.close()
        if tree.kind == MODIFY:
            for existing in self._run:
                if existing.root == tree.root:
                    # Same element modified twice in one run: the latest
                    # text wins; a first-class pair keeps its original
                    # old value (net change across the whole run).
                    existing.new_value = tree.new_value
                    if existing.old_value is None:
                        existing.old_value = tree.old_value
                        existing.old_texts = tree.old_texts
                    return closed, False
            self._run.append(tree)
            return closed, True
        if any(t.root == tree.root or t.root.is_ancestor_of(tree.root)
               for t in self._run):
            return closed, False
        self._run = [t for t in self._run
                     if not tree.root.is_ancestor_of(t.root)]
        self._run.append(tree)
        return closed, True

    def close(self) -> Optional[list[UpdateTree]]:
        """End the current run, returning its trees (None when empty)."""
        if not self._run:
            return None
        run, self._run = self._run, []
        return run


def spec_for_run(run: list[UpdateTree], epoch: int = 0) -> DeltaSpec:
    """The :class:`DeltaSpec` propagating one closed run in a single pass
    in dispatch ``epoch``."""
    return DeltaSpec(run[0].document,
                     tuple(DeltaRoot(t.root, t.kind, t.old_value,
                                     t.new_value, t.old_texts)
                           for t in run),
                     run[0].kind, epoch)
