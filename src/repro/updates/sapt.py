"""Source Access Pattern Trees: relevancy and sufficiency (Section 5.2).

A SAPT is built per source document from the view's plan: every navigation
operator contributes the absolute tag paths the view reads, each marked
with how it is used (``binding`` for unnests, ``value`` for collections,
``predicate`` for paths feeding selection/join conditions).

* An update is **relevant** iff its root's tag path intersects an accessed
  path (is a prefix of one, equals one, or extends one) — irrelevant
  updates are applied to storage but never propagated (Section 5.2.1).
* A modify update is **insufficient** when its target path feeds a
  predicate (join/selection/sort key): replacing such a value can
  re-route tuples, which a content-refresh cannot express.  The
  validator then turns it into a *first-class modify* — the update tree
  carries the ``(old, new)`` text pair and propagates as a paired
  retraction+assertion (Section 5.2.2's "annotate with missing
  information", carried in-flight instead of decomposed into delete +
  reinsert of the enclosing binding fragment).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..flexkeys import FlexKey
from ..storage import StorageManager
from ..xat import NavigateCollection, NavigateUnnest, XatOperator, conjuncts
from ..xat.paths import DESCENDANT

BINDING = "binding"
VALUE = "value"
PREDICATE = "predicate"
EXPOSED = "exposed"

#: Usages whose access paths capture their whole subtree for relevancy.
_SUBTREE_USAGES = (VALUE, PREDICATE, EXPOSED)


@dataclass
class AccessPath:
    """One absolute access path of a document: tag steps plus usage."""

    steps: tuple[str, ...]          # element tags only ("*" for descendant)
    has_descendant: bool
    usages: set[str] = field(default_factory=set)


class Sapt:
    """Source Access Pattern Tree for one view (all documents)."""

    def __init__(self, paths: dict[str, list[AccessPath]]):
        self.paths = paths

    # -- construction ------------------------------------------------------------------

    @classmethod
    def from_plan(cls, plan: XatOperator) -> "Sapt":
        column_paths: dict[int, dict[str, tuple[Optional[str], tuple]]] = {}
        doc_paths: dict[str, list[AccessPath]] = {}
        predicate_cols: set[str] = set()
        from ..xat import OrderBy

        for op in plan.iter_operators():
            condition = getattr(op, "condition", None)
            if condition is not None:
                for comp in conjuncts(condition):
                    predicate_cols.update(comp.columns())
            if isinstance(op, OrderBy):
                # A modified sort value re-positions tuples, which a
                # content refresh cannot express: treat like a predicate.
                predicate_cols.update(op.cols)

        col_origin: dict[str, tuple[Optional[str], tuple[str, ...], bool]] = {}

        def record(document, steps, has_desc, usage):
            if document is None:
                return
            bucket = doc_paths.setdefault(document, [])
            for existing in bucket:
                if existing.steps == steps \
                        and existing.has_descendant == has_desc:
                    existing.usages.add(usage)
                    return
            bucket.append(AccessPath(steps, has_desc, {usage}))

        from ..xat import Source, Tagger

        # Columns whose node *content* reaches the view result: Tagger
        # content columns (Combine preserves column names, so combined
        # results are covered transitively).
        exposed_cols: set[str] = set()
        for op in plan.iter_operators():
            if isinstance(op, Tagger):
                exposed_cols.update(op.pattern.content_columns())

        for op in plan.iter_operators():
            if isinstance(op, Source):
                col_origin[op.out] = (op.document, (), False)
            elif isinstance(op, (NavigateUnnest, NavigateCollection)):
                origin = col_origin.get(op.col)
                if origin is None:
                    continue
                document, steps, has_desc = origin
                new_steps = list(steps)
                element_steps = list(steps)
                for step in op.path.steps:
                    if step.axis == DESCENDANT:
                        has_desc = True
                    new_steps.append(step.test)
                    if not step.is_value:
                        element_steps.append(step.test)
                usage = (BINDING if isinstance(op, NavigateUnnest)
                         else VALUE)
                if op.out in predicate_cols:
                    usage = PREDICATE
                # Value steps (@attr / text()) stay in the recorded path so
                # that reading an attribute does not capture the element's
                # whole subtree for relevancy.
                col_origin[op.out] = (document, tuple(element_steps),
                                      has_desc)
                record(document, tuple(new_steps), has_desc, usage)
                if op.out in exposed_cols and not op.path.ends_in_value:
                    record(document, tuple(new_steps), has_desc, EXPOSED)
        return cls(doc_paths)

    # -- checks -----------------------------------------------------------------------------

    def documents(self) -> list[str]:
        return list(self.paths)

    def is_relevant(self, storage: StorageManager, document: str,
                    target: FlexKey) -> bool:
        """Does an update rooted at ``target`` possibly affect the view?

        Relevant iff the target is at/above an accessed path, or below a
        path whose *subtree* is read (exposed content, read values or
        predicate inputs).  Updates strictly below binding-only paths do
        not reach the view (Section 5.2.1).
        """
        return self.relevant_for_tags(document,
                                      storage.tag_path(target))

    def relevant_for_tags(self, document: str,
                          tags: tuple[str, ...]) -> bool:
        """Relevancy against a precomputed root-to-target tag path.

        Splitting the tag-path walk from the path matching lets the
        multi-view router compute the walk once per update and reuse it
        across every registered view's path set.
        """
        if document not in self.paths:
            return False
        for access in self.paths[document]:
            if access.has_descendant:
                return True  # conservative: // can reach anywhere
            a, t = access.steps, tags
            if len(t) <= len(a) and a[:len(t)] == t:
                return True  # target at or above an accessed node
            if len(t) > len(a) and t[:len(a)] == a \
                    and access.usages & set(_SUBTREE_USAGES):
                return True  # target inside a subtree the view reads
        return False


def modify_hits_steps(steps: tuple[str, ...],
                      tags: tuple[str, ...]) -> bool:
    """Whether a text replace at the element path ``tags`` feeds the
    recorded predicate access path ``steps``.

    The shared router's normalization rule: a path ending in ``text()``
    reads exactly the direct text of its element (strip the value step
    and compare element paths); a path ending in ``@attr`` can never be
    hit (modifies replace text, not attributes); an element-valued path
    compares by subtree text, which the element's own direct text feeds.
    """
    if steps and steps[-1].startswith("@"):
        return False
    if steps and steps[-1] == "text()":
        steps = steps[:-1]
    return steps == tags

