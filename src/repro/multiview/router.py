"""Shared validation routing — the multi-view Validate phase.

With N views over shared documents, running each view's SAPT relevancy
check independently repeats the expensive steps — walking the update
target's root-to-node tag path and prefix-matching it against access
paths — once per view.  :class:`SharedValidationRouter` merges every
subscribed view's access paths into one *interned* index: identical
``(steps, has_descendant)`` paths across views collapse into a single
entry that remembers which views subscribe and with which usage strength
(any usage ⇒ relevant at/above the path; subtree usages ⇒ relevant below
it; predicate usage ⇒ modifies decompose).  Each update is then classified
**exactly once** — one tag-path walk plus one scan of the merged index —
and yields the set of affected views.  Updates relevant to no view are
reported as such so the caller can apply them to storage once and move on.

The per-view decision is provably identical to calling
:meth:`repro.updates.sapt.Sapt.is_relevant` view by view (the index is a
re-grouping of the same path sets); ``benchmarks/bench_multiview.py``
checks that equivalence and measures the saving.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..flexkeys import FlexKey
from ..storage import StorageManager
from ..updates.sapt import (PREDICATE, _SUBTREE_USAGES, Sapt,
                            modify_hits_steps)


@dataclass
class RouterStats:
    """Counters proving each update is classified exactly once."""

    classifications: int = 0
    routed: int = 0                   # updates relevant to >= 1 view
    irrelevant_everywhere: int = 0
    predicate_checks: int = 0         # modifies probed for insufficiency
    predicate_modifies: int = 0       # modifies some view saw as
                                      # insufficient (retract/assert pair)

    def as_dict(self) -> dict:
        return {"classifications": self.classifications,
                "routed": self.routed,
                "irrelevant_everywhere": self.irrelevant_everywhere,
                "predicate_checks": self.predicate_checks,
                "predicate_modifies": self.predicate_modifies}


@dataclass
class RouteResult:
    """Outcome of classifying one update target."""

    views: frozenset                  # names of affected views
    tags: tuple[str, ...]             # the (single) tag-path walk, reusable


@dataclass
class _PathEntry:
    """One interned access path with its subscribers by usage strength."""

    steps: tuple[str, ...]
    any_views: set = field(default_factory=set)
    subtree_views: set = field(default_factory=set)
    predicate_views: set = field(default_factory=set)


class SharedValidationRouter:
    """Classifies updates once against the merged path index of N views."""

    def __init__(self):
        self._sapts: dict[str, Sapt] = {}
        self.stats = RouterStats()
        # document -> interned entries / wildcard subscriber sets
        self._index: dict[str, list[_PathEntry]] = {}
        self._wildcard: dict[str, set] = {}
        self._predicate_wildcard: dict[str, set] = {}

    # -- subscription ------------------------------------------------------------------

    def subscribe(self, name: str, sapt: Sapt) -> None:
        self._sapts[name] = sapt
        self._rebuild()

    def unsubscribe(self, name: str) -> None:
        del self._sapts[name]
        self._rebuild()

    def subscribers(self) -> list[str]:
        return list(self._sapts)

    def _rebuild(self) -> None:
        index: dict[str, dict[tuple, _PathEntry]] = {}
        wildcard: dict[str, set] = {}
        predicate_wildcard: dict[str, set] = {}
        subtree_usages = set(_SUBTREE_USAGES)
        for name, sapt in self._sapts.items():
            for document, accesses in sapt.paths.items():
                for access in accesses:
                    if access.has_descendant:
                        # A // path makes every target in the document
                        # relevant to this view (Sapt.is_relevant's
                        # conservative rule) — no entry matching needed.
                        wildcard.setdefault(document, set()).add(name)
                        if PREDICATE in access.usages:
                            predicate_wildcard.setdefault(
                                document, set()).add(name)
                        continue
                    bucket = index.setdefault(document, {})
                    entry = bucket.get(access.steps)
                    if entry is None:
                        entry = bucket[access.steps] = _PathEntry(
                            access.steps)
                    entry.any_views.add(name)
                    if access.usages & subtree_usages:
                        entry.subtree_views.add(name)
                    if PREDICATE in access.usages:
                        entry.predicate_views.add(name)
        self._index = {doc: list(bucket.values())
                       for doc, bucket in index.items()}
        self._wildcard = wildcard
        self._predicate_wildcard = predicate_wildcard

    # -- classification ----------------------------------------------------------------

    def route(self, storage: StorageManager, document: str,
              target: FlexKey) -> RouteResult:
        """Classify one update target: one tag-path lookup (served from
        the storage manager's structural-index cache — no ancestor walk
        for live keys), one scan of the merged index, all views."""
        self.stats.classifications += 1
        tags = storage.tag_path(target)
        views = set(self._wildcard.get(document, ()))
        for entry in self._index.get(document, ()):
            a, t = entry.steps, tags
            if len(t) <= len(a) and a[:len(t)] == t:
                views |= entry.any_views      # target at/above the path
            elif t[:len(a)] == a:
                views |= entry.subtree_views  # target inside a read subtree
        if views:
            self.stats.routed += 1
        else:
            self.stats.irrelevant_everywhere += 1
        return RouteResult(frozenset(views), tags)

    def predicate_hitters(self, document: str, tags: tuple[str, ...],
                          candidates: frozenset) -> set:
        """Which of ``candidates`` see a modify at ``tags`` as
        insufficient (feeding a predicate or sort key) — those views
        need the first-class retract/assert pair.  Path matching is
        :func:`repro.updates.sapt.modify_hits_steps`.
        """
        self.stats.predicate_checks += 1
        hitters = set(self._predicate_wildcard.get(document, ())
                      ) & candidates
        for entry in self._index.get(document, ()):
            if entry.predicate_views and modify_hits_steps(entry.steps,
                                                           tags):
                hitters |= entry.predicate_views & candidates
        if hitters:
            self.stats.predicate_modifies += 1
        return hitters
