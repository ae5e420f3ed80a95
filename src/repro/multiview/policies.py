"""Per-view maintenance policies.

Every routed view propagates its subset of a run in that run's dispatch,
against the state the run produced, and queues the Δ forest.  A policy
chooses *when* the queued forests are fused into the extent (the Apply
phase), and so when its refresh events fire:

* ``immediate`` — at every batch boundary of the shared update stream;
* ``deferred`` — on the next read (:meth:`ViewRegistry.query`), an
  explicit :meth:`ViewRegistry.flush` or the checkpoint quiesce, one
  coalesced refresh for every batch queued since;
* ``threshold(K)`` — as soon as ``K`` or more update trees are queued.

A delete run forces no flush: its subtrees leave storage once every
relevant view has *propagated* them, and a queued forest holds copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

IMMEDIATE_KIND = "immediate"
DEFERRED_KIND = "deferred"
THRESHOLD_KIND = "threshold"

_KINDS = (IMMEDIATE_KIND, DEFERRED_KIND, THRESHOLD_KIND)


@dataclass(frozen=True)
class MaintenancePolicy:
    """When a view's pending delta batches are propagated."""

    kind: str
    threshold: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown maintenance policy {self.kind!r}")
        if self.kind == THRESHOLD_KIND:
            if self.threshold is None or self.threshold < 1:
                raise ValueError("threshold policy needs a bound >= 1")
        elif self.threshold is not None:
            raise ValueError(f"{self.kind} policy takes no threshold")

    @classmethod
    def parse(cls, value: Union["MaintenancePolicy", str, int]
              ) -> "MaintenancePolicy":
        """Accepts a policy, ``"immediate"``/``"deferred"``, or an int K
        (shorthand for ``threshold(K)``)."""
        if isinstance(value, cls):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return threshold(value)
        if isinstance(value, str):
            if value == THRESHOLD_KIND:
                raise ValueError("threshold policy needs a bound: "
                                 "use threshold(K)")
            return cls(value)
        raise TypeError(f"cannot parse a policy from {value!r}")


IMMEDIATE = MaintenancePolicy(IMMEDIATE_KIND)
DEFERRED = MaintenancePolicy(DEFERRED_KIND)


def threshold(bound: int) -> MaintenancePolicy:
    """Flush once ``bound`` or more update trees are pending."""
    return MaintenancePolicy(THRESHOLD_KIND, bound)
