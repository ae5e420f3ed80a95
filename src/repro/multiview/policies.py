"""Per-view maintenance policies.

A registered view chooses *when* its queued delta batches propagate:

* ``immediate`` — at every batch boundary of the shared update stream;
* ``deferred`` — queue batches and flush lazily, on the next read
  (:meth:`ViewRegistry.query`) or an explicit
  :meth:`ViewRegistry.flush`;
* ``threshold(K)`` — queue batches and flush as soon as ``K`` or more
  update trees are pending.

Whatever the policy, **delete batches are barriers**: a source subtree
can only leave storage after every relevant view has propagated it (the
Propagate phase reads the doomed subtree — Chapter 6's phase/count
discipline), so a delete forces all views it is relevant to, deferred or
not, to flush through it first.  Deferral is thereby bounded by delete
barriers.
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
