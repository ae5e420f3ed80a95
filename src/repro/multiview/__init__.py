"""Multi-view maintenance: N materialized XQuery views over one storage.

The subsystem is the V-P-A loop (Fig 1.5): a registry of views
maintained from a single update stream:

* :mod:`~repro.multiview.pipeline` — the per-view Propagate/Apply step
  and its report;
* :mod:`~repro.multiview.router` — shared validation: one interned path
  index over all views, one classification per update;
* :mod:`~repro.multiview.policies` — per-view immediate / deferred /
  threshold flush policies;
* :mod:`~repro.multiview.registry` — the :class:`ViewRegistry` tying it
  together, and each view's work bound (incremental vs recompute at
  flush time, from row counters).
"""

from .pipeline import MaintenanceReport, ViewPipeline
from .policies import DEFERRED, IMMEDIATE, MaintenancePolicy, threshold
from .registry import (MultiViewReport, RefreshEvent, RegisteredView,
                       RoutedTree, ViewRegistry, ViewStats)
from .router import RouterStats, RouteResult, SharedValidationRouter

__all__ = [
    "DEFERRED",
    "IMMEDIATE",
    "MaintenancePolicy",
    "MaintenanceReport",
    "MultiViewReport",
    "RefreshEvent",
    "RegisteredView",
    "RoutedTree",
    "RouteResult",
    "RouterStats",
    "SharedValidationRouter",
    "ViewPipeline",
    "ViewRegistry",
    "ViewStats",
    "threshold",
]
