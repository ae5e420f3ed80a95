"""Engine-wide observability: metrics, tracing spans, Prometheus, EXPLAIN.

The layer has three parts, always on:

* :mod:`~repro.obs.metrics` — a zero-dependency registry of counters,
  gauges and reservoir-quantile histograms with sync hooks that pull
  component-local stats (router, operator-state store, structural
  index) into each snapshot;
* :mod:`~repro.obs.tracing` — hierarchical spans over the V-P-A hot
  path, delivered to :class:`TraceSink` subscribers on completion (a
  span costs something only while a sink is attached);
* :mod:`~repro.obs.prometheus` / :mod:`~repro.obs.explain` — the text
  exporters: :func:`render_prometheus` for scrapers, and the live
  ``EXPLAIN`` plan renderer behind :meth:`repro.api.Database.explain`.

This package ``__init__`` must stay import-light: the hot layers
(multiview, the session API) import it at module load, so pulling
engine modules in here would be circular.
:mod:`repro.obs.explain` is therefore imported lazily by the session
API rather than re-exported.
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .prometheus import render_prometheus
from .tracing import CollectingSink, Span, TraceSink, Tracer

__all__ = [
    "CollectingSink",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TraceSink",
    "Tracer",
    "render_prometheus",
]
