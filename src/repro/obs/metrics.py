"""Zero-dependency metrics: counters, gauges, reservoir histograms.

The registry is the pull side of the observability layer: hot code holds
plain metric objects (an increment is one attribute add, no dict
lookup) and exporters — :meth:`repro.api.Database.metrics`,
:func:`repro.obs.render_prometheus` — read a consistent snapshot on
demand.  Components whose counters live elsewhere (the router's
:class:`~repro.multiview.router.RouterStats`, the operator-state store,
the structural index) register *sync hooks* that mirror their current
values into the registry just before each snapshot, so instrumentation
never adds a second increment to an already-counted hot path.

Histograms keep exact ``count`` / ``sum`` / ``min`` / ``max`` plus a
fixed-size reservoir (Vitter's algorithm R with a deterministic LCG, so
quantile estimates are reproducible run to run) from which
:meth:`Histogram.quantile` interpolates.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def set(self, value) -> None:
        """Mirror an externally accumulated monotone count (sync hooks)."""
        self.value = value

    def export(self):
        return self.value


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self):
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def dec(self, amount=1) -> None:
        self.value -= amount

    def export(self):
        return self.value


#: quantile levels reported by snapshots and the Prometheus summary rendering
SUMMARY_LEVELS = (0.5, 0.9, 0.99)

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class Histogram:
    """Exact count/sum/min/max plus a deterministic sample reservoir."""

    __slots__ = ("count", "sum", "min", "max", "samples", "capacity",
                 "_rng")
    kind = "histogram"

    def __init__(self, capacity: int = 256):
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.capacity = capacity
        self.samples: list[float] = []
        self._rng = 0x9E3779B97F4A7C15

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self.samples) < self.capacity:
            self.samples.append(value)
            return
        # Algorithm R with a 64-bit LCG: deterministic, no import of
        # ``random``, uniform enough for quantile estimation.
        self._rng = (self._rng * _LCG_MULT + _LCG_INC) & _LCG_MASK
        slot = (self._rng >> 16) % self.count
        if slot < self.capacity:
            self.samples[slot] = value

    def set_total(self, count: int, total: float) -> None:
        """Mirror an externally accumulated (count, sum) pair (sync
        hooks) — reservoir quantiles stay whatever direct ``observe``
        calls produced."""
        self.count = count
        self.sum = total

    def quantile(self, q: float) -> Optional[float]:
        """Reservoir quantile by linear interpolation; None when empty."""
        if not self.samples:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        ordered = sorted(self.samples)
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    def export(self) -> dict:
        result = {"count": self.count, "sum": self.sum,
                  "min": self.min, "max": self.max}
        for q in SUMMARY_LEVELS:
            result[f"p{int(q * 100)}"] = self.quantile(q)
        return result


class _Family:
    """All instances of one metric name, keyed by their label sets."""

    __slots__ = ("name", "kind", "help", "instances")

    def __init__(self, name: str, kind: str, help_text: str):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.instances: dict[tuple, object] = {}


class MetricsRegistry:
    """Named counters/gauges/histograms with label sets and sync hooks."""

    def __init__(self):
        self._families: dict[str, _Family] = {}
        self._sync_hooks: list[Callable[["MetricsRegistry"], None]] = []

    # -- metric lookup (get-or-create) -------------------------------------------------

    def _metric(self, name: str, factory, kind: str, help_text: str,
                labels: dict):
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(name, kind, help_text)
        elif family.kind != kind:
            raise ValueError(f"metric {name!r} is a {family.kind}, "
                             f"not a {kind}")
        key = tuple(sorted(labels.items()))
        metric = family.instances.get(key)
        if metric is None:
            metric = family.instances[key] = factory()
        return metric

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._metric(name, Counter, "counter", help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._metric(name, Gauge, "gauge", help, labels)

    def histogram(self, name: str, help: str = "", **labels) -> Histogram:
        return self._metric(name, Histogram, "histogram", help, labels)

    def remove(self, **labels) -> None:
        """Drop every series, of any family, carrying all of ``labels``."""
        for family in self._families.values():
            for key in [key for key in family.instances
                        if set(labels.items()).issubset(key)]:
                del family.instances[key]

    # -- sync hooks ---------------------------------------------------------------------

    def add_sync_hook(self,
                      hook: Callable[["MetricsRegistry"], None]) -> None:
        """``hook(registry)`` runs before every snapshot/render — mirror
        externally accumulated stats into the registry there."""
        self._sync_hooks.append(hook)

    def sync(self) -> None:
        for hook in list(self._sync_hooks):
            hook(self)

    # -- export -------------------------------------------------------------------------

    def families(self) -> list[_Family]:
        return list(self._families.values())

    def snapshot(self) -> dict:
        """A structured, JSON-serializable view of every metric."""
        self.sync()
        out: dict = {}
        for family in self._families.values():
            values = {}
            for key, metric in family.instances.items():
                label_text = ",".join(f"{k}={v}" for k, v in key)
                values[label_text] = metric.export()
            out[family.name] = {"kind": family.kind, "help": family.help,
                                "values": values}
        return out
