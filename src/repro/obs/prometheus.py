"""Prometheus text-format exporter for a :class:`MetricsRegistry`.

Renders the 0.0.4 exposition format from a registry snapshot — plain
text, no client library.  Counters and gauges map directly; histograms
are rendered as summaries (reservoir quantiles plus exact ``_sum`` and
``_count`` series), which is the honest representation of
quantile-from-reservoir data.  Metric and label names are sanitized to
the Prometheus grammar; every name gets the ``repro_`` namespace prefix
unless it already carries one.
"""

from __future__ import annotations

import re

from .metrics import SUMMARY_LEVELS, MetricsRegistry

__all__ = ["render_prometheus"]

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_OK = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str) -> str:
    name = _NAME_OK.sub("_", name)
    if not name.startswith("repro_"):
        name = "repro_" + name
    return name


def _label_text(key: tuple, extra: str = "") -> str:
    parts = [f'{_LABEL_OK.sub("_", k)}="{_escape(str(v))}"'
             for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def _value_text(value) -> str:
    if value is None:
        return "NaN"
    return repr(float(value))


def render_prometheus(metrics: MetricsRegistry) -> str:
    """The registry's current state in Prometheus text format."""
    metrics.sync()
    lines: list[str] = []
    for family in metrics.families():
        name = _metric_name(family.name)
        if family.help:
            lines.append(f"# HELP {name} {family.help}")
        kind = "summary" if family.kind == "histogram" else family.kind
        lines.append(f"# TYPE {name} {kind}")
        for key, metric in family.instances.items():
            if family.kind == "histogram":
                for q in SUMMARY_LEVELS:
                    labels = _label_text(key, f'quantile="{q}"')
                    lines.append(f"{name}{labels} "
                                 f"{_value_text(metric.quantile(q))}")
                base = _label_text(key)
                lines.append(f"{name}_sum{base} {_value_text(metric.sum)}")
                lines.append(f"{name}_count{base} {metric.count}")
            else:
                lines.append(f"{name}{_label_text(key)} "
                             f"{_value_text(metric.value)}")
    return "\n".join(lines) + "\n"
