"""Hierarchical tracing spans for the maintenance hot path.

A :class:`Tracer` hands out :class:`Span` context managers; entering a
span pushes it on the tracer's stack (so children know their parent) and
leaving it records the duration and delivers the completed span to every
attached :class:`TraceSink`.  Sinks receive spans **on completion**, so
children arrive before their parents — the order a streaming consumer
(the future network server pushing traces to clients) wants.

The whole machinery is pay-for-use: ``tracer.span(...)`` returns a
shared no-op object unless at least one sink is attached, which keeps
the instrumented hot paths at one attribute load + branch when nobody
is watching.

Spans that do not wrap a code region (a phase whose duration was
measured elsewhere, e.g. the engine's propagate/apply split) are emitted
with :meth:`Tracer.record`, which synthesizes a completed child of the
current span.
"""

from __future__ import annotations

import itertools
import time
from typing import Optional, Protocol, runtime_checkable

__all__ = ["Span", "TraceSink", "Tracer"]

_span_ids = itertools.count(1)


class Span:
    """One timed region of a maintenance pass."""

    __slots__ = ("span_id", "parent_id", "name", "attrs", "start",
                 "duration", "depth")

    def __init__(self, name: str, parent: Optional["Span"], attrs: dict):
        self.span_id = next(_span_ids)
        self.parent_id = parent.span_id if parent is not None else None
        self.depth = parent.depth + 1 if parent is not None else 0
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.duration = 0.0

    def set(self, **attrs) -> None:
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)

    def __repr__(self) -> str:
        return (f"<Span {self.name} #{self.span_id} "
                f"parent={self.parent_id} {self.duration * 1e3:.3f}ms>")


@runtime_checkable
class TraceSink(Protocol):
    """Anything receiving span-complete events — tests, log writers, the
    future server's subscription fan-out."""

    def on_span(self, span: Span) -> None:
        ...


class _NoopSpan:
    """Shared inert span: handed out when nobody is listening."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        return False

    def set(self, **attrs) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """Context manager pairing a Span with its tracer bookkeeping."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self.span.start = time.perf_counter()
        self._tracer._stack.append(self.span)
        return self.span

    def __exit__(self, exc_type, exc_value, traceback):
        span = self.span
        span.duration = time.perf_counter() - span.start
        stack = self._tracer._stack
        if stack and stack[-1] is span:
            stack.pop()
        self._tracer._deliver(span)
        return False


class Tracer:
    """Produces nested spans and fans completed ones out to sinks."""

    def __init__(self):
        self._sinks: list[TraceSink] = []
        self._stack: list[Span] = []

    @property
    def active(self) -> bool:
        return bool(self._sinks)

    def add_sink(self, sink: TraceSink) -> None:
        self._sinks.append(sink)

    def remove_sink(self, sink: TraceSink) -> None:
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **attrs):
        """A context manager timing one region as a child of the current
        span; a shared no-op when nobody is listening."""
        if not self.active:
            return NOOP_SPAN
        return _ActiveSpan(self, Span(name, self.current(), attrs))

    def record(self, name: str, duration: float, **attrs) -> None:
        """Emit an already-measured phase as a completed child span."""
        if not self.active:
            return
        span = Span(name, self.current(), attrs)
        span.start = time.perf_counter() - duration
        span.duration = duration
        self._deliver(span)

    def _deliver(self, span: Span) -> None:
        for sink in list(self._sinks):
            sink.on_span(span)


class CollectingSink:
    """A list-backed sink (tests and ad-hoc debugging)."""

    def __init__(self):
        self.spans: list[Span] = []

    def on_span(self, span: Span) -> None:
        self.spans.append(span)

    def by_name(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]
