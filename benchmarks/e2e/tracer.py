"""Runtime span tracer for the traced benchmark run.

The per-layer numbers come from wrapping each layer's public entry
point *from here* — nothing in ``src/`` knows about it.  A span is
``(layer, start, end, parent, size)``: ``start``/``end`` are
``time.perf_counter()`` readings (CLOCK_MONOTONIC, so spans recorded in
the server subprocess line up with the load generator's clock),
``parent`` indexes the span that was open when this one started (-1 for
a root) and ``size`` is ``len(result)`` when the wrapped call returned
``str``/``bytes``/``list`` (bytes encoded, characters serialised, frames
decoded), else 0.  Spans stay in memory until :meth:`Tracer.dump`.

A layer's **self time** is its spans' durations minus the part their
child spans cover, so the layers partition the traced wall time and the
root spans' self time is what no boundary covers (``trace.unattributed``).
"""

from __future__ import annotations

import bisect
import importlib
import inspect
import json
import time

#: every wrapped boundary: (module, attribute, layer).  ``attribute`` is
#: a module-level function or ``Class.method``; names imported by value
#: (``from x import f``) are patched in the *importing* module.  A rename
#: in ``src/`` makes :meth:`Tracer.install` raise instead of silently
#: dropping the layer.
LAYER_BOUNDARIES = [
    ("repro.api.database", "Database.update", "api.facade"),
    ("repro.api.database", "Database.execute", "api.facade"),
    ("repro.api.builder", "DocumentUpdater.at", "api.facade"),
    ("repro.api.builder", "UpdateSite.insert", "api.facade"),
    ("repro.api.builder", "UpdateSite.delete", "api.facade"),
    ("repro.api.builder", "UpdateSite.replace_with", "api.facade"),
    ("repro.api.builder", "Update.resolve", "api.resolve"),
    ("repro.api.database", "parse_update", "xquery.parse"),
    ("repro.api.database", "evaluate_update", "xquery.parse"),
    ("repro.multiview.registry", "ViewRegistry.apply_updates", "registry.self"),
    ("repro.multiview.router", "SharedValidationRouter.route", "router.route"),
    ("repro.multiview.router", "SharedValidationRouter.predicate_hitters",
     "router.route"),
    ("repro.storage.manager", "StorageManager.insert_fragment",
     "storage.mutate"),
    ("repro.storage.manager", "StorageManager.delete_subtree",
     "storage.mutate"),
    ("repro.storage.manager", "StorageManager.replace_text", "storage.mutate"),
    ("repro.storage.manager", "StorageManager.find_by_path", "storage.find"),
    ("repro.engine.executor", "Engine.propagate", "engine.propagate"),
    ("repro.engine.executor", "Engine.materialize", "engine.recompute"),
    ("repro.engine.opstate", "OperatorStateStore.reconcile",
     "opstate.reconcile"),
    ("repro.plan.vm", "PlanVM.run", "plan.vm"),
    ("repro.engine.executor", "fuse_forest", "apply.fuse"),
    ("repro.engine.executor", "Engine.serialize_extent",
     "xmlmodel.serialize"),
    ("repro.api.builder", "parse_fragment", "xmlmodel.parse_fragment"),
    ("repro.updates.primitives", "parse_fragment", "xmlmodel.parse_fragment"),
    ("repro.durability.manager", "DurabilityManager.log_batch", "wal.append"),
    ("repro.durability.manager", "DurabilityManager.checkpoint",
     "checkpoint"),
    ("repro.server.protocol", "FrameDecoder.feed", "server.decode"),
    ("repro.server.server", "ViewServer.run", "server.queue_wait"),
    ("repro.server.server", "encode_frame", "server.encode"),
]

#: layer of the span the async ``ViewServer.run`` wrapper puts around
#: the apply-loop job it was handed (its children are the engine layers)
JOB_LAYER = "server.job"

_SIZED = (str, bytes, list)


class Tracer:
    """Installs the wrappers, collects spans, restores the originals."""

    def __init__(self):
        self.layers: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- span recording ---------------------------------------------------------------

    def layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def begin(self, layer_id: int) -> int:
        """Open a span by hand (the benchmark's own root spans)."""
        stack = self._stack
        index = len(self.spans)
        span = [layer_id, 0.0, 0.0, stack[-1] if stack else -1, 0]
        self.spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, function, layer_id: int):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            started = clock()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                ended = clock()
                stack.pop()
                spans[index] = (layer_id, started, ended, parent,
                                len(result) if type(result) in _SIZED else 0)

        traced.__wrapped__ = function
        return traced

    def _wrap_async_run(self, function, layer_id: int):
        """``ViewServer.run(job)``: the coroutine's span is a root (other
        tasks interleave while it awaits, so it never joins the stack)
        and the job it queues becomes its only child — the span's self
        time is the apply-loop queue wait plus the wake-up."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        job_layer = self.layer_id(JOB_LAYER)

        async def traced(server, job, **kwargs):
            index = len(spans)
            spans.append(None)

            def traced_job():
                job_index = len(spans)
                spans.append(None)
                stack.append(job_index)
                job_started = clock()
                try:
                    return job()
                finally:
                    job_ended = clock()
                    stack.pop()
                    spans[job_index] = (job_layer, job_started, job_ended,
                                        index, 0)

            started = clock()
            try:
                return await function(server, traced_job, **kwargs)
            finally:
                spans[index] = (layer_id, started, clock(), -1, 0)

        traced.__wrapped__ = function
        return traced

    # -- install / uninstall ------------------------------------------------------------

    def install(self) -> "Tracer":
        """Patch every boundary; raises if one no longer exists."""
        for module_name, attribute, layer in LAYER_BOUNDARIES:
            owner = importlib.import_module(module_name)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None) if owner is not None else None
            if not callable(original):
                raise RuntimeError(
                    f"traced boundary {module_name}:{attribute} (layer "
                    f"{layer!r}) is missing or not callable — update "
                    f"LAYER_BOUNDARIES in benchmarks/e2e/tracer.py")
            static = inspect.getattr_static(owner, name)
            layer_id = self.layer_id(layer)
            if inspect.iscoroutinefunction(original):
                wrapper = self._wrap_async_run(original, layer_id)
            else:
                wrapper = self._wrap(original, layer_id)
            if isinstance(static, staticmethod):
                wrapper = staticmethod(wrapper)
            setattr(owner, name, wrapper)
            self._patched.append((owner, name, static))
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, name, static = self._patched.pop()
            setattr(owner, name, static)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.uninstall()

    # -- dump / load --------------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the span list as JSON (see README: reading the dump)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"layers": self.layers,
                       "fields": ["layer", "start", "end", "parent", "size"],
                       "spans": self.spans}, handle)


def load_dump(path: str) -> tuple[list[str], list]:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return data["layers"], data["spans"]


def self_times(layers: list[str], spans: list, windows: list[tuple]
               ) -> list[dict]:
    """Per window ``(start, end)`` (sorted, disjoint): ``{layer:
    (self_seconds, calls, size)}`` over the spans that *started* inside
    it.  A span still open at dump time is ``None`` and skipped."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span is not None and span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    starts = [window[0] for window in windows]
    totals = [dict() for _ in windows]
    for index, span in enumerate(spans):
        if span is None:
            continue
        layer_id, started, ended, _parent, size = span
        slot = bisect.bisect_right(starts, started) - 1
        if slot < 0 or started >= windows[slot][1]:
            continue
        total = totals[slot]
        layer = layers[layer_id]
        seconds, calls, sized = total.get(layer, (0.0, 0, 0))
        total[layer] = (seconds + (ended - started) - covered[index],
                        calls + 1, sized + size)
    return totals
