"""ViewRegistry: N materialized views over one storage, one update stream.

The registry is the one driver of the V-P-A loop (Fig 1.5), for any
number of simultaneously maintained views:

* **register / unregister** views by name; each carries its own plan,
  SAPT, extent and :class:`~repro.multiview.policies.MaintenancePolicy`;
* **shared Validate** — every :class:`~repro.updates.primitives
  .UpdateRequest` entering :meth:`apply_updates` is classified *once* by
  the :class:`~repro.multiview.router.SharedValidationRouter` and
  dispatched only to the views it can affect; updates irrelevant to every
  view hit storage exactly once and propagate nowhere;
* **shared batching** — the stream is grouped into maximal same-document
  same-kind runs by :class:`~repro.updates.batch.RunBatcher` (inserts
  and modifies reach storage before their run propagates, deletes
  after); each relevant view propagates its own subset of a run's trees
  (relevance is ancestor-monotone, so the global nested-root dedup never
  hides a root from a view that needs it);
* **policies** — every routed view propagates its subset of a run in
  the run's own dispatch, against the state that run produced, and
  queues the Δ forest; a policy only says when the queue is fused into
  the extent (the Apply phase): immediate views at once, threshold(K)
  views once K trees are queued, deferred views on read, on
  :meth:`flush` and at the checkpoint quiesce, and the query entries
  below on their next ask;
* **ad-hoc queries** — :meth:`ViewRegistry.ask` keeps the extent of each
  per-item linear query it answers as a :class:`QueryEntry`, a deferred
  view no one named (absent from :meth:`names`, metrics labels, the WAL
  and checkpoints), fused when the same text is asked again; a query
  through :data:`_FRESH_OPS` is evaluated fresh on every ask;
* **the work bound** — a view recomputes its extent wholesale instead of
  propagating when its queued trees, charged one row per instruction of
  its FULL plan, reach the rows its last materialization read (Section
  9.1's crossover is about the fraction of the source a batch touches,
  so the decision reads counters, never a clock).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Union

from ..engine import Engine
from ..engine.opstate import OperatorStateStore
from ..obs import MetricsRegistry, Tracer
from ..obs.tracing import NOOP_SPAN
from ..plan import PlanCache
from ..storage import StorageManager
from ..translate import translate_query
from ..updates.batch import RunBatcher, spec_for_run
from ..updates.primitives import UpdateRequest, UpdateTree
from ..xat import (DELETE, FULL, INSERT, MODIFY, Aggregate,
                   CartesianProduct, Distinct, GroupBy, Join, LeftOuterJoin,
                   XatOperator, XmlUnique)
from ..xat.grouping import TupleFunction
from .pipeline import MaintenanceReport, ViewPipeline, apply_insert
from .policies import (DEFERRED, IMMEDIATE_KIND, THRESHOLD_KIND,
                       MaintenancePolicy)
from .router import SharedValidationRouter


@dataclass
class RoutedTree(UpdateTree):
    """An update tree annotated with the names of the views it affects."""

    views: frozenset = frozenset()


@dataclass(frozen=True)
class RefreshEvent:
    """One view's extent just changed under maintenance.

    ``reason`` is ``"propagate"`` (queued delta forests were fused into
    the extent) or ``"recompute"`` (the queued trees reached the view's
    work bound, :meth:`RegisteredView.over_work_bound`).  ``trees``
    counts every update tree the refresh consumed, a nested insert as a
    tree of its own.  ``duration_seconds`` is the wall-clock cost of the
    refresh itself — for a flush in the dispatch its last Δ pass and the
    fuse, for a deferred flush the fuse (its Apply) alone —
    ``delta_tuples`` the honest size of the change (extent mutations
    fused on propagation; extent node count on recomputation), and
    ``sequence`` the view's monotonically increasing refresh number
    (starting at 1) — a per-view subscriber that sees a gap has missed a
    refresh.

    ``mutations`` is the refresh's *payload*: the tuple of JSON-ready
    visible-mutation records the Apply phase captured (see the record
    schema in :mod:`repro.apply.deep_union`), present only when at least
    one listener registered with ``deliver_mutations=True`` **and** the
    refresh propagated deltas.  ``None`` means either capture was off or
    the extent was recomputed wholesale (``reason == "recompute"``) — a
    payload subscriber must re-read the view then.
    """

    view: str
    reason: str
    trees: int = 0
    duration_seconds: float = 0.0
    delta_tuples: int = 0
    sequence: int = 0
    mutations: Optional[tuple] = None


@dataclass
class ViewStats:
    """Maintenance activity of one registered view."""

    flushes: int = 0
    recomputes: int = 0
    propagated_trees: int = 0
    routed_trees: int = 0

    def as_dict(self) -> dict:
        return {"flushes": self.flushes,
                "recomputes": self.recomputes,
                "propagated_trees": self.propagated_trees,
                "routed_trees": self.routed_trees}


@dataclass
class MultiViewReport:
    """What one :meth:`ViewRegistry.apply_updates` call did."""

    updates: int = 0                 # requests processed
    classifications: int = 0         # router classifications (exactly once
                                     # per processed request)
    routed: int = 0                  # requests relevant to >= 1 view
    irrelevant_everywhere: int = 0   # requests that only touched storage
    unchanged: int = 0               # modifies of text already held: routed
                                     # and logged, never applied or propagated
    storage_ops: int = 0             # storage mutations performed
    validate_seconds: float = 0.0    # shared routing time (not per view)
    views: dict = field(default_factory=dict)  # name -> cumulative report


class RegisteredView:
    """One view under registry maintenance (a handle, also used
    internally)."""

    def __init__(self, name: str, pipeline: ViewPipeline,
                 policy: MaintenancePolicy):
        self.name = name
        self.pipeline = pipeline
        self.policy = policy
        #: rows the FULL plan's instructions read at the last
        #: (re)materialization; None until one is measured
        self.rows_read: Optional[int] = None
        #: the Δ forests of this view's passes not fused yet, oldest
        #: first, as ``[forest, trees]``; a None forest (always the last)
        #: marks a view that recomputes at its flush instead
        self.pending: list[list] = []
        self.report = MaintenanceReport()
        self.stats = ViewStats()
        self.refresh_sequence = 0
        #: (listener, deliver_mutations) pairs of this view; mutation
        #: capture in its Apply phase runs only while at least one
        #: listener wants it.
        self.refresh_listeners: list[tuple] = []
        self.mutation_listeners = 0
        self.query_text = ""
        #: the ``view`` attribute of this view's flush spans
        self.label = name
        #: propagate ``flush_seconds`` / ``flush_trees`` histograms, bound
        #: by :meth:`ViewRegistry.register` (query entries record none)
        self.flush_seconds = self.flush_trees = None
        self._instructions: Optional[int] = None

    def pending_trees(self) -> int:
        return sum(trees for _forest, trees in self.pending)

    @property
    def recomputing(self) -> bool:
        """Does the queue end in the recompute mark?"""
        return bool(self.pending) and self.pending[-1][0] is None

    @property
    def instructions(self) -> int:
        """Instructions of the view's FULL plan (its plan never changes,
        so it is counted once)."""
        if self._instructions is None:
            pipeline = self.pipeline
            self._instructions = len(
                pipeline.vm.cache.plan(pipeline.plan, FULL))
        return self._instructions

    def over_work_bound(self) -> bool:
        """Would propagating the queue touch as many rows as
        re-materializing did?  (Every queued tree is charged one row per
        instruction — counters, not a clock.)  A view whose
        materialization was never measured stays incremental."""
        return (self.rows_read is not None and self.pending_trees()
                * self.instructions >= self.rows_read)


#: query entries :meth:`ViewRegistry.ask` keeps at most
QUERY_CACHE_CAPACITY = 8

#: Operators that build an output row from several source items; the
#: view divergences the tests pin as strict xfails all run through them,
#: so :meth:`ViewRegistry.ask` evaluates a query holding one fresh.
_FRESH_OPS = (Aggregate, CartesianProduct, Distinct, GroupBy, Join,
              LeftOuterJoin, TupleFunction, XmlUnique)


class QueryEntry(RegisteredView):
    """The kept extent of one ad-hoc query (see :meth:`ViewRegistry.ask`).

    A deferred view under the router key ``("query", text)`` — no view
    name is a tuple — that never recomputes: once its queue reaches
    :meth:`over_work_bound`, or a pass or fuse of it fails, it is evicted
    instead.  At most :data:`QUERY_CACHE_CAPACITY` are kept, least
    recently asked evicted first.  A ``fresh`` entry keeps only its
    prepared plan and is never routed.
    """

    def __init__(self, text: str, pipeline: ViewPipeline):
        super().__init__(("query", text), pipeline, DEFERRED)
        self.label = "query"
        self.fresh = any(isinstance(op, _FRESH_OPS)
                         for op in pipeline.plan.iter_operators())


@dataclass
class QueryCacheStats:
    """What :meth:`ViewRegistry.ask` did: answers from a kept extent,
    materializations and fresh evaluations, and evictions by reason."""

    hits: int = 0
    misses: int = 0
    evictions: dict = field(
        default_factory=lambda: {"work": 0, "capacity": 0})


class ViewRegistry:
    """Manages N materialized views over one :class:`StorageManager`.

    The registry owns one shared
    :class:`~repro.engine.opstate.OperatorStateStore` — the persistent
    per-operator state of the Propagate phase — handed to every
    registered view's pipeline so structurally-equal subplans across
    views (same signature) resolve to the *same* cached side tables and
    hash indexes — the cross-view analogue of the shared validation
    router.
    """

    def __init__(self, storage: StorageManager):
        self.storage = storage
        self.engine = Engine(storage)
        self.router = SharedValidationRouter()
        self.state_store = OperatorStateStore(storage)
        # One shared plan cache: structurally-equal subplans across
        # views compile once (mirroring the shared operator-state store).
        self.plan_cache = PlanCache()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.metrics.add_sync_hook(self._sync_metrics)
        #: a bound :class:`~repro.durability.DurabilityManager` (set via
        #: its ``bind``); when present, every batch entering
        #: :meth:`apply_updates` is logged *before* mutation and view
        #: DDL is logged on success.
        self.wal = None
        self._views: dict[str, RegisteredView] = {}
        #: :meth:`ask`'s entries by router key, least recently asked first
        self._queries: dict[tuple, QueryEntry] = {}
        self.query_stats = QueryCacheStats()
        self._storage_ops = 0
        self._modifies_unchanged = 0
        self._subscriber_errors = 0
        self._closed = False
        storage.add_listener(self._count_storage_op)

    def _count_storage_op(self, op: str, key) -> None:
        self._storage_ops += 1

    # -- observability ------------------------------------------------------------------

    def _sync_metrics(self, metrics: MetricsRegistry) -> None:
        """Mirror the always-on plain-int stats of every hot component
        into the metrics registry — runs before each snapshot/render, so
        the hot paths themselves never pay a registry lookup."""
        for key, value in self.router.stats.as_dict().items():
            metrics.counter(f"router_{key}",
                            "Shared-validation router activity").set(value)
        metrics.counter("storage_mutations",
                        "Storage mutations observed").set(self._storage_ops)
        metrics.counter("registry_modifies_unchanged_total",
                        "Modifies of text the node already held "
                        "(routed and logged, never propagated)"
                        ).set(self._modifies_unchanged)
        metrics.counter(
            "subscriber_errors",
            "Refresh listeners that raised (isolated, flush unharmed)"
            ).set(self._subscriber_errors)
        stats = self.storage.index.stats()
        for key in ("range_scans", "walk_fallbacks", "path_lookups"):
            metrics.counter(
                f"index_{key}",
                "Structural-index navigation activity").set(stats[key])
        metrics.gauge("index_interned_keys",
                      "Live keys in the storage node map (one FlexKey "
                      "instance each, shared with the structural index)"
                      ).set(stats["interned_keys"])
        metrics.gauge("index_path_lists",
                      "Distinct root-to-node tag paths holding a "
                      "sorted key list in the structural index"
                      ).set(stats["path_lists"])
        plan_stats = self.plan_cache.stats()
        metrics.histogram(
            "plan_compile_seconds",
            "Wall-clock cost of lowering XAT trees to the plan IR"
            ).set_total(plan_stats["compiles"],
                        plan_stats["compile_seconds"])
        metrics.counter("plan_cache_hits",
                        "Prepared subplans served from the shared "
                        "plan cache (cross-view structural sharing)"
                        ).set(plan_stats["hits"])
        metrics.counter("plan_cache_misses",
                        "Subplan structures lowered fresh"
                        ).set(plan_stats["misses"])
        metrics.counter("vm_instructions_executed",
                        "Plan-VM instructions executed (short-circuits "
                        "included)"
                        ).set(plan_stats["instructions_executed"])
        metrics.counter("vm_instructions_reused",
                        "Plan-VM instructions whose register was filled "
                        "from the run memo (computed by an earlier "
                        "instruction, usually another view's pass)"
                        ).set(plan_stats["instructions_reused"])
        for key, value in self.state_store.stats.as_dict().items():
            metrics.counter(f"opstate_{key}",
                            "Operator-state store activity").set(value)
        metrics.gauge("opstate_cached_signatures",
                      "Distinct subplan signatures with cached state"
                      ).set(self.state_store.entry_count())
        queries = self.query_stats
        metrics.counter("query_cache_hits",
                        "Ad-hoc queries answered from a kept extent"
                        ).set(queries.hits)
        metrics.counter("query_cache_misses",
                        "Ad-hoc queries materialized or evaluated fresh"
                        ).set(queries.misses)
        for reason, count in queries.evictions.items():
            metrics.counter("query_cache_evictions",
                            "Ad-hoc query entries dropped",
                            reason=reason).set(count)
        metrics.gauge("query_cache_entries",
                      "Ad-hoc query entries kept").set(len(self._queries))
        for name, view in self._views.items():
            for key, value in view.stats.as_dict().items():
                metrics.counter(f"view_{key}",
                                "Per-view maintenance activity",
                                view=name).set(value)
            metrics.gauge("view_pending_trees",
                          "Update trees queued but not yet flushed",
                          view=name).set(view.pending_trees())
            metrics.gauge("view_extent_nodes", "Materialized extent size",
                          view=name).set(view.pipeline.extent_size())
            metrics.counter("view_serialized_elements_total",
                            "Extent elements rebuilt by reads (the rest "
                            "came from their cached XML)",
                            view=name).set(view.pipeline.serialized_elements)
            metrics.counter("view_refreshes",
                            "Refreshes (monotone sequence number)",
                            view=name).set(view.refresh_sequence)
            report = view.report
            for phase in ("propagate", "apply"):
                metrics.counter(
                    "view_phase_seconds",
                    "Cumulative P-A phase time", view=name,
                    phase=phase).set(getattr(report,
                                             f"{phase}_seconds"))
            for key in ("state_hits", "state_misses", "state_patches"):
                metrics.counter("view_" + key,
                                "Operator state served to this view",
                                view=name).set(getattr(report, key))
            metrics.counter("view_delta_tuples",
                            "Extent mutations fused by maintenance",
                            view=name).set(report.fusion.mutations)

    def metrics_snapshot(self) -> dict:
        """A structured snapshot of every engine metric (syncs first)."""
        return self.metrics.snapshot()

    def explain(self, name: str) -> str:
        """The view's algebra plan annotated with live operator counters
        (see :func:`repro.obs.explain.render_explain`)."""
        from ..obs.explain import render_explain

        view = self._views[name]
        return render_explain(
            name, view.pipeline.plan, policy=view.policy,
            work_bound=(view.rows_read, view.instructions),
            stats=view.stats, report=view.report, store=self.state_store,
            extent_size=view.pipeline.extent_size(),
            serialized_elements=view.pipeline.serialized_elements,
            pending_trees=view.pending_trees(),
            query_text=view.query_text, plan_cache=self.plan_cache)

    def add_trace_sink(self, sink) -> None:
        """Attach a :class:`repro.obs.TraceSink`; spans flow only while
        at least one sink is attached."""
        self.tracer.add_sink(sink)

    def remove_trace_sink(self, sink) -> None:
        self.tracer.remove_sink(sink)

    def close(self) -> None:
        """Detach from the storage manager (idempotent).  A registry holds
        a mutation listener on its storage; call this when discarding a
        registry whose StorageManager outlives it.  Refresh listeners are
        dropped with it."""
        if self._closed:
            return
        self._closed = True
        self.storage.remove_listener(self._count_storage_op)
        self.state_store.close()
        for view in self._views.values():
            view.refresh_listeners.clear()
            view.mutation_listeners = 0

    def __enter__(self) -> "ViewRegistry":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- refresh events ----------------------------------------------------------------

    def add_refresh_listener(self, view_name: str, listener,
                             deliver_mutations: bool = False) -> None:
        """Subscribe ``listener(event: RefreshEvent)`` to the refreshes
        of view ``view_name`` — fired whenever maintenance changes its
        extent (delta propagation or full recomputation), whatever
        triggered the flush (stream dispatch, a read of a deferred view,
        or an explicit :meth:`flush`).  The list belongs to the view and
        goes away with it (:meth:`unregister`).

        ``deliver_mutations=True`` turns on visible-mutation capture in
        that view's Apply phase: every *propagate* refresh then carries
        the JSON-ready delta records on :attr:`RefreshEvent.mutations`
        (the push payload of the network server).  Capture runs while at
        least one such listener is registered on the view and costs one
        list append per visible extent mutation."""
        view = self._views[view_name]
        view.refresh_listeners.append((listener, deliver_mutations))
        if deliver_mutations:
            view.mutation_listeners += 1

    def remove_refresh_listener(self, view_name: str, listener) -> None:
        """Unsubscribe (no-op when the listener or the view is gone —
        discard semantics)."""
        view = self._views.get(view_name)
        if view is None:
            return
        for entry in view.refresh_listeners:
            # ``==``, not ``is``: a bound method is a fresh object at
            # every attribute access and only compares equal to itself
            if entry[0] == listener:
                view.refresh_listeners.remove(entry)
                if entry[1]:
                    view.mutation_listeners -= 1
                return

    def _notify_refresh(self, view: RegisteredView, reason: str,
                        trees: int, duration: float, delta_tuples: int,
                        mutations: Optional[tuple] = None) -> None:
        # The sequence advances whether or not anyone listens — a
        # subscriber joining late sees where the view's history stands.
        view.refresh_sequence += 1
        if not view.refresh_listeners:
            return
        event = RefreshEvent(view.name, reason, trees, duration,
                             delta_tuples, view.refresh_sequence,
                             mutations)
        for listener, _wants in list(view.refresh_listeners):
            # Fan-out is isolated: one failing subscriber must neither
            # abort the flush that produced the event nor starve the
            # listeners after it.  The error is counted (the
            # ``subscriber_errors`` metric family) and dropped — a
            # callback's contract is fire-and-forget.
            try:
                listener(event)
            except Exception:
                self._subscriber_errors += 1

    # -- registration ------------------------------------------------------------------

    def register(self, name: str, query: Union[str, XatOperator],
                 policy: Union[MaintenancePolicy, str, int] = "immediate",
                 materialize: bool = True) -> RegisteredView:
        """Register (and by default materialize) a view under ``name``."""
        if name in self._views:
            raise ValueError(f"view {name!r} already registered")
        plan = (translate_query(query) if isinstance(query, str)
                else query)
        view = RegisteredView(name,
                              ViewPipeline(self.engine, plan,
                                           self.state_store,
                                           self.plan_cache),
                              MaintenancePolicy.parse(policy))
        view.flush_seconds = self.metrics.histogram(
            "flush_seconds", "Wall-clock cost of one flush", view=name,
            decision="propagate")
        view.flush_trees = self.metrics.histogram(
            "flush_trees", "Update trees consumed per flush", view=name)
        if isinstance(query, str):
            view.query_text = query
        elif self.wal is not None:
            raise ValueError(
                f"view {name!r}: a durable registry requires views "
                f"registered from query strings (raw plans cannot be "
                f"logged or checkpointed)")
        self._views[name] = view
        self.router.subscribe(name, view.pipeline.sapt)
        if materialize:
            self.materialize(name)
        if self.wal is not None:
            self.wal.log_create_view(name, view.query_text, view.policy,
                                     materialize=materialize)
        return view

    def unregister(self, name: str) -> None:
        """Drop a view; its queued deltas and its metrics are discarded
        with it."""
        view = self._views.pop(name)
        self.router.unsubscribe(name)
        view.pending.clear()
        self.metrics.remove(view=name)
        if self.wal is not None:
            self.wal.log_drop_view(name)

    def names(self) -> list[str]:
        return list(self._views)

    def view(self, name: str) -> RegisteredView:
        return self._views[name]

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def __len__(self) -> int:
        return len(self._views)

    # -- materialization and reads -----------------------------------------------------

    def materialize(self, name: Optional[str] = None) -> None:
        """(Re)materialize one view, or every registered view.

        The rows each materialization reads are the view's work bound —
        the recompute side of every later flush decision."""
        views = ([self._views[name]] if name is not None
                 else list(self._views.values()))
        for view in views:
            view.rows_read = view.pipeline.materialize()

    def query(self, name: str) -> str:
        """Read a view's XML, first flushing its pending deltas (the lazy
        flush point of the deferred policy)."""
        self.flush(name)
        return self._views[name].pipeline.to_xml()

    def to_xml(self, name: str) -> str:
        """The view's current extent *without* flushing (deferred views
        may be stale by design)."""
        return self._views[name].pipeline.to_xml()

    def recompute_xml(self, name: str) -> str:
        """Full recomputation oracle for one view (extent untouched)."""
        return self._views[name].pipeline.recompute_xml()

    # -- ad-hoc queries ----------------------------------------------------------------

    def ask(self, xquery: str) -> str:
        """Answer an ad-hoc XQuery string — byte-identical to a fresh
        ``Engine.query(translate_query(xquery))``.

        A per-item linear query is materialized on its first ask and kept
        as a :class:`QueryEntry`, whose queued forests a later ask of the
        same text fuses; a query through :data:`_FRESH_OPS` is evaluated
        fresh every time over the entry's kept prepared plan."""
        key = ("query", xquery)
        entry = self._queries.pop(key, None)
        if entry is not None:
            self._queries[key] = entry          # now the most recent
            if entry.fresh:
                self.query_stats.misses += 1
                return entry.pipeline.recompute_xml()
            self.query_stats.hits += 1
            self._flush_view(entry)
            return entry.pipeline.to_xml()
        self.query_stats.misses += 1
        pipeline = ViewPipeline(self.engine, translate_query(xquery),
                                self.state_store, self.plan_cache)
        entry = QueryEntry(xquery, pipeline)
        if entry.fresh:
            xml = pipeline.recompute_xml()
        else:
            try:
                entry.rows_read = pipeline.materialize()
            except BaseException:
                self.plan_cache.invalidate(pipeline.plan)
                raise
            xml = pipeline.to_xml()
            self.router.subscribe(key, pipeline.sapt)
        self._queries[key] = entry
        if len(self._queries) > QUERY_CACHE_CAPACITY:
            self._evict(next(iter(self._queries.values())), "capacity")
        return xml

    def _evict(self, entry: QueryEntry, reason: str) -> None:
        del self._queries[entry.name]
        if not entry.fresh:
            self.router.unsubscribe(entry.name)
        entry.pending.clear()
        self.plan_cache.invalidate(entry.pipeline.plan)
        self.query_stats.evictions[reason] += 1

    # -- the shared update entry point -------------------------------------------------

    def apply_updates(self, updates: list[UpdateRequest]
                      ) -> MultiViewReport:
        """Route, batch and propagate one heterogeneous update sequence
        across every registered view."""
        if self.wal is not None:
            # Write-ahead: the whole batch is on disk before any of it
            # mutates storage, so a crash either replays it in full or
            # never saw it — mid-batch kills cannot leave a logged
            # half-batch (torn trailing records are discarded).
            self.wal.log_batch(updates)
        report = MultiViewReport()
        stats_before = (self.router.stats.classifications,
                        self.router.stats.routed,
                        self.router.stats.irrelevant_everywhere)
        ops_before = self._storage_ops
        with self.tracer.span("registry.apply_updates",
                              updates=len(updates),
                              views=len(self._views)) as span:
            self._apply_queue(list(updates), RunBatcher(), report)
            span.set(routed=self.router.stats.routed - stats_before[1])
        self.metrics.histogram(
            "apply_updates_size",
            "Requests per apply_updates call").observe(len(updates))

        report.classifications = (self.router.stats.classifications
                                  - stats_before[0])
        report.routed = self.router.stats.routed - stats_before[1]
        report.irrelevant_everywhere = (
            self.router.stats.irrelevant_everywhere - stats_before[2])
        report.storage_ops = self._storage_ops - ops_before
        report.views = {name: view.report
                        for name, view in self._views.items()}
        if self.wal is not None:
            self.wal.maybe_checkpoint(self)
        return report

    def _apply_queue(self, queue: list[UpdateRequest], batcher: RunBatcher,
                     report: MultiViewReport) -> None:
        """Validate, route and dispatch the queue."""
        storage = self.storage
        for request in queue:
            report.updates += 1
            # A kind/document boundary closes the pending run before this
            # request's storage change applies (see RunBatcher.crosses).
            if batcher.crosses(request.document, request.kind):
                closed = batcher.close()
                if closed is not None:
                    self._dispatch(closed)
            started = time.perf_counter()
            if request.kind == INSERT:
                key = apply_insert(storage, request)
                result = self.router.route(storage, request.document, key)
                tree = RoutedTree(request.document, key, INSERT,
                                  views=result.views)
            elif request.kind == DELETE:
                result = self.router.route(storage, request.document,
                                           request.target)
                if not result.views:
                    storage.delete_subtree(request.target)
                    report.validate_seconds += (time.perf_counter()
                                                - started)
                    continue
                tree = RoutedTree(request.document, request.target, DELETE,
                                  views=result.views)
            else:  # MODIFY
                result = self.router.route(storage, request.document,
                                           request.target)
                if storage.holds_text(request.target, request.new_value):
                    # Unchanged: classified (router statistics count it)
                    # and WAL-logged by the caller, but the text is
                    # already there — no storage event, no tree, no flush.
                    report.unchanged += 1
                    self._modifies_unchanged += 1
                    report.validate_seconds += (time.perf_counter()
                                                - started)
                    continue
                if not result.views:
                    storage.replace_text(request.target, request.new_value)
                    report.validate_seconds += (time.perf_counter()
                                                - started)
                    continue
                if self.router.predicate_hitters(
                        request.document, result.tags, result.views):
                    # First-class modify: the pair re-routes derivations
                    # in-flight for the views that need it; views that
                    # read the value as content get an equivalent
                    # retract/assert re-derivation.
                    old_value, old_texts = storage.replaced_text(
                        request.target)
                    storage.replace_text(request.target, request.new_value)
                    tree = RoutedTree(request.document, request.target,
                                      MODIFY, old_value=old_value,
                                      new_value=request.new_value,
                                      views=result.views,
                                      old_texts=old_texts)
                else:
                    storage.replace_text(request.target, request.new_value)
                    tree = RoutedTree(request.document, request.target,
                                      MODIFY, views=result.views)
            report.validate_seconds += time.perf_counter() - started
            if request.kind == INSERT and not result.views:
                continue  # fragment stored; nothing propagates
            closed, accepted = batcher.push(tree)
            assert closed is None  # the boundary flush above closed it
            if accepted:
                for name in tree.views:
                    view = self._views.get(name) or self._queries.get(name)
                    if view is not None:
                        view.stats.routed_trees += 1
        closed = batcher.close()
        if closed is not None:
            self._dispatch(closed)

    # -- dispatch and flushing ---------------------------------------------------------

    def _dispatch(self, run: list[RoutedTree]) -> None:
        """Propagate one closed run into every view it affects, whatever
        its policy, and flush the views whose policy says so.

        Every routed view and query entry runs its Δ pass over its routed
        subset here, against the storage state the run produced
        (:meth:`_propagate`); a delete run's subtrees leave storage after
        every pass, and a view that recomputes in the dispatch does so
        after that.  The dispatch is one epoch of the operator-state store
        and owns the run's register file — one ``(spec, memo)`` per
        distinct routed subset — so a Δ subplan several views share is
        evaluated once; invariants I1–I4 of ``docs/PLAN_IR.md`` ("The
        dispatch register file") make that reuse sound.
        """
        routed = frozenset().union(*(tree.views for tree in run))
        deleting = run[0].kind == DELETE
        registers: dict[tuple, tuple] = {}
        recompute_after = []
        try:
            for view in (*self._views.values(), *self._queries.values()):
                if view.name not in routed:
                    continue
                started = time.perf_counter()
                if not self._propagate(view, run, registers):
                    continue
                policy = view.policy
                if policy.kind == IMMEDIATE_KIND or (
                        policy.kind == THRESHOLD_KIND
                        and view.pending_trees() >= policy.threshold):
                    if deleting and view.recomputing:
                        recompute_after.append(view)
                    else:
                        self._flush_view(view, started)
            if deleting:
                for tree in run:
                    self.storage.delete_subtree(tree.root)
                for view in recompute_after:
                    self._flush_view(view)
        finally:
            self.state_store.epoch += 1

    def _propagate(self, view: RegisteredView, run: list[RoutedTree],
                   registers: dict) -> bool:
        """Queue the Δ forest of ``view``'s routed subset of ``run`` (past
        the work bound, or when the pass raises, the recompute mark);
        False when a query entry was evicted instead — a cache entry whose
        pass raised drops out and the dispatch goes on without it."""
        if not view.pipeline.materialized:
            raise RuntimeError(
                f"materialize view {view.name!r} before updating it")
        subset = [tree for tree in run if view.name in tree.views]
        if view.recomputing:
            view.pending[-1][1] += len(subset)
            return True
        queued = [None, len(subset)]     # the mark until the pass returns
        view.pending.append(queued)
        if view.over_work_bound():
            if isinstance(view, QueryEntry):
                self._evict(view, "work")
                return False
            view.pending = [[None, view.pending_trees()]]
            return True
        key = tuple(map(id, subset))
        if key not in registers:
            registers[key] = (spec_for_run(subset, self.state_store.epoch),
                              {})
        spec, memo = registers[key]
        report = view.report
        before = report.propagate_seconds
        try:
            queued[0] = view.pipeline.propagate_run(spec, memo, report)
        except BaseException as error:
            if isinstance(view, QueryEntry):
                self._evict(view, "work")
                if isinstance(error, Exception):
                    return False
            raise
        if self.tracer.active:
            self.tracer.record("phase.propagate",
                               report.propagate_seconds - before,
                               view=view.label, trees=len(subset),
                               kind=spec.phase)
        return True

    def flush(self, name: Optional[str] = None) -> None:
        """Fuse the queued deltas of one view (or of all views) now."""
        views = ([self._views[name]] if name is not None
                 else list(self._views.values()))
        for view in views:
            self._flush_view(view)

    def _flush_view(self, view: RegisteredView,
                    started: Optional[float] = None) -> None:
        """Fuse one view's queued forests into its extent, oldest first,
        or recompute it when its queue ended in the recompute mark.  The
        refresh's duration counts from ``started`` (the start of the
        dispatch's pass an in-dispatch flush completes), else from here."""
        if not view.pending:
            return
        if started is None:
            started = time.perf_counter()
        view.stats.flushes += 1
        trees = view.pending_trees()
        if view.recomputing:
            view.pending = []
            self._recompute(view, trees=trees)
            return
        # A fuse that raises leaves a view to recompute at its next flush
        # (its extent holds part of the queue) and evicts a query entry.
        pending, view.pending = view.pending, [[None, trees]]
        report = view.report
        mutations_before = report.fusion.mutations
        capture = view.mutation_listeners > 0
        if capture:
            report.fusion.delta_log = []
        tracer = self.tracer
        with (tracer.span("view.flush", view=view.label, trees=trees,
                          decision="propagate",
                          work_rows=trees * view.instructions,
                          bound_rows=view.rows_read)
              if tracer.active else NOOP_SPAN) as span:
            apply_before = report.apply_seconds
            try:
                for forest, _trees in pending:
                    view.pipeline.fuse(forest, report)
            except BaseException:
                if isinstance(view, QueryEntry):
                    self._evict(view, "work")
                raise
            finally:
                captured = (tuple(report.fusion.delta_log)
                            if capture else None)
                report.fusion.delta_log = None
            if tracer.active:
                tracer.record("phase.apply",
                              report.apply_seconds - apply_before,
                              trees=trees)
            elapsed = time.perf_counter() - started
            span.set(observed_seconds=elapsed)
        view.pending = []
        view.stats.propagated_trees += trees
        delta_tuples = report.fusion.mutations - mutations_before
        if view.flush_seconds is not None:
            view.flush_seconds.observe(elapsed)
            view.flush_trees.observe(trees)
        self._notify_refresh(view, "propagate", trees, elapsed,
                             delta_tuples, captured)

    def _recompute(self, view: RegisteredView, trees: int = 0) -> None:
        with self.tracer.span(
                "view.flush", view=view.label, trees=trees,
                decision="recompute", work_rows=trees * view.instructions,
                bound_rows=view.rows_read) as span:
            started = time.perf_counter()
            view.rows_read = view.pipeline.materialize()
            elapsed = time.perf_counter() - started
            span.set(observed_seconds=elapsed)
        view.report.recomputed = True
        view.stats.recomputes += 1
        self.metrics.histogram(
            "flush_seconds", "Wall-clock cost of one flush",
            view=view.label, decision="recompute").observe(elapsed)
        self._notify_refresh(view, "recompute", trees, elapsed,
                             view.pipeline.extent_size())
