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
* **policies** — immediate views propagate at every batch boundary;
  deferred/threshold views, and the query entries below, queue batches
  and flush lazily.  Delete batches are barriers: the doomed subtrees
  leave storage only after every relevant view (whatever its policy)
  has propagated them;
* **ad-hoc queries** — :meth:`ViewRegistry.ask` keeps the extent of each
  per-item linear query it answers as a :class:`QueryEntry`, a deferred
  view no one named: routed, queued and barrier-flushed like any other,
  flushed when the same text is asked again, absent from :meth:`names`,
  metrics labels, the WAL and checkpoints.  At most
  :data:`QUERY_CACHE_CAPACITY` are kept (least recently asked evicted
  first), and an entry whose queue would cost as much as re-reading its
  sources is evicted, never recomputed in place.  Entangled queries (see
  :func:`_derivations_entangled`) are evaluated fresh on every ask over
  a kept prepared plan;
* **the work bound** — a view recomputes its extent wholesale instead of
  propagating when its pending trees, charged one row per instruction of
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
from ..xat import (DELETE, INSERT, MODIFY, Aggregate, CartesianProduct,
                   Distinct, GroupBy, Join, LeftOuterJoin, XatOperator,
                   XmlUnique)
from ..xat.base import FULL
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

    ``reason`` is ``"propagate"`` (pending delta batches were propagated
    into the extent) or ``"recompute"`` (the pending trees reached the
    view's work bound, :meth:`RegisteredView.over_work_bound`).
    ``trees`` counts the update trees the refresh consumed.  ``duration_seconds`` is the wall-clock
    cost of the refresh itself, ``delta_tuples`` the honest size of the
    change (extent mutations fused on propagation; extent node count on
    recomputation), and ``sequence`` the view's monotonically increasing
    refresh number (starting at 1) — a per-view subscriber that sees a
    gap has missed a refresh.

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


#: Operators whose output rows draw on *multiple* source items: a group
#: absorbs every member with its key, a join row both sides, a dedup
#: cell every duplicate.  Through them, a queued count-signed tree that
#: re-derives at flush time against post-mutation storage can pick up
#: another tree's contribution and inflate derivation counts.
_ENTANGLING_OPS = (Aggregate, CartesianProduct, Distinct, GroupBy, Join,
                   LeftOuterJoin, TupleFunction, XmlUnique)


def _derivations_entangled(plan: XatOperator) -> bool:
    """Whether any output of ``plan`` can derive from more than one
    source item (selections/projections/navigations are per-item linear
    and immune to cross-batch count inflation)."""
    seen: set[int] = set()
    stack = [plan]
    while stack:
        op = stack.pop()
        if id(op) in seen:
            continue
        seen.add(id(op))
        if isinstance(op, _ENTANGLING_OPS):
            return True
        stack.extend(op.inputs)
    return False


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
        self.pending: list[list[RoutedTree]] = []
        self.report = MaintenanceReport()
        self.stats = ViewStats()
        self.refresh_sequence = 0
        #: (listener, deliver_mutations) pairs of this view; mutation
        #: capture in its Apply phase runs only while at least one
        #: listener wants it.
        self.refresh_listeners: list[tuple] = []
        self.mutation_listeners = 0
        self.query_text = ""
        self.entangled = _derivations_entangled(pipeline.plan)
        #: the ``view`` attribute of this view's flush spans
        self.label = name
        #: propagate ``flush_seconds`` / ``flush_trees`` histograms, bound
        #: by :meth:`ViewRegistry.register` (query entries record none)
        self.flush_seconds = self.flush_trees = None
        self._instructions: Optional[int] = None

    def pending_trees(self) -> int:
        return sum(len(batch) for batch in self.pending)

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
        re-materializing did?  (Every pending tree is charged one row per
        instruction — counters, not a clock.)  A view whose
        materialization was never measured stays incremental."""
        return (self.rows_read is not None and self.pending_trees()
                * self.instructions >= self.rows_read)


#: query entries :meth:`ViewRegistry.ask` keeps at most
QUERY_CACHE_CAPACITY = 8


class QueryEntry(RegisteredView):
    """The kept extent of one ad-hoc query (see :meth:`ViewRegistry.ask`).

    A deferred view under the router key ``("query", text)`` — no view
    name is a tuple — that never recomputes: once its queue reaches
    :meth:`over_work_bound` it is evicted instead.  An entangled entry
    keeps only its prepared plan and is never routed.
    """

    def __init__(self, text: str, pipeline: ViewPipeline):
        super().__init__(("query", text), pipeline, DEFERRED)
        self.label = "query"


@dataclass
class QueryCacheStats:
    """What :meth:`ViewRegistry.ask` did: answers from a kept extent,
    fresh evaluations, and evictions by reason."""

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
        #: the register files of the run being dispatched, one per
        #: distinct routed subset: ``{ids of its trees: (spec, memo)}``
        #: (see :meth:`_dispatch`); empty outside a dispatch
        self._registers: dict[tuple, tuple] = {}
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
                        "Ad-hoc queries evaluated fresh (first ask, "
                        "after an eviction, or entangled)"
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
        view.pipeline.tracer = self.tracer
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

        The first ask of a per-item linear query materializes it and
        keeps the extent as a :class:`QueryEntry`; a later ask of the same
        text flushes the entry's queued Δ and writes it through the
        cached-XML extent writer.  An entangled query is evaluated fresh
        every time over the entry's kept prepared plan."""
        key = ("query", xquery)
        entry = self._queries.pop(key, None)
        if entry is not None:
            self._queries[key] = entry          # now the most recent
            if entry.entangled:
                self.query_stats.misses += 1
                return entry.pipeline.recompute_xml()
            self.query_stats.hits += 1
            self._flush_view(entry)
            return entry.pipeline.to_xml()
        self.query_stats.misses += 1
        pipeline = ViewPipeline(self.engine, translate_query(xquery),
                                self.state_store, self.plan_cache)
        pipeline.tracer = self.tracer
        entry = QueryEntry(xquery, pipeline)
        if entry.entangled:
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
        if not entry.entangled:
            self.router.unsubscribe(entry.name)
        entry.pending.clear()
        self.plan_cache.invalidate(entry.pipeline.plan)
        self.query_stats.evictions[reason] += 1

    def _routed(self, name) -> Optional[RegisteredView]:
        """The view or query entry subscribed to the router as ``name``."""
        view = self._views.get(name)
        return view if view is not None else self._queries.get(name)

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
                # Queued count-signed trees flush before the new node
                # enters storage (see _drain_overlapping: their flush
                # would absorb it and double-count).  Nested inserts of
                # the *same* run still batch — runs flush atomically.
                self._drain_overlapping(request.target, None, batcher,
                                        modifies_only=True,
                                        drain_signed=True)
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
                hitters = self.router.predicate_hitters(
                    request.document, result.tags, result.views)
                # Drain conflicting queues BEFORE the text change lands:
                # a queued tree flushed after it would re-derive from
                # post-mutation storage and double-apply (the queue-side
                # form of the RunBatcher.crosses discipline).  A pair
                # additionally conflicts with every queued count-signed
                # tree (output overlap through shared group/join keys,
                # regardless of input subtrees).
                self._drain_overlapping(request.target, result.views,
                                        batcher,
                                        drain_signed=bool(hitters))
                if hitters:
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
                    view = self._routed(name)
                    if view is not None:
                        view.stats.routed_trees += 1
        closed = batcher.close()
        if closed is not None:
            self._dispatch(closed)

    # -- dispatch and flushing ---------------------------------------------------------

    def _drain_overlapping(self, target, names, batcher: RunBatcher,
                           modifies_only: bool = False,
                           drain_signed: bool = False) -> None:
        """Flush every view whose pending queue conflicts with the
        storage change the caller is about to apply.

        Two conflict classes:

        * **input overlap** — a queued tree whose root shares a subtree
          with ``target``: it must flush before the subtree changes
          under it.  ``modifies_only`` restricts this to queued modify
          trees (insert-over-insert nesting stays queued — the pending
          insert covers it when it reads final storage).
        * **output overlap** — every queued tree re-derives against
          *final* storage when it flushes, so it absorbs any later
          count-signed change no matter how distant the input nodes are
          (a shared group or join key is enough): a queued insert or
          pair asserts the newer derivation, and so does a queued
          count-neutral refresh, whose group re-derives with the new
          member in it; the newer tree then asserts the same derivation
          again and the counts are silently inflated — invisible in the
          XML until a retraction under-removes.  ``drain_signed``
          flushes every queued tree before the caller's own
          count-signed change enters storage — but only for views whose
          derivations are :func:`entangled <_derivations_entangled>`
          across source items; per-item linear views keep batching, as
          do entangled views under refreshes — that is what the
          deferred policy amortizes.

        ``names`` limits the scan to the routed views (None scans all —
        inserts route only after the node exists).  The pending run is
        closed first so its trees flush in order.
        """
        views = ([view for view in map(self._routed, names)
                  if view is not None] if names is not None
                 else [*self._views.values(), *self._queries.values()])

        def overlaps(t) -> bool:
            if modifies_only and t.kind != MODIFY:
                return False
            return (t.root == target or t.root.is_ancestor_of(target)
                    or target.is_ancestor_of(t.root))

        closed = False
        for view in views:
            if not view.pending:
                continue
            if not (drain_signed and view.entangled) and not any(
                    overlaps(t) for batch in view.pending for t in batch):
                continue
            if not closed:
                run = batcher.close()
                if run is not None:
                    self._dispatch(run)
                closed = True
            self._flush_view(view)

    def _dispatch(self, run: list[RoutedTree]) -> None:
        """Hand one closed run to every view it affects, honouring
        policies — except that delete runs are barriers (see module
        docstring).

        Each dispatch is one **epoch** of the operator-state store: the
        run's trees are stamped with the store's counter, which advances
        when the dispatch ends, so the run's own storage events — inserts
        and modifies landed just before this call, deletes land inside
        it — and every spec built for the run carry the same number.
        The store patches a cached table only from a spec of the epoch
        its stale events belong to.

        The dispatch owns the run's **register files**: per distinct
        routed subset of the run one :class:`~repro.xat.DeltaSpec` and,
        beside it, one memo ``{(structural signature, mode): table}``
        (:meth:`_enqueue` creates them, :meth:`_flush_view` hands them
        to each pass), so a Δ subplan several views share is evaluated
        once per dispatch and ``reconcile`` reads it instead of
        evaluating it again.  What makes the reuse sound
        (``docs/PLAN_IR.md``, "The dispatch register file"):

        * **I1** — a register is reused only under the *same spec
          object*: same subset of the same run, inside this one epoch,
          where storage is fixed (inserts and modifies landed before it,
          deletes land after every affected view flushed) and the
          operator-state store is current before and after each pass
          (stale entries are patched on first serve, delete patches only
          staged), so the Δ rules that read state (``Distinct``'s zero
          crossing, the outer join's dangling checks) answer every pass
          alike.  Views routed *different* subsets share nothing: under
          the run's full spec a ``NavigateUnnest`` Δ would hand the
          narrower views refresh rows for the extra roots' ancestors.
        * **I2** — correlated evaluation (a non-empty binding stack)
          neither reads nor writes the memo; operators without a
          structural signature get a per-instance one.
        * **I3** — memo tables are read-only: no operator and no Apply
          step mutates an input tuple, item or ``AggState``.
        * **I4** — registers live for one epoch: a batch is looked up by
          the identity of its trees and the registers go with the
          dispatch, also when a pass raises, so older batches a view
          flushes first, and this run flushed by a deferred view later,
          get a spec of their own epoch and an empty memo.
        """
        store = self.state_store
        for tree in run:
            tree.epoch = store.epoch
        routed = frozenset().union(*(tree.views for tree in run))
        affected = [view for view in (*self._views.values(),
                                      *self._queries.values())
                    if view.name in routed]
        try:
            if run[0].kind == DELETE:
                recompute_after = []
                for view in affected:
                    if not self._enqueue(view, run):
                        continue
                    deferred_trees = self._flush_view(view,
                                                      defer_recompute=True)
                    if deferred_trees is not None:
                        recompute_after.append((view, deferred_trees))
                for tree in run:
                    self.storage.delete_subtree(tree.root)
                for view, trees in recompute_after:
                    self._recompute(view, trees=trees)
                return
            for view in affected:
                if not self._enqueue(view, run):
                    continue
                policy = view.policy
                if policy.kind == IMMEDIATE_KIND or (
                        policy.kind == THRESHOLD_KIND
                        and view.pending_trees() >= policy.threshold):
                    self._flush_view(view)
        finally:
            self._registers = {}
            store.epoch += 1

    def _enqueue(self, view: RegisteredView, run: list[RoutedTree]) -> bool:
        """Queue ``view``'s routed subset of ``run``; False when that
        put a query entry over its work bound and evicted it."""
        if not view.pipeline.materialized:
            raise RuntimeError(
                f"materialize view {view.name!r} before updating it")
        subset = [tree for tree in run if view.name in tree.views]
        kept: list[RoutedTree] = []
        for tree in subset:
            pending = [t for batch in view.pending for t in batch]
            if tree.kind != DELETE and any(
                    t.kind == INSERT and (t.root == tree.root
                                          or t.root.is_ancestor_of(tree.root))
                    for t in pending):
                # A pending insert reads final storage when it flushes, so
                # it already covers this nested insert/modify; propagating
                # both would double-count.
                continue
            if any(t.root == tree.root or t.root.is_ancestor_of(tree.root)
                   or tree.root.is_ancestor_of(t.root) for t in pending):
                # Backstop for overlaps _drain_overlapping could not see
                # at validate time (the storage change of this run is
                # already applied, so this drain alone is not enough to
                # keep deferred pairs from double-propagating).
                self._flush_view(view)
            kept.append(tree)
        if kept:
            view.pending.append(kept)
            if isinstance(view, QueryEntry) and view.over_work_bound():
                self._evict(view, "work")
                return False
            key = tuple(map(id, kept))
            if key not in self._registers:
                self._registers[key] = (spec_for_run(kept), {})
        return True

    def flush(self, name: Optional[str] = None) -> None:
        """Propagate pending deltas of one view (or of all views) now."""
        views = ([self._views[name]] if name is not None
                 else list(self._views.values()))
        for view in views:
            self._flush_view(view)

    def _flush_view(self, view: RegisteredView,
                    defer_recompute: bool = False) -> Optional[int]:
        """Flush one view's queue; returns the pending tree count when
        the flush decided on recomputation but must wait for pending
        storage deletes (the caller recomputes after applying them,
        passing the count through to the refresh event), else None."""
        if not view.pending:
            return None
        view.stats.flushes += 1
        trees = view.pending_trees()
        if view.over_work_bound():
            view.pending.clear()
            if defer_recompute:
                return trees
            self._recompute(view, trees=trees)
            return None
        mutations_before = view.report.fusion.mutations
        capture = view.mutation_listeners > 0
        if capture:
            view.report.fusion.delta_log = []
        tracer = self.tracer
        with (tracer.span("view.flush", view=view.label, trees=trees,
                          decision="propagate",
                          work_rows=trees * view.instructions,
                          bound_rows=view.rows_read)
              if tracer.active else NOOP_SPAN) as span:
            started = time.perf_counter()
            try:
                for batch in view.pending:
                    spec, memo = (
                        self._registers.get(tuple(map(id, batch)))
                        or (spec_for_run(batch), {}))
                    view.pipeline.propagate_run(spec, memo, view.report)
            finally:
                captured = (tuple(view.report.fusion.delta_log)
                            if capture else None)
                view.report.fusion.delta_log = None
            elapsed = time.perf_counter() - started
            span.set(observed_seconds=elapsed)
        view.stats.propagated_trees += trees
        view.pending.clear()
        delta_tuples = view.report.fusion.mutations - mutations_before
        if view.flush_seconds is not None:
            view.flush_seconds.observe(elapsed)
            view.flush_trees.observe(trees)
        self._notify_refresh(view, "propagate", trees, elapsed,
                             delta_tuples, captured)
        return None

    def _recompute(self, view: RegisteredView, trees: int = 0) -> None:
        with self.tracer.span(
                "view.flush", view=view.name, trees=trees,
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
            view=view.name, decision="recompute").observe(elapsed)
        self._notify_refresh(view, "recompute", trees, elapsed,
                             view.pipeline.extent_size())
