"""The unified ``Database`` session facade over the V-P-A engine.

One key-free entry point for the whole system (the paper's *service*
reading: clients issue source updates and read maintained XQuery views):

* :meth:`Database.load` registers source documents;
* :meth:`Database.create_view` registers + materializes named views with
  per-view maintenance policies;
* :meth:`Database.update` opens the fluent path-addressed builder
  (``db.update("bib.xml").at("/bib/book[2]").insert(...)``);
* :meth:`Database.execute` runs TIHW01-style XQuery-update strings
  through the same submission path;
* :meth:`Database.batch` collects statements and flushes them through
  :meth:`ViewRegistry.apply_updates` as **one routed stream** — every
  statement classified exactly once by the shared validation router,
  delete barriers preserved;
* :meth:`Database.query` answers ad-hoc XQuery reads;
* :meth:`Database.subscribe` fires callbacks on view refresh;
* :meth:`Database.metrics` / :meth:`Database.render_prometheus` /
  :meth:`Database.explain` expose the engine's observability layer
  (see :mod:`repro.obs`);
* the context manager delegates to :meth:`ViewRegistry.close`.

Transactional semantics of a batch: every statement is resolved against
the storage snapshot the batch opened on, *before* anything is applied.
A statement that fails to resolve (malformed path, no matching node, bad
position) aborts the whole batch with a typed
:class:`~repro.updates.UpdateError` carrying the offending statement —
storage and views untouched.  If the routed stream itself fails mid-way
(cross-statement interference, e.g. a later statement touching a subtree
an earlier one deleted), the unapplied remainder is rolled back
(discarded) and the raised :class:`UpdateError` reports how many storage
operations had been applied.
"""

from __future__ import annotations

import os
import time
from typing import Callable, List, Optional, Union

from ..durability import DurabilityManager, RecoveryReport
from ..multiview.policies import MaintenancePolicy
from ..multiview.registry import MultiViewReport, RefreshEvent, ViewRegistry
from ..obs import Tracer, render_prometheus
from ..storage import StorageManager
from ..updates.errors import UpdateError
from ..xmlmodel import XmlDocument
from ..xquery.parser import XQueryParseError
from ..xquery.updates import evaluate_update, parse_update
from .builder import DocumentUpdater, Update
from .views import Subscription, View

__all__ = ["Batch", "Database"]


class Database:
    """A session over one storage manager and one view registry.

    ``Database()`` owns a fresh :class:`StorageManager`;
    ``Database(storage=...)`` wraps an existing one (the registry
    listener is detached again on :meth:`close`).

    ``Database(durable_path=dir)`` opens a **durable** session: update
    batches are write-ahead logged before they mutate anything, the
    engine state (documents, structural index, view extents, operator
    state) is checkpointed every ``checkpoint_every`` logged records (by
    a forked child, off the request path, in a single-threaded process)
    and on :meth:`checkpoint` / :meth:`close` (inline, durable on
    return), and opening over an existing directory *recovers*
    — newest verified checkpoint restored, WAL tail replayed through
    the normal pipeline, torn trailing records discarded.  ``fsync`` is
    ``"always"`` (a batch acknowledged is a batch on disk), ``"batch"``
    (bounded loss on power failure) or ``"off"``; the resulting
    :class:`~repro.durability.RecoveryReport` is at :attr:`recovery`.
    """

    def __init__(self, storage: Optional[StorageManager] = None, *,
                 durable_path=None, fsync: str = "batch",
                 checkpoint_every: int = 256, durability_fs=None):
        self.storage = (storage if storage is not None
                        else StorageManager())
        self.registry = ViewRegistry(self.storage)
        self._batch: Optional["Batch"] = None
        self._subscriptions: set = set()
        self._closed = False
        self._durability: Optional[DurabilityManager] = None
        self.recovery: Optional[RecoveryReport] = None
        if durable_path is not None:
            manager = DurabilityManager(durable_path, fs=durability_fs,
                                        fsync=fsync,
                                        checkpoint_every=checkpoint_every)
            had_state = manager.has_state()
            if had_state and storage is not None:
                raise ValueError(
                    "cannot wrap an existing StorageManager around a "
                    "durable directory that already holds state; open "
                    "with storage=None to recover it")
            self._durability = manager
            self.recovery = manager.recover(self.registry)
            manager.bind(self.registry)
            if not had_state and self.storage.document_names:
                # A pre-populated StorageManager over a fresh directory:
                # its contents were never logged, so bootstrap a
                # checkpoint covering them before anything else happens.
                manager.checkpoint(self.registry)

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def durable(self) -> bool:
        return self._durability is not None

    @property
    def durability(self) -> Optional[DurabilityManager]:
        """The bound durability manager (None for in-memory sessions)."""
        return self._durability

    def checkpoint(self) -> int:
        """Cut a checkpoint now; returns its LSN (durable sessions only)."""
        if self._durability is None:
            raise RuntimeError(
                "checkpoint() requires a durable session: open the "
                "database with durable_path=...")
        return self._durability.checkpoint(self.registry)

    def close(self) -> None:
        """End the session: flush durable state (final checkpoint + WAL
        sync), cancel subscriptions and detach the registry from storage
        (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for subscription in list(self._subscriptions):
            subscription.cancel()
        if self._durability is not None:
            self._durability.close(self.registry)
            self.registry.wal = None
        self.registry.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- documents ---------------------------------------------------------------------

    def load(self, name: str, source: Union[str, "os.PathLike", XmlDocument]
             ) -> "Database":
        """Register a source document under ``name``.

        ``source`` is XML text, a filesystem path to an XML file, or a
        prepared :class:`XmlDocument`.  Returns the database for
        chaining: ``db.load("bib.xml", BIB).load("prices.xml", PRICES)``.
        """
        if isinstance(source, XmlDocument):
            if source.name != name:
                raise ValueError(
                    f"document is named {source.name!r}, not {name!r}")
            document = source
        else:
            if isinstance(source, str) and source.lstrip().startswith("<"):
                text = source
            else:
                with open(os.fspath(source), "r", encoding="utf-8") as fh:
                    text = fh.read()
            document = XmlDocument.from_string(name, text)
        self.storage.register(document)
        if self.registry.wal is not None:
            self.registry.wal.log_load(name, document)
        return self

    def documents(self) -> List[str]:
        return self.storage.document_names

    # -- views -------------------------------------------------------------------------

    def create_view(self, name: str, query: str,
                    policy: Union[MaintenancePolicy, str, int] = "immediate",
                    *, materialize: bool = True) -> View:
        """Define, register and (by default) materialize a named view.

        ``policy`` is ``"immediate"``, ``"deferred"``, an int K
        (threshold), or a :class:`MaintenancePolicy`.
        """
        self.registry.register(name, query, policy=policy,
                               materialize=materialize)
        return View(self, name)

    def drop_view(self, name: str) -> None:
        self.registry.unregister(name)
        for subscription in list(self._subscriptions):
            if subscription.view_name == name:
                subscription.cancel()

    def views(self) -> List[str]:
        return self.registry.names()

    def view(self, name: str) -> View:
        if name not in self.registry:
            raise KeyError(f"no view named {name!r}")
        return View(self, name)

    def read(self, name: str) -> str:
        """A view's XML, flushing its pending deltas first."""
        return self.registry.query(name)

    def flush(self, name: Optional[str] = None) -> None:
        """Propagate pending deltas of one view (or of all views) now."""
        self.registry.flush(name)

    # -- ad-hoc reads ------------------------------------------------------------------

    def query(self, xquery: str) -> str:
        """Answer an XQuery string; the XML equals a fresh evaluation.

        The registry keeps the extent of up to eight per-item linear
        queries, maintained like hidden deferred views — each batch's Δ
        is computed in its dispatch and fused on the next ask — so asking
        the same text again costs the updates since the last ask.  A
        query that groups, joins or deduplicates is evaluated fresh every
        time (see :meth:`ViewRegistry.ask`).  Kept extents are neither
        views nor durable state — use :meth:`create_view` for those."""
        return self.registry.ask(xquery)

    # -- updates -----------------------------------------------------------------------

    def update(self, document: str) -> DocumentUpdater:
        """Open the fluent path-addressed builder for ``document``."""
        if not self.storage.has_document(document):
            raise KeyError(f"no document named {document!r}; "
                           f"loaded: {self.storage.document_names}")
        return DocumentUpdater(self, document)

    def execute(self, statement: str) -> Update:
        """Submit one XQuery-update statement (the TIHW01 string form).

        The statement is parsed now — malformed input raises
        :class:`UpdateError` at the call site — and resolved against
        storage when it applies (immediately, or at batch flush).  A
        statement whose binding matches nothing is a no-op, mirroring
        the update language's FLWOR semantics.
        """
        try:
            parsed = parse_update(statement)
        except XQueryParseError as exc:
            raise UpdateError(f"malformed update statement: {exc}",
                              statement=statement) from exc
        update = Update(
            "execute", parsed.binding.source, statement=statement,
            require_match=False,
            _resolver=lambda storage, cache=None:
                evaluate_update(parsed, storage, cache))
        return self._submit(update)

    def batch(self) -> "Batch":
        """A transactional batch: ``with db.batch() as batch: ...``
        collects every statement submitted in the block and flushes them
        through the registry as one routed stream on exit."""
        return Batch(self)

    # -- subscriptions -----------------------------------------------------------------

    def subscribe(self, view_name: str,
                  callback: Callable[[RefreshEvent], None], *,
                  deliver_mutations: bool = False) -> Subscription:
        """Call ``callback(event)`` whenever ``view_name`` refreshes.

        With ``deliver_mutations=True`` each *propagate* refresh carries
        the flush's visible extent mutations as JSON-ready records on
        ``event.mutations`` (the delta payload the network server pushes
        over the wire); recompute refreshes carry ``None`` — re-read the
        view.  Callbacks are isolated: one raising neither aborts the
        flush nor starves other subscribers (counted in the
        ``subscriber_errors`` metric family)."""
        if view_name not in self.registry:
            raise KeyError(f"no view named {view_name!r}")
        subscription = Subscription(self, view_name, callback)
        self.registry.add_refresh_listener(
            view_name, subscription._dispatch,
            deliver_mutations=deliver_mutations)
        self._subscriptions.add(subscription)
        return subscription

    # -- observability -----------------------------------------------------------------

    @property
    def tracer(self) -> Tracer:
        return self.registry.tracer

    def metrics(self) -> dict:
        """A structured, JSON-serializable snapshot of every engine
        metric — router classifications, operator-state serves,
        structural-index scans, per-view flush/recompute activity and
        phase timings, statement latency."""
        return self.registry.metrics_snapshot()

    def render_prometheus(self) -> str:
        """The same metrics in Prometheus text exposition format (the
        roadmap's network server mounts this as its scrape endpoint)."""
        return render_prometheus(self.registry.metrics)

    def explain(self, view_name: str) -> str:
        """The view's algebra plan annotated with live per-operator
        counters (tuples in/out in full and delta mode, operator-state
        serves) plus its maintenance stats and work bound."""
        if view_name not in self.registry:
            raise KeyError(f"no view named {view_name!r}")
        return self.registry.explain(view_name)

    def add_trace_sink(self, sink) -> None:
        """Attach a :class:`repro.obs.TraceSink` receiving span-complete
        events from every maintenance pass of this session."""
        self.registry.add_trace_sink(sink)

    def remove_trace_sink(self, sink) -> None:
        self.registry.remove_trace_sink(sink)

    # -- the submission path -----------------------------------------------------------

    def _submit(self, update: Update) -> Update:
        if self._batch is not None:
            self._batch.add(update)
        else:
            self._apply([update])
        return update

    def _apply(self, updates: List[Update]) -> Optional[MultiViewReport]:
        """Resolve every statement against the current snapshot, then
        flush all resolved requests as one routed stream."""
        requests = []
        resolved: list[tuple[Update, list]] = []
        # One navigation cache for the whole flush: every statement
        # resolves against the same pre-apply snapshot, so statements
        # addressing siblings share their path navigation.
        navigation_cache: dict = {}
        for update in updates:
            try:
                batch_requests = update.resolve(self.storage,
                                                navigation_cache)
            except UpdateError as exc:
                if exc.statement is None:
                    exc.statement = update
                raise
            except (ValueError, KeyError) as exc:
                raise UpdateError(
                    f"cannot resolve {update.describe()}: {exc}",
                    statement=update) from exc
            if not batch_requests and update.require_match:
                raise UpdateError(
                    f"{update.describe()} addressed no node",
                    statement=update)
            resolved.append((update, batch_requests))
            requests.extend(batch_requests)

        applied_ops = 0

        def count(op, key):
            nonlocal applied_ops
            applied_ops += 1

        self.storage.add_listener(count)
        started = time.perf_counter()
        try:
            report = self.registry.apply_updates(requests)
        except Exception as exc:
            raise UpdateError(
                f"batch failed after {applied_ops} storage operation(s); "
                f"the unapplied remainder was rolled back: {exc}",
                applied=applied_ops) from exc
        finally:
            self.storage.remove_listener(count)
        metrics = self.registry.metrics
        metrics.counter("db_statements",
                        "Update statements applied").inc(len(updates))
        metrics.histogram(
            "db_apply_seconds",
            "Latency of one statement-submission flush").observe(
                time.perf_counter() - started)
        for update, batch_requests in resolved:
            update.requests = batch_requests
            update.applied = True
            update.report = report
        return report


class Batch:
    """Collects update statements and flushes them transactionally.

    Statements submitted inside the ``with`` block — builder statements
    and :meth:`Database.execute` strings alike — are queued, then
    resolved together against the snapshot and applied through
    :meth:`ViewRegistry.apply_updates` as one routed stream when the
    block exits.  An exception inside the block discards the queue
    (nothing is applied); a resolution failure at flush rolls the whole
    batch back and re-raises as :class:`UpdateError`.
    """

    def __init__(self, db: Database):
        self._db = db
        self.updates: List[Update] = []
        self.report: Optional[MultiViewReport] = None

    def add(self, update: Update) -> None:
        self.updates.append(update)

    def __len__(self) -> int:
        return len(self.updates)

    def __iter__(self):
        return iter(self.updates)

    def __enter__(self) -> "Batch":
        if self._db._batch is not None:
            raise RuntimeError("a batch is already open on this database")
        self._db._batch = self
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self._db._batch = None
        if exc_type is not None:
            self.updates.clear()   # abort: nothing was applied
            return False
        if self.updates:
            self.report = self._db._apply(self.updates)
        return False
