"""View handles and refresh subscriptions for the session API."""

from __future__ import annotations

import time
from typing import Callable

from ..multiview.registry import RefreshEvent

__all__ = ["Subscription", "View"]


class View:
    """A named materialized view under :class:`~repro.api.Database`
    maintenance — a key-free handle over the registry's registered view."""

    def __init__(self, db, name: str):
        self._db = db
        self.name = name

    @property
    def _registered(self):
        return self._db.registry.view(self.name)

    @property
    def query_text(self) -> str:
        return self._registered.query_text

    @property
    def policy(self):
        return self._registered.policy

    @property
    def stats(self):
        return self._registered.stats

    def read(self) -> str:
        """The view's XML, flushing pending deltas first (the lazy flush
        point of deferred/threshold policies)."""
        return self._db.registry.query(self.name)

    def peek(self) -> str:
        """The current extent *without* flushing (deferred views may be
        stale by design)."""
        return self._db.registry.to_xml(self.name)

    def recompute(self) -> str:
        """Full recomputation over current sources — the correctness
        oracle; the maintained extent is untouched."""
        return self._db.registry.recompute_xml(self.name)

    def pending_trees(self) -> int:
        return self._registered.pending_trees()

    def subscribe(self, callback: Callable[[RefreshEvent], None], *,
                  deliver_mutations: bool = False) -> "Subscription":
        return self._db.subscribe(self.name, callback,
                                  deliver_mutations=deliver_mutations)

    def drop(self) -> None:
        self._db.drop_view(self.name)

    def __repr__(self) -> str:
        return f"<View {self.name!r} policy={self.policy.kind}>"


class Subscription:
    """One ``db.subscribe(view, callback)`` registration.

    The callback receives every :class:`~repro.multiview.RefreshEvent`
    of the subscribed view — fired when maintenance changes its extent,
    whether triggered by an update stream, a read of a deferred view, or
    an explicit flush.  ``cancel()`` is idempotent.
    """

    def __init__(self, db, view_name: str,
                 callback: Callable[[RefreshEvent], None]):
        self._db = db
        self.view_name = view_name
        self.callback = callback
        self.active = True
        metrics = db.registry.metrics
        self._callbacks = metrics.counter(
            "subscriber_callbacks",
            "Refresh events delivered to subscribers", view=view_name)
        self._callback_seconds = metrics.histogram(
            "subscriber_callback_seconds",
            "Time spent inside subscriber callbacks", view=view_name)

    def _dispatch(self, event: RefreshEvent) -> None:
        """The registry's per-view listener: only this view's events
        arrive here."""
        if not self.active:
            return
        self._callbacks.inc()
        started = time.perf_counter()
        try:
            self.callback(event)
        finally:
            self._callback_seconds.observe(time.perf_counter() - started)

    def cancel(self) -> None:
        if not self.active:
            return
        self.active = False
        self._db.registry.remove_refresh_listener(self.view_name,
                                                  self._dispatch)
        self._db._subscriptions.discard(self)

    def __repr__(self) -> str:
        state = "active" if self.active else "cancelled"
        return f"<Subscription {self.view_name!r} [{state}]>"
