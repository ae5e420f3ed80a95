"""Persistent per-view operator state (the Chapter 7 enable-cost escape).

Without persistent state, every maintenance pass re-derives the *unchanged*
side of the bilinear join expansion ``Δ(A ⋈ B) = ΔA ⋈ B_new ∪ A_old ⋈ ΔB``
from scratch: the per-run :class:`~repro.xat.base.ExecutionContext` memo
dies with the run, so FULL-mode side evaluation re-scans the document
and rebuilds its hash index on every batch — O(document) per batch, exactly
the regime the paper's propagation equations promise to escape.

:class:`OperatorStateStore` persists, from one maintenance run to the next,

* **FULL-mode result tables** of stable (uncorrelated) subplans, keyed by a
  canonical structural signature so views with structurally-equal subplans
  share one entry (the registry hands every pipeline the same store, like
  the shared validation router);
* **hash-join side indexes** over those tables, keyed by the join's
  existing equi-key columns and maintained alongside the table — each
  index holds, per probe key, the bucket of tuples *and* their net count
  (the key's *support*), so a rule that only asks "does this key still
  match anything" reads one integer instead of summing the bucket;
* **Group By count state** — a cached Group By table is patched through
  its group/member merge rule
  (:meth:`~repro.xat.base.XatOperator.state_apply`) instead of being
  re-executed (no entry is rooted at Combine or Aggregate: they occur
  only in single-tuple constructor content, above every join); and
* **Distinct support** — not a second kind of state: the Distinct delta
  rule reads the support its *input*'s side index maintains per value to
  tell whether a batch moves a value across zero.

Every Δ rule reads the other side of ``Δ(A ⋈ B)`` through one entry
point, :meth:`OperatorStateStore.side`: it asks for the side's *new* or
*old* state and never names a mode.  There is one rule, as in DBSP's
join against its integrated trace: a batch's inserts and modifies
reach storage before it propagates and its deletes after, so the stored
table is a side's new state under an insert or a modify and its old
state under a delete; the other state is that table ± the side's own
counted Δ (a :class:`~repro.xat.relational.DiffSideHandle`).  The table
is served through a :class:`StoredSideHandle` — hash probe and support
counter for an equi side, the table for a theta side.  The only side
the store cannot hold — one with a ``Map`` in it, which refuses Δ
evaluation and so never sources the batch's document — has one state,
its FULL table, evaluated for the run.

There is one entry per stored **row set**.  A subplan that only adds a
constructed column to its input's rows — a ``Tagger`` on an equi-join
side, whose probe keys its input already holds — gets none: its side is
served through its input's entry, the constructed row built as one more
view of the bucket row, so two views probing the same persons, one for
``$p/name`` and one for ``<entry>{$p/name}</entry>``, share one table,
one index and one patch.

Cached tables always mirror *current storage* — the same state live
FULL-mode execution reads.  They are kept current *incrementally*: the
store listens to :class:`~repro.storage.StorageManager` mutations (with
the pre-deletion tag path, so relevancy survives the key drop) and

* **ignores** mutations irrelevant to an entry's own mini-SAPT (an
  unrelated update stream leaves warm state warm);
* **patches** an entry whose stale mutations belong to the batch being
  propagated, by applying the subplan's *own* delta-mode output
  (O(batch), the Z-semantics merge of Chapter 6).  Batches are told
  apart by their dispatch **epoch** — every storage event and every
  :class:`~repro.xat.base.DeltaSpec` of one run carries it — so events
  of one batch stack, and a relevant event of a second batch
  invalidates: a stale table lags storage by at most one epoch;
* **invalidates** and lazily recomputes otherwise — the safe fallback
  mirroring a view's incremental-vs-recompute work bound.

Deletes propagate before they reach storage, so a delete-phase serve
*stages* the entry's patch and commits it when the run's deferred
deletion events arrive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..updates.sapt import Sapt
from ..xat.base import (DELETE, DELTA, FULL, DeltaSpec, XatOperator,
                        subplan_signature)
from ..xat.construction import Map, Tagger, VariableBinding
from ..xat.relational import (DiffSideHandle, TransientSideHandle,
                              _hash_keys)
from ..xat.table import XatTable, XatTuple

__all__ = ["OperatorStateStore", "StoreStats", "subplan_signature"]


def _cacheable(op: XatOperator) -> bool:
    """Only storage-determined subplans may persist (no correlation)."""
    cached = getattr(op, "_state_cacheable", None)
    if cached is None:
        cached = (not isinstance(op, (Map, VariableBinding))
                  and all(_cacheable(child) for child in op.inputs))
        op._state_cacheable = cached
    return cached


# -- patch plans -------------------------------------------------------------------------

@dataclass
class _PlannedOp:
    verb: str                     # "insert" | "replace" | "remove"
    fingerprint: tuple
    new_tuple: Optional[XatTuple]
    # per index-columns probe-key *list* of ``new_tuple``, precomputed
    # while storage is alive (delete patches commit after the deletion);
    # multi-item key cells hash under several keys.  The replaced tuple
    # leaves its buckets under the keys recorded when it was indexed.
    keys: dict = field(default_factory=dict)


class _PatchPlan:
    """A staged table patch: validated against the entry, committed later.

    Two-phase so that a delete-phase serve can compute the post-delete
    state *during* the run (while the doomed subtrees are still readable)
    and commit it when the deferred storage deletions actually happen.
    """

    def __init__(self, spec: DeltaSpec, unstageable: bool = False):
        self.spec = spec
        self.ops: list[_PlannedOp] = []
        self.applied = False
        #: the delta could not be validated against the entry — the plan
        #: is a tombstone that invalidates the entry when its deletions
        #: arrive instead of patching it
        self.unstageable = unstageable

    def covers(self, key, epoch: int) -> bool:
        """Whether a deletion event of dispatch ``epoch`` is one this
        plan was staged for."""
        return epoch == self.spec.epoch and self.spec.classify(key) == "at"

    def add_keys_for(self, cols, ctx) -> None:
        """Precompute the new tuples' probe keys for an index (storage
        alive)."""
        for planned in self.ops:
            if cols not in planned.keys and planned.new_tuple is not None:
                planned.keys[cols] = _hash_keys(planned.new_tuple, cols,
                                                 ctx)


# -- one cached subplan ------------------------------------------------------------------

class _IndexDesync(Exception):
    """A side index does not hold a tuple its table does."""


class CachedEntry:
    """One persisted FULL-mode table (plus side indexes) of a subplan."""

    def __init__(self, signature: str, op: XatOperator):
        self.signature = signature
        self.op = op
        self.stats = StoreStats()   # this signature's share of the store's
        self.docs = op.source_documents()
        self.sapt = Sapt.from_plan(op)
        self.schema = op.schema
        self.table: Optional[XatTable] = None
        self.fingerprints: dict = {}           # fingerprint -> tuple
        self._fp_of: dict = {}                 # id(tuple) -> fingerprint
        self._pos: dict = {}                   # id(tuple) -> table position
        self.indexes: dict = {}                # cols -> {probe key: [tuples]}
        # cols -> {probe key: net count of its bucket}: maintained with
        # the bucket in _add / _remove / index_for, never re-summed
        self.supports: dict = {}
        # id(tuple) -> {cols: keys it is indexed under}.  Removal must use
        # the keys recorded at insertion: recomputing them against current
        # storage is wrong whenever the values changed since (a modify
        # patch removes the old tuple *after* the text was replaced).
        self._indexed_keys: dict = {}
        self.stale: list = []                  # [(kind, FlexKey)]
        self.stale_epoch = 0                   # the dispatch ``stale`` is of
        self.valid = False
        self.prepared: Optional[_PatchPlan] = None

    # -- population ----------------------------------------------------------------------

    def populate(self, table: XatTable, ctx) -> bool:
        """Adopt a freshly-computed FULL table (fingerprint-folded copy).

        Value-identical tuples fold into one tuple with summed counts —
        the semantic-id discipline already treats them as one derivation
        group, and folding is what makes later count patches exact.
        """
        self.table = XatTable(self.schema)
        self.fingerprints.clear()
        self._fp_of.clear()
        self._pos.clear()
        self.indexes.clear()
        self.supports.clear()
        self._indexed_keys.clear()
        self.stale.clear()
        self.prepared = None
        op = self.op
        for tup in table.tuples:
            fp = op.state_merge_key(tup, ctx)
            existing = self.fingerprints.get(fp)
            if existing is None:
                self._add(fp, XatTuple(dict(tup.cells), tup.count,
                                       False, False))
            else:
                existing.count += tup.count
        self.valid = True
        return True

    # -- table/index primitives ----------------------------------------------------------

    def _add(self, fp, tup: XatTuple, keys: Optional[dict] = None,
             ctx=None) -> None:
        self.fingerprints[fp] = tup
        self._fp_of[id(tup)] = fp
        self._pos[id(tup)] = len(self.table.tuples)
        self.table.tuples.append(tup)
        for cols, index in self.indexes.items():
            tup_keys = self._keys_for(tup, cols, keys, ctx)
            self._indexed_keys.setdefault(id(tup), {})[cols] = tup_keys
            self._index(index, self.supports[cols], tup, tup_keys)

    @staticmethod
    def _index(index: dict, support: dict, tup: XatTuple,
               tup_keys: list) -> None:
        for key in tup_keys:
            index.setdefault(key, []).append(tup)
            support[key] = support.get(key, 0) + tup.count

    def _remove(self, fp) -> None:
        tup = self.fingerprints.pop(fp)
        self._fp_of.pop(id(tup))
        pos = self._pos.pop(id(tup))
        tuples = self.table.tuples
        last = tuples.pop()
        if last is not tup:           # swap-remove: tables are bags
            tuples[pos] = last
            self._pos[id(last)] = pos
        recorded = self._indexed_keys.pop(id(tup), None)
        for cols, index in self.indexes.items():
            if recorded is None or cols not in recorded:
                raise _IndexDesync(cols)
            tup_keys = recorded[cols]
            support = self.supports[cols]
            for key in tup_keys:
                try:
                    bucket = index[key]
                    bucket.remove(tup)
                except (KeyError, ValueError):
                    # The index lost track of a tuple it should hold:
                    # bucket and counter can no longer be trusted.
                    raise _IndexDesync(key) from None
                if bucket:
                    support[key] -= tup.count
                else:
                    del index[key], support[key]

    def _replace(self, fp, new_tup: XatTuple,
                 keys: Optional[dict] = None, ctx=None) -> None:
        """Swap ``new_tup`` in for the tuple under ``fp``, in place: it
        takes the old tuple's table slot and, under every probe key the
        two share, its bucket position; it leaves (joins) a bucket only
        under a key it lost (gained)."""
        old = self.fingerprints[fp]
        self.fingerprints[fp] = new_tup
        del self._fp_of[id(old)]
        self._fp_of[id(new_tup)] = fp
        pos = self._pos.pop(id(old))
        self._pos[id(new_tup)] = pos
        self.table.tuples[pos] = new_tup
        recorded = self._indexed_keys.pop(id(old), None)
        if not self.indexes:
            return
        placed = self._indexed_keys[id(new_tup)] = {}
        for cols, index in self.indexes.items():
            if recorded is None or cols not in recorded:
                raise _IndexDesync(cols)
            old_keys = recorded[cols]
            new_keys = placed[cols] = self._keys_for(new_tup, cols, keys,
                                                      ctx)
            support = self.supports[cols]
            for key in old_keys:
                bucket = index.get(key)
                try:
                    slot = bucket.index(old)
                except (AttributeError, ValueError):
                    # The index lost track of a tuple it should hold.
                    raise _IndexDesync(key) from None
                if key in new_keys:
                    bucket[slot] = new_tup
                    support[key] += new_tup.count - old.count
                    continue
                del bucket[slot]
                if bucket:
                    support[key] -= old.count
                else:
                    del index[key], support[key]
            for key in new_keys:
                if key not in old_keys:
                    index.setdefault(key, []).append(new_tup)
                    support[key] = support.get(key, 0) + new_tup.count

    def _keys_for(self, tup, cols, keys, ctx) -> list:
        if keys is not None and cols in keys:
            return keys[cols]
        if ctx is None:
            return []
        return _hash_keys(tup, cols, ctx)

    def index_for(self, cols: tuple, ctx) -> dict:
        """The persistent equi-key index over the cached table."""
        index = self.indexes.get(cols)
        if index is None:
            index = {}
            support = self.supports[cols] = {}
            for tup in self.table.tuples:
                tup_keys = _hash_keys(tup, cols, ctx)
                self._indexed_keys.setdefault(id(tup), {})[cols] = tup_keys
                self._index(index, support, tup, tup_keys)
            self.indexes[cols] = index
            if self.prepared is not None:
                # A staged delete patch must learn this index's keys while
                # the doomed subtrees are still readable.
                self.prepared.add_keys_for(cols, ctx)
        return index

    # -- delta patching ------------------------------------------------------------------

    def stage(self, delta: XatTable, spec: DeltaSpec,
              ctx) -> Optional[_PatchPlan]:
        """Validate a delta against the entry; None when it cannot apply.

        The plan is computed against an overlay (pending verbs win over
        committed state) so several delta tuples hitting one fingerprint
        compose; nothing is mutated until :meth:`commit`.
        """
        plan = _PatchPlan(spec)
        pending: dict = {}
        op = self.op
        cols_list = list(self.indexes)
        for dt in delta.tuples:
            if dt.count == 0 and not dt.refresh:
                continue
            fp = op.state_merge_key(dt, ctx)
            planned = pending.get(fp)
            if planned is not None and planned.verb != "remove":
                existing = planned.new_tuple
            elif planned is not None:
                existing = None
            else:
                existing = self.fingerprints.get(fp)
            verb, new_tup = op.state_apply(existing, dt, ctx)
            if verb == "fail":
                return None
            if verb == "noop":
                continue
            base_exists = fp in self.fingerprints
            if planned is None:
                planned = _PlannedOp(verb, fp, new_tup)
                pending[fp] = planned
                plan.ops.append(planned)
            else:
                planned.new_tuple = new_tup
                planned.verb = verb
            # Normalize the verb against the *committed* state.
            if planned.verb == "insert" and base_exists:
                planned.verb = "replace"
            elif planned.verb == "replace" and not base_exists:
                planned.verb = "insert"
            elif planned.verb == "remove" and not base_exists:
                planned.verb = "drop"   # inserted and removed within plan
        plan.ops = [p for p in plan.ops if p.verb != "drop"]
        for cols in cols_list:
            plan.add_keys_for(cols, ctx)
        return plan

    def commit(self, plan: _PatchPlan, ctx=None) -> bool:
        """Apply a staged plan.  False when a side index turned out not
        to hold a tuple it should: the entry is left invalid (the caller
        counts the invalidation; the table recomputes on next use)."""
        try:
            for planned in plan.ops:
                if planned.verb == "insert":
                    self._add(planned.fingerprint, planned.new_tuple,
                              planned.keys, ctx)
                elif planned.verb == "replace":
                    self._replace(planned.fingerprint, planned.new_tuple,
                                  planned.keys, ctx)
                else:  # remove
                    self._remove(planned.fingerprint)
        except _IndexDesync:
            self.invalidate()
            return False
        plan.applied = True
        return True

    # -- invalidation --------------------------------------------------------------------

    def invalidate(self) -> None:
        self.valid = False
        self.table = None
        self.fingerprints.clear()
        self._fp_of.clear()
        self._pos.clear()
        self.indexes.clear()
        self.supports.clear()
        self._indexed_keys.clear()
        self.stale.clear()
        self.prepared = None

    def stale_covered_by(self, spec: DeltaSpec) -> bool:
        return spec.epoch == self.stale_epoch and all(
            kind == spec.phase and spec.classify(key) == "at"
            for kind, key in self.stale)

    def drop_stale_prepared(self, spec: DeltaSpec) -> None:
        """Expire a staged delete patch of an earlier dispatch.

        Unapplied means its deletions never arrived — storage is
        unchanged and the table still mirrors it; applied means it is
        spent.  A plan of ``spec``'s own epoch stays, whichever view's
        routed subset staged it: one staging per entry per batch.
        """
        if self.prepared is not None \
                and self.prepared.spec.epoch != spec.epoch:
            self.prepared = None

    def on_mutation(self, kind: str, key, tags: tuple, document: str,
                    epoch: int) -> None:
        """One storage mutation on a document this entry sources, made
        in dispatch ``epoch`` (inserts and modifies land just before
        their run is dispatched, deletions inside it)."""
        if not self.valid:
            return
        if self.prepared is not None and kind == DELETE \
                and self.prepared.covers(key, epoch):
            # The deferred deletions this entry's staged patch was
            # computed for: commit once, absorb the remaining events.
            if self.prepared.unstageable:
                self.invalidate()
            elif not self.prepared.applied:
                self.commit(self.prepared)
            return
        if not self.sapt.relevant_for_tags(document, tags):
            return  # unrelated traffic leaves warm state warm
        if kind == DELETE or (self.stale and epoch != self.stale_epoch):
            # Deletion events arrive after the subtree is gone — too late
            # to derive a delta; and no one spec covers the events of two
            # batches.  Recompute lazily on next use.
            self.invalidate()
            return
        # Events of one batch stack: its spec's Δ reads final storage.
        self.stale_epoch = epoch
        self.stale.append((kind, key))


# -- the stored side handle --------------------------------------------------------------

class StoredSideHandle:
    """A join side served from its persistent entry: probe, support and
    scan over the entry's table and index.

    A Tagger equi side served through its input's entry (``taggers``,
    innermost last) hands each bucket row back with its constructed
    column added.  That row is built on first use and kept for the
    handle's lifetime, so repeated probes hand back the *same* object
    per row — consumers (the LOJ dangling corrections) dedupe matches by
    identity — and pay the construction once, not per probe.
    """

    def __init__(self, store: "OperatorStateStore", entry: CachedEntry,
                 ctx, cols: Optional[tuple], taggers: tuple = ()):
        self._store = store
        self._entry = entry
        self._ctx = ctx
        self._taggers = taggers
        self.cols = cols
        self._table: Optional[XatTable] = None
        # id(bucket row) -> (the row, its constructed row); holding the
        # row keeps its id from being reused while the handle lives
        self._views: dict[int, tuple] = {}

    def _view(self, tup: XatTuple) -> XatTuple:
        held = self._views.get(id(tup))
        if held is None:
            view = tup
            for tagger in reversed(self._taggers):
                view = tagger.construct(view, self._ctx)
            held = self._views[id(tup)] = (tup, view)
        return held[1]

    def table(self) -> XatTable:
        """The entry's table, or its constructed rows (a theta side is
        scanned)."""
        if self._table is None:
            table = self._entry.table
            if self._taggers:
                table = XatTable(self._taggers[0].schema,
                                 [self._view(tup) for tup in table.tuples])
            self._table = table
        return self._table

    def probe(self, key) -> list:
        bucket = self._entry.index_for(self.cols, self._ctx).get(key)
        if not bucket:
            return []
        if not self._taggers:
            return list(bucket)
        return [self._view(tup) for tup in bucket]

    def support(self, key) -> int:
        """Net count of the tuples under ``key``: the maintained counter."""
        entry = self._entry
        entry.index_for(self.cols, self._ctx)
        self._store.tally(entry, "support_probes")
        return entry.supports[self.cols].get(key, 0)

    def scanned(self, rows: int) -> None:
        self._store.tally(self._entry, "bucket_rows_scanned", rows)


# -- the store ---------------------------------------------------------------------------

@dataclass
class StoreStats:
    """Cumulative serve/patch activity of one store."""

    hits: int = 0          # serves satisfied from cached state
    misses: int = 0        # serves that had to (re)compute the table
    patches: int = 0       # cached tables patched from a batch delta
    invalidations: int = 0  # entries dropped by the listener / fallback
    support_probes: int = 0       # supports answered from a counter
    bucket_rows_scanned: int = 0  # rows summed where no counter serves

    def snapshot(self) -> tuple:
        return (self.hits, self.misses, self.patches, self.invalidations)

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "patches": self.patches,
                "invalidations": self.invalidations,
                "support_probes": self.support_probes,
                "bucket_rows_scanned": self.bucket_rows_scanned}


class OperatorStateStore:
    """Cross-run operator state for the V-P-A pipeline (see module doc)."""

    def __init__(self, storage):
        self.storage = storage
        #: the dispatch epoch storage events are stamped with; the view
        #: registry stamps each run with it and advances it after
        self.epoch = 0
        self.stats = StoreStats()
        self._entries: dict[str, CachedEntry] = {}
        self._by_doc: dict[str, list[CachedEntry]] = {}
        self._attached = False
        storage.add_mutation_listener(self._on_mutation)
        self._attached = True

    # -- lifecycle -----------------------------------------------------------------------

    def close(self) -> None:
        """Detach from the storage manager (idempotent)."""
        if self._attached:
            self.storage.remove_mutation_listener(self._on_mutation)
            self._attached = False

    def __enter__(self) -> "OperatorStateStore":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def invalidate_all(self) -> None:
        """Drop every cached table (they rebuild lazily on next use)."""
        for entry in self._entries.values():
            if entry.valid:
                entry.invalidate()
                self.tally(entry, "invalidations")

    def tally(self, entry: CachedEntry, counter: str, by: int = 1) -> None:
        """Advance one :class:`StoreStats` counter on the store and on
        ``entry`` — its signature's share, shown in EXPLAIN."""
        self.stats.__dict__[counter] += by
        entry.stats.__dict__[counter] += by

    def entry_count(self) -> int:
        return len(self._entries)

    def entries(self):
        return list(self._entries.values())

    def per_signature(self) -> dict:
        """Serve statistics per cached-subplan signature — the live
        EXPLAIN and metric snapshots key on this to show which state
        store entries are thrashing (miss/invalidate churn) and which
        are pulling their weight (hit/patch ratio)."""
        out = {}
        for signature, entry in self._entries.items():
            stats = entry.stats.as_dict()
            stats["valid"] = entry.valid
            stats["rows"] = (len(entry.table.tuples)
                             if entry.valid and entry.table is not None
                             else None)
            stats["stale"] = len(entry.stale)
            stats["operator"] = type(entry.op).__name__
            out[signature] = stats
        return out

    # -- the mutation listener -----------------------------------------------------------

    def _on_mutation(self, kind: str, key, tags: tuple) -> None:
        try:
            document = self.storage.document_of_key(key)
        except KeyError:
            return
        for entry in self._by_doc.get(document, ()):
            was_valid = entry.valid
            entry.on_mutation(kind, key, tags, document, self.epoch)
            if was_valid and not entry.valid:
                self.tally(entry, "invalidations")

    # -- serving -------------------------------------------------------------------------

    def side(self, ctx, op: XatOperator, cols, *, old: bool = False):
        """The state of the join side ``op`` a Δ rule under ``ctx``'s run
        reads — its *new* state, or with ``old`` its pre-batch one — as
        a handle probed under ``cols`` (None: a theta side, scanned).

        One rule: a batch's inserts and modifies are in storage before
        it propagates and its deletes only after, so the side's stored
        table (kept current by :meth:`_ensure_current`) is its new state
        under an insert or a modify and its old state under a delete.
        The other state — old under an insert or a modify, new under a
        delete — is that table minus (plus) the side's own counted Δ, a
        :class:`~repro.xat.relational.DiffSideHandle` over rows the
        pass has normally already computed.  A Tagger equi side whose
        probe keys its input already holds is served through its input's
        entry (one entry per row set).  A side the store cannot hold (a
        ``Map`` subtree) never sources the batch's document — ``Map``
        refuses Δ evaluation — so both its states are its FULL table.
        """
        spec = ctx.delta
        cols = tuple(cols) if cols is not None else None
        stored, taggers = op, []
        while (cols is not None and isinstance(stored, Tagger)
               and stored.out not in cols):
            taggers.append(stored)
            stored = stored.inputs[0]
        entry = self._ensure_current(ctx, stored)
        if entry is None:
            return TransientSideHandle(ctx, cols,
                                       table=ctx.evaluate(op, FULL),
                                       stats=self.stats)
        handle = StoredSideHandle(self, entry, ctx, cols, tuple(taggers))
        if old != (spec.phase == DELETE) \
                and spec.document in op.source_documents():
            counted = [t for t in ctx.evaluate(op, DELTA).tuples
                       if t.count and not t.refresh]
            if counted:
                return DiffSideHandle(handle, counted, ctx,
                                      -1 if old else 1, op.schema.columns)
        return handle

    def _ensure_current(self, ctx, op: XatOperator
                        ) -> Optional[CachedEntry]:
        if not _cacheable(op):
            return None
        spec = ctx.delta
        signature = subplan_signature(op)
        entry = self._entries.get(signature)
        if entry is None:
            entry = CachedEntry(signature, op)
            self._entries[signature] = entry
            for document in entry.docs:
                self._by_doc.setdefault(document, []).append(entry)
        entry.drop_stale_prepared(spec)
        if not entry.valid:
            self._recompute(ctx, op, entry)
        elif entry.stale:
            if entry.stale_covered_by(spec):
                delta = ctx.evaluate(op, DELTA)
                plan = entry.stage(delta, spec, ctx)
                if plan is not None and entry.commit(plan, ctx):
                    entry.stale.clear()
                    self.tally(entry, "patches")
                    self.tally(entry, "hits")
                else:
                    entry.invalidate()
                    self.tally(entry, "invalidations")
                    self._recompute(ctx, op, entry)
            else:
                entry.invalidate()
                self.tally(entry, "invalidations")
                self._recompute(ctx, op, entry)
        else:
            self.tally(entry, "hits")
        if spec.phase == DELETE and spec.document in entry.docs \
                and entry.prepared is None:
            # Deletes reach storage only after propagation: stage the
            # post-delete state now, commit when the events arrive.
            delta = ctx.evaluate(op, DELTA)
            plan = entry.stage(delta, spec, ctx)
            if plan is None:
                # Unstageable: the deletion events invalidate the entry
                # instead of patching it (safe recompute fallback).
                plan = _PatchPlan(spec, unstageable=True)
            entry.prepared = plan
        return entry

    def _recompute(self, ctx, op: XatOperator, entry: CachedEntry) -> None:
        table = ctx.evaluate(op, FULL)
        entry.populate(table, ctx)
        self.tally(entry, "misses")

    # -- end-of-pass reconciliation ------------------------------------------------------

    def reconcile(self, spec: DeltaSpec, memo: dict) -> None:
        """Bring every entry this batch touched current, served or not.

        A one-sided batch only *serves* the untouched side (the delta
        side's own entry is never asked for its state), so its stale
        entries would otherwise linger until an unrelated later batch
        finds them uncoverable and recomputes.  Called by the engine
        after the first delta pass under ``spec`` — and, for delete
        batches, *before* the deferred deletions reach storage, so
        unserved entries can still stage their post-delete patch from
        the live subtrees.  ``memo`` is that pass's register file: an
        entry's Δ is read from it where the pass (or an earlier entry)
        already computed it, and evaluated into it otherwise.
        """
        from ..xat.base import ExecutionContext

        ctx = ExecutionContext(self.storage, mode=DELTA, delta=spec,
                               store=self)
        ctx.memo = memo
        for entry in list(self._by_doc.get(spec.document, ())):
            if not entry.valid:
                continue
            entry.drop_stale_prepared(spec)
            if spec.phase == DELETE:
                if entry.prepared is not None:
                    continue
                if not any(entry.sapt.relevant_for_tags(
                        spec.document, self.storage.tag_path(root.key))
                        for root in spec.roots):
                    continue  # the deletion events will be ignored anyway
                delta = ctx.evaluate(entry.op, DELTA)
                plan = entry.stage(delta, spec, ctx)
                entry.prepared = (plan if plan is not None
                                  else _PatchPlan(spec, unstageable=True))
            elif entry.stale and entry.stale_covered_by(spec):
                delta = ctx.evaluate(entry.op, DELTA)
                plan = entry.stage(delta, spec, ctx)
                if plan is not None and entry.commit(plan, ctx):
                    entry.stale.clear()
                    self.tally(entry, "patches")
                else:
                    entry.invalidate()
                    self.tally(entry, "invalidations")
