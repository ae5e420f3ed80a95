"""Operator base class and execution context for the XAT algebra.

Execution modes (used by the Propagate phase, Chapter 7):

* ``full``  — evaluate over the current storage state (normal execution);
* ``delta`` — evaluate the *change*: navigation only follows paths that
  intersect an update root of the batch being propagated.

A binary join-like operator whose both subtrees reference the updated
document expands ``Δ(A ⋈ B)`` bilinearly (the combined 3-term form of
Fig 7.2), reading B as stored in the ΔA term and A on the far side of
the batch in the ΔB term.  A rule never evaluates the other side: it
asks the operator-state store's ``side`` for it.  Inserts and modifies
are applied to storage before propagation and deletes after (Chapter
6), so the stored table is the new state under an insert or a modify
and the old one under a delete, and the side's own Δ gives the other:

===========  ==========================  ==========================
phase        ΔA term                     ΔB term
===========  ==========================  ==========================
insert       ΔA ⋈ B_new (table)          A_old (table − ΔA) ⋈ ΔB
delete       ΔA ⋈ B_old (table)          A_new (table + ΔA) ⋈ ΔB
modify       ΔA ⋈ B_new (table)          A_old (table − ΔA) ⋈ ΔB
===========  ==========================  ==========================
"""

from __future__ import annotations

import copy as _copy
import itertools
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..flexkeys import FlexKey
from ..storage import StorageManager
from .table import AtomicItem, TableSchema, XatTable, XatTuple

FULL = "full"
DELTA = "delta"

INSERT = "insert"
DELETE = "delete"
MODIFY = "modify"

_SIGNS = {INSERT: 1, DELETE: -1, MODIFY: 0}


class PlanError(RuntimeError):
    """Raised for malformed plans or unsupported maintenance situations."""


@dataclass(frozen=True)
class DeltaRoot:
    """One update root inside the batch update tree: a key plus its type.

    A *first-class modify* root additionally carries the replaced text as
    an ``(old_value, new_value)`` pair; delta navigation then emits a
    paired retraction (old value, count -1) and assertion (new value,
    count +1) instead of a count-neutral refresh.  Sufficient modifies
    (values that feed no predicate/sort key) leave the pair unset.

    ``old_texts`` is None when the modify kept the target's one text node
    (and its key); otherwise it holds the ``(key, text)`` of each direct
    text child the modify replaced — none for empty content — which is
    what a ``text()`` step read before the batch.
    """

    key: FlexKey
    kind: str  # INSERT / DELETE / MODIFY
    old_value: Optional[str] = None
    new_value: Optional[str] = None
    old_texts: Optional[tuple] = None

    @property
    def sign(self) -> int:
        return _SIGNS[self.kind]

    @property
    def has_pair(self) -> bool:
        return self.kind == MODIFY and self.old_value is not None

    def old_items(self, key: FlexKey) -> list:
        """The ``text()`` items of this pair root (at ``key``) before the
        batch, as the retraction half re-reads them."""
        if self.old_texts is None:
            return [AtomicItem(self.old_value, source_key=key)]
        return [AtomicItem(text, source_key=text_key)
                for text_key, text in self.old_texts]


@dataclass
class DeltaSpec:
    """The batch being propagated: one document, homogeneous update kind.

    ``epoch`` names the dispatch the batch's run went out in (the
    operator-state store's counter): every spec built for one run — any
    view's routed subset — carries the same epoch, and the storage events
    of that run carry it too, so the store tells batches apart by it,
    never by roots.

    Every key query below is pure in the (immutable) root set, yet one
    propagation pass asks them of the same few keys from every operator,
    so each answer is memoized per spec under the key's value string — a
    key and its bare form share it, so a hit costs one probe and no
    allocation (``old_text`` too: within one pass the pre-batch text of a
    node is fixed by the pair roots).  :meth:`node_text` memoizes the
    current text of a node the same way, and ``seek_memo`` the targets a
    delta-mode navigation step seeks from a frontier key: storage is
    fixed while a spec is live (``docs/PLAN_IR.md``, I1).
    """

    document: str
    roots: tuple[DeltaRoot, ...]
    phase: str  # INSERT / DELETE / MODIFY
    epoch: int = 0
    #: whether any root of this batch is a first-class modify
    has_pairs: bool = field(init=False, repr=False, compare=False)
    _classify_memo: dict = field(default_factory=dict, repr=False,
                                 compare=False)
    _sign_memo: dict = field(default_factory=dict, repr=False,
                             compare=False)
    _pair_memo: dict = field(default_factory=dict, repr=False,
                             compare=False)
    _below_memo: dict = field(default_factory=dict, repr=False,
                              compare=False)
    _old_text_memo: dict = field(default_factory=dict, repr=False,
                                 compare=False)
    _text_memo: dict = field(default_factory=dict, repr=False,
                             compare=False)
    #: ``(entry key value, axis, test, is_first) -> targets`` of the
    #: delta-mode seek (``navigation._related_targets``): pure in the
    #: roots and in storage, which is fixed while the spec is live
    seek_memo: dict = field(default_factory=dict, repr=False,
                            compare=False)

    def __post_init__(self):
        self.has_pairs = (self.phase == MODIFY
                          and any(r.has_pair for r in self.roots))

    def classify(self, key: FlexKey) -> Optional[str]:
        """How ``key`` relates to the update roots.

        Returns ``"at"`` (at or below a root), ``"ancestor"`` (proper
        ancestor of a root) or ``None`` (unrelated).
        """
        result = self._classify_memo.get(key.value, _MISS)
        if result is not _MISS:
            return result
        bare = key.without_override()
        result = None
        for root in self.roots:
            if root.key == bare or root.key.is_ancestor_of(bare):
                result = "at"
                break
        else:
            for root in self.roots:
                if bare.is_ancestor_of(root.key):
                    result = "ancestor"
                    break
        self._classify_memo[bare.value] = result
        return result

    def sign_at(self, key: FlexKey) -> int:
        sign = self._sign_memo.get(key.value)
        if sign is not None:
            return sign
        bare = key.without_override()
        for root in self.roots:
            if root.key == bare or root.key.is_ancestor_of(bare):
                self._sign_memo[bare.value] = root.sign
                return root.sign
        raise PlanError(f"{key} is not at/below an update root")

    # -- first-class modify pairs -------------------------------------------------------

    def pair_root(self, key: FlexKey) -> Optional[DeltaRoot]:
        """The first-class modify root at ``key``, if ``key`` *is* one.

        Only an exact match counts: a modify replaces the direct text of
        its target element, so the text of a proper descendant (or
        ancestor-without-the-target's-text) is untouched.
        """
        result = self._pair_memo.get(key.value, _MISS)
        if result is not _MISS:
            return result
        bare = key.without_override()
        result = None
        for root in self.roots:
            if root.has_pair and root.key == bare:
                result = root
                break
        self._pair_memo[bare.value] = result
        return result

    def pair_roots_below(self, key: FlexKey) -> list[DeltaRoot]:
        """Pair roots at or below ``key`` (whose old text ``key`` saw)."""
        result = self._below_memo.get(key.value)
        if result is not None:
            return result
        bare = key.without_override()
        result = [root for root in self.roots
                  if root.has_pair
                  and (root.key == bare or bare.is_ancestor_of(root.key))]
        self._below_memo[bare.value] = result
        return result

    def old_text(self, storage, key: FlexKey) -> Optional[str]:
        """The *pre-batch* concatenated text of the node at ``key``.

        ``None`` when no pair root sits at/below ``key`` — the node's
        text is the same in both states and the caller needs no
        override.  Otherwise the current subtree text is reconstructed
        with each pair root's direct text replaced by its old value
        (the modify primitive replaces exactly the target's direct text
        children, so this substitution is the whole difference).
        """
        result = self._old_text_memo.get(key.value, _MISS)
        if result is not _MISS:
            return result
        bare = key.without_override()
        affected = self.pair_roots_below(bare)
        if not affected:
            result = None
        else:
            pairs = {root.key.value: root.old_value for root in affected}
            parts: list[str] = []
            _old_text_walk(storage.node(bare), pairs, parts)
            result = "".join(parts)
        self._old_text_memo[bare.value] = result
        return result

    def node_text(self, storage, key: FlexKey) -> str:
        """The current concatenated text of the node at ``key``."""
        text = self._text_memo.get(key.value)
        if text is None:
            text = self._text_memo[key.value] = storage.text(key)
        return text


#: memo-miss sentinel for answers that may be None
_MISS = object()


def _old_text_walk(node, pairs: dict, parts: list) -> None:
    """Collect subtree text with pair roots' direct text replaced by the
    recorded old values (document order; a pair element contributes its
    old text where its text children sit today)."""
    if node.is_text:
        if node.value:
            parts.append(node.value)
        return
    replaced = node.key.value in pairs if node.key is not None else False
    emitted = False
    for child in node.children:
        if replaced and child.is_text:
            if not emitted:
                parts.append(pairs[node.key.value])
                emitted = True
            continue
        _old_text_walk(child, pairs, parts)
    if replaced and not emitted:
        # The new text is empty (no text child): old text still counted.
        parts.append(pairs[node.key.value])


#: zeroed per-operator counters — what :func:`obs_op_stats` reports for
#: an operator that never executed under instrumentation
_OP_STATS_KEYS = ("runs", "tuples_out", "delta_runs", "delta_tuples_out")


def obs_op_stats(op: "XatOperator") -> dict:
    """The live execution counters of one operator instance.

    ``runs`` / ``tuples_out`` count FULL evaluations (current-state
    tables), ``delta_runs`` / ``delta_tuples_out`` the
    delta-mode passes of incremental maintenance.  Counters accumulate
    on the operator instance itself (one dict per op, shared by every
    run of the plan) and feed the live ``EXPLAIN`` rendering.
    """
    stats = getattr(op, "_obs_stats", None)
    if stats is None:
        return dict.fromkeys(_OP_STATS_KEYS, 0)
    return stats


def op_stats(op: "XatOperator") -> dict:
    """The counters of :func:`obs_op_stats`, created on first use — the
    one dict the recursive evaluation and every compiled instruction of
    the operator advance."""
    stats = getattr(op, "_obs_stats", None)
    if stats is None:
        stats = op._obs_stats = dict.fromkeys(_OP_STATS_KEYS, 0)
    return stats


def op_stat_keys(mode: str) -> tuple[str, str]:
    """The (runs, tuples out) counters an execution in ``mode`` advances."""
    if mode == DELTA:
        return "delta_runs", "delta_tuples_out"
    return "runs", "tuples_out"


def _obs_record(op: "XatOperator", mode: str, table: XatTable) -> None:
    stats = op_stats(op)
    runs, out = op_stat_keys(mode)
    stats[runs] += 1
    stats[out] += len(table.tuples)


class ExecutionContext:
    """Everything an operator needs at run time.

    ``store`` is the persistent cross-run layer (an
    :class:`~repro.engine.opstate.OperatorStateStore`), carried by every
    delta run: a Δ rule asks its ``side`` for the other side's old or new
    state instead of re-executing the subplan; the store is what
    survives between runs.

    ``memo`` is the run's register file, ``{(structural signature,
    mode): table}``: the plan VM and the recursive :meth:`evaluate` both
    read and fill it, so structurally-equal subplans evaluate once per
    memo.  A context owns a private one unless the engine replaces it
    with the memo of the registry's dispatch, which every pass under one
    ``DeltaSpec`` object and the store's ``reconcile`` share (see
    ``ViewRegistry._dispatch`` for when that is sound).  Its tables are
    read-only to every consumer.  A FULL run over its private memo drops
    each table after its last reader (the VM's schedule, or ``readers``).
    """

    def __init__(self, storage: StorageManager,
                 mode: str = FULL,
                 delta: Optional[DeltaSpec] = None,
                 store=None):
        self.storage = storage
        self.mode = mode
        self.delta = delta
        self.store = store
        self.bindings: list[XatTuple] = []      # Map-operator correlation stack
        self.memo: dict[tuple[str, str], XatTable] = {}
        self.memo_private = True    # Engine.run clears it for a shared one
        #: reads left per memo key (:meth:`count_reads`)
        self.readers: dict = {}

    def count_reads(self, root: "XatOperator") -> None:
        """Drop each memo entry of a recursive run of ``root`` at its last
        read: once per scheduled input of each distinct key above it (a
        repeated key is a memo hit and reads nothing); the root stays."""
        readers = self.readers = {}

        def visit(op: XatOperator) -> None:
            for child in op.scheduled_inputs():
                key = (child._state_signature or subplan_signature(child),
                       self.mode)
                if key in readers:
                    readers[key] += 1
                else:
                    readers[key] = 1
                    visit(child)
        visit(root)

    # -- mode management ------------------------------------------------------------

    def with_mode(self, mode: str) -> "ExecutionContext":
        """This context in another mode, sharing everything else."""
        clone = _copy.copy(self)
        clone.mode = mode
        return clone

    # -- evaluation with memoization ----------------------------------------------------

    def evaluate(self, op: "XatOperator", mode: Optional[str] = None
                 ) -> XatTable:
        ctx = self if mode is None or mode == self.mode else self.with_mode(mode)
        if ctx.bindings:
            # Correlated (Map) evaluation cannot be cached safely.
            result = op.execute(ctx)
            _obs_record(op, ctx.mode, result)
            return result
        # Uncorrelated from here on — the memo key needs no binding-stack
        # discriminator (Map evaluates its RHS directly, never through
        # this memo, so a memoized table is always binding-independent).
        assert not ctx.bindings
        cache_key = (op._state_signature or subplan_signature(op), ctx.mode)
        result = self.memo.get(cache_key)
        if result is None:
            if (ctx.mode == DELTA and ctx.delta is not None
                    and ctx.delta.document not in op.source_documents()):
                result = XatTable(op.schema)  # Δ of an unaffected subtree
            else:
                result = op.execute(ctx)
            _obs_record(op, ctx.mode, result)
            self.memo[cache_key] = result
        readers = self.readers
        if cache_key in readers:
            readers[cache_key] -= 1
            if not readers[cache_key]:
                del self.memo[cache_key]
        return result


def subplan_signature(op: "XatOperator") -> str:
    """Canonical structural signature of a subplan: its operators'
    :meth:`~XatOperator.signature_core` and shape (memoized per op, and
    interned: it keys the operator-state store, where views holding
    structurally-equal subplans share one entry, and the run memo, where
    equal signatures of different views should hash and compare by
    identity)."""
    cached = op._state_signature
    if cached is None:
        parts = [repr(op.signature_core())]
        parts.extend(subplan_signature(child) for child in op.inputs)
        cached = op._state_signature = sys.intern(
            "(" + " ".join(parts) + ")")
    return cached


_op_ids = itertools.count(1)


def item_fingerprint(item) -> tuple:
    """Identity of one cell item for cached-table patch matching.

    Node items match by key (overriding orders included — they are
    derivation-deterministic); atomic items match by value, mirroring the
    semantic-id discipline under which value-identical derivations fuse.
    """
    key = getattr(item, "key", None)
    if key is not None:  # NodeItem
        override = key.override
        return ("n", key.value, override.value if override else "")
    return ("a", item.value, item.order_value or "")


def tuple_fingerprint(tup: XatTuple, columns) -> tuple:
    """Default whole-tuple identity used to merge delta rows into cached
    FULL tables (collection cells compare as sorted item multisets)."""
    parts = []
    for col in columns:
        cell = tup.cells.get(col)
        if cell is None:
            parts.append(None)
        elif isinstance(cell, list):
            parts.append((item_fingerprint(cell[0]),) if len(cell) == 1
                         else tuple(sorted(item_fingerprint(i)
                                           for i in cell)))
        else:
            parts.append(item_fingerprint(cell))
    return tuple(parts)


def _cached_item(item):
    """An item normalized for residence in a cached FULL table: the
    delta-only ``refresh`` flag is stripped (a flagged item persisted in
    the cache would leak count-neutral fusion into later deltas that
    read the cached row)."""
    if not item.refresh:
        return item
    stripped = _copy.copy(item)
    stripped.refresh = False
    return stripped


def _cached_cell(cell):
    if cell is None:
        return None
    if isinstance(cell, list):
        if any(item.refresh for item in cell):
            return [_cached_item(item) for item in cell]
        return cell
    return _cached_item(cell)


def cached_tuple(tup: XatTuple, count: Optional[int] = None) -> XatTuple:
    """A copy of a delta tuple normalized for residence in a cached FULL
    table (delta-only annotations stripped, on the tuple and its items)."""
    return XatTuple({col: _cached_cell(cell)
                     for col, cell in tup.cells.items()},
                    tup.count if count is None else count, False, False)


class XatOperator:
    """Base class of every XAT operator.

    Subclasses implement ``_build_schema`` (Order Schema + Context Schema
    rules, Tables 3.1 / 4.1) and ``compute``.  The ``state_*`` hooks
    drive the persistent operator-state store
    (:mod:`repro.engine.opstate`): they describe how a cached FULL-mode
    result table of this operator is patched by the operator's own
    delta-mode output instead of being re-executed.
    """

    symbol = "op"

    #: memo of :func:`subplan_signature`
    _state_signature: Optional[str] = None

    def __init__(self, inputs: Sequence["XatOperator"] = ()):
        self.inputs: list[XatOperator] = list(inputs)
        self.schema: TableSchema = None  # type: ignore[assignment]
        self.op_id = next(_op_ids)
        self._source_docs: Optional[frozenset[str]] = None

    # -- plan construction ------------------------------------------------------------

    def prepare(self) -> "XatOperator":
        """Compute schemas bottom-up for the whole subtree; returns self."""
        seen: set[int] = set()

        def visit(op: XatOperator) -> None:
            if id(op) in seen:
                return
            seen.add(id(op))
            for child in op.inputs:
                visit(child)
            op.schema = op._build_schema()
            op._precompute()
        visit(self)
        return self

    def _build_schema(self) -> TableSchema:
        raise NotImplementedError

    def _precompute(self) -> None:
        """Hook: hoist whatever :meth:`compute` needs per run but that is
        fixed by the plan (step tables, key columns, lineage recipes)
        into attributes, once the input schemas exist."""

    def compute(self, ctx: ExecutionContext,
                inputs: Sequence[XatTable]) -> XatTable:
        """This operator's table under ``ctx.mode``, from the
        already-computed tables of :meth:`scheduled_inputs` — the one
        body of each of its rules, whoever schedules it."""
        raise NotImplementedError

    def scheduled_inputs(self) -> Sequence["XatOperator"]:
        """The inputs evaluated ahead of this operator, under its mode."""
        return self.inputs

    def execute(self, ctx: ExecutionContext) -> XatTable:
        """Recursive evaluation: pull the inputs through the run's memo,
        then :meth:`compute` (the plan VM schedules the same calls
        linearly instead)."""
        return self.compute(ctx, [ctx.evaluate(child)
                                  for child in self.scheduled_inputs()])

    def source_documents(self) -> frozenset[str]:
        """Names of source documents referenced anywhere in this subtree."""
        if self._source_docs is None:
            docs: set[str] = set(self._own_documents())
            for child in self.inputs:
                docs |= child.source_documents()
            self._source_docs = frozenset(docs)
        return self._source_docs

    def _own_documents(self) -> Sequence[str]:
        return ()

    # -- persistent-state hooks ---------------------------------------------------------

    def state_merge_key(self, tup: XatTuple, ctx) -> tuple:
        """Identity under which delta rows merge into the cached table."""
        return tuple_fingerprint(tup, self.schema.columns)

    def state_apply(self, existing: Optional[XatTuple], dt: XatTuple,
                    ctx) -> tuple:
        """Patch one delta row against the matching cached tuple.

        Returns ``(verb, tuple)`` with verb one of ``insert`` / ``replace``
        / ``remove`` / ``noop`` / ``fail``; ``fail`` aborts the patch and
        falls back to recomputation (the safe path).  The default is the
        Z-semantics count merge that makes linear operators maintainable
        (Chapter 6); refresh rows are count-neutral re-derivations and
        replace content in place.
        """
        if dt.refresh:
            if existing is None:
                return ("fail", None)
            return ("replace", cached_tuple(dt, count=existing.count))
        if existing is None:
            if dt.count > 0:
                return ("insert", cached_tuple(dt))
            return ("fail", None)
        count = existing.count + dt.count
        if count == 0:
            return ("remove", None)
        if count < 0:
            return ("fail", None)
        return ("replace", XatTuple(existing.cells, count,
                                    existing.refresh, False))

    # -- utilities --------------------------------------------------------------------

    def iter_operators(self):
        """All operators of this subtree, post-order, deduplicated (DAGs)."""
        seen: set[int] = set()

        def visit(op: XatOperator):
            if id(op) in seen:
                return
            seen.add(id(op))
            for child in op.inputs:
                yield from visit(child)
            yield op
        yield from visit(self)

    def signature_core(self) -> tuple:
        """This operator's symbol and distinguishing parameters — its
        part of :func:`subplan_signature`.  An operator without its own
        is keyed by instance: persistent across runs of its plan, never
        shared."""
        return ("op", type(self).__name__, self.op_id)

    def __repr__(self) -> str:
        """``Name[params]``: the signature core's parameters (what
        EXPLAIN prints per operator); an instance key prints none."""
        if type(self).signature_core is XatOperator.signature_core:
            return type(self).__name__
        params = ", ".join(str(part) for part in self.signature_core()[1:])
        return f"{type(self).__name__}[{params}]" if params \
            else type(self).__name__
