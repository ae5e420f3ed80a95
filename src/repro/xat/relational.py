"""Relational-like XAT operators (Section 2.2.2) with maintenance support.

The binary join family implements the bilinear delta expansion described in
:mod:`repro.xat.base`.  Group By sums count annotations (the counting rules
of Tables 6.1/6.2), which makes it linear in Z-semantics and therefore
directly evaluable over delta inputs.  Distinct is not linear: its output
is set-semantic, and its delta is the values whose support — looked up in
the input's persistent state — crosses zero.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..flexkeys import FlexKey
from .base import (DELETE, DELTA, MODIFY, ExecutionContext,
                   PlanError, XatOperator, tuple_fingerprint)
from .conditions import Comparison, Condition, conjuncts, item_value
from .table import (AtomicItem, ContextSpec, Item, NodeItem, TableSchema,
                    XatTable, XatTuple, items_of, single_item)


class TransientSideHandle:
    """Probe/scan access to a side table held for one run, not stored:
    the right input of a FULL-mode join.  No Δ rule reads one, so the
    rows it walks are reported to no store."""

    def __init__(self, ctx: ExecutionContext, cols, *, table: XatTable):
        self._ctx = ctx
        self.cols = cols
        self._table = table
        self._index = None

    def table(self) -> XatTable:
        return self._table

    def probe(self, key) -> list:
        if self._index is None:
            self._index = _buckets(self._table.tuples, self.cols, self._ctx)
        return self._index.get(key, [])

    def support(self, key) -> int:
        """Net count of the tuples under ``key`` (a one-run index keeps
        no counters: the bucket is summed)."""
        return scanned_support(self, self.probe(key))

    def scanned(self, rows: int) -> None:
        pass


def _buckets(tuples, cols, ctx) -> dict:
    """``{probe key: [tuples hashing under it]}`` — the one-run hash
    index over ``tuples`` (a tuple sits in one bucket per key of
    :func:`_hash_keys`)."""
    index: dict[tuple, list[XatTuple]] = {}
    for tup in tuples:
        for key in _hash_keys(tup, cols, ctx):
            index.setdefault(key, []).append(tup)
    return index


def scanned_support(side, rows: list) -> int:
    """The net count of ``rows`` of the handle ``side``, summed row by
    row — what every support question costs where no maintained counter
    answers it (a transient bucket, the union over a multi-item key
    cell).  The rows walked are counted through the handle's
    ``scanned`` — on the run's store and, for a stored side, on its
    entry — so an O(|group|) path shows in the metrics and under its
    signature in EXPLAIN, with no timer attached."""
    side.scanned(len(rows))
    return sum(tup.count for tup in rows)


class DiffSideHandle:
    """A join side's state on the far side of the batch from its stored
    table: the table plus ``sign`` times the side's own counted Δ rows.

    A stored table holds a batch's inserts and modifies (they reach
    storage before propagation) but not yet its deletes, so the old
    state under an insert or a modify is the table minus the Δ (``sign``
    -1) and the new state under a delete is the table plus the Δ
    (``sign`` +1) — the Z-semantics bag difference.  Under a modify,
    the negated retraction (+count, old values) restores the row the old
    derivation joined on and the negated assertion (-count, new values)
    cancels the post-update row the table holds; under a delete the Δ's
    negative rows cancel the rows about to leave.  A stored row and a
    signed Δ row with equal cells (``columns``) and opposite counts are
    no row of the state: the handle hands out neither, or a join would
    emit a ± pair of results.
    """

    def __init__(self, base, delta_tuples: list, ctx, sign: int, columns):
        self._base = base
        self._delta = delta_tuples
        self._ctx = ctx
        self._sign = sign
        self._columns = columns
        self.cols = base.cols
        self._index = None
        self._table = None
        # id(delta tuple) -> its one signed row: consumers dedupe probe
        # results by tuple identity, so a row probed under several keys
        # of a multi-item cell must come back as the same object.
        self._signed_rows: dict[int, XatTuple] = {}

    def _signed(self, tup: XatTuple) -> XatTuple:
        if self._sign > 0:
            return tup
        signed = self._signed_rows.get(id(tup))
        if signed is None:
            signed = XatTuple(tup.cells, -tup.count, tup.refresh,
                              tup.touched, tup.era)
            self._signed_rows[id(tup)] = signed
        return signed

    def _delta_rows(self, key) -> list:
        if self._index is None:
            self._index = _buckets(self._delta, self.cols, self._ctx)
        return self._index.get(key, ())

    def _net(self, stored, deltas) -> list:
        """``stored`` plus the signed ``deltas``, less each stored row
        and signed Δ row that cancel (a modify's halves, read at other
        values than the stored row, never do)."""
        stored, kept, columns = list(stored), [], self._columns
        for tup in map(self._signed, deltas):
            fp = tup.era is None and tuple_fingerprint(tup, columns)
            twin = fp and next((row for row in stored
                                if row.count == -tup.count
                                and tuple_fingerprint(row, columns) == fp),
                               None)
            if not twin:
                kept.append(tup)
            else:
                stored.remove(twin)
        return stored + kept

    def probe(self, key) -> list:
        return self._net(self._base.probe(key), self._delta_rows(key))

    def support(self, key) -> int:
        """The base side's support plus the signed delta rows under
        ``key``."""
        return self._base.support(key) \
            + self._sign * sum(t.count for t in self._delta_rows(key))

    def scanned(self, rows: int) -> None:
        self._base.scanned(rows)

    def table(self) -> XatTable:
        if self._table is None:
            base = self._base.table()
            self._table = XatTable(base.schema,
                                   self._net(base.tuples, self._delta))
        return self._table


class Select(XatOperator):
    """``sigma_c(T)``: filter tuples by a predicate (Category I / X)."""

    symbol = "sigma"

    def __init__(self, child: XatOperator, condition: Condition):
        super().__init__([child])
        self.condition = condition

    def _build_schema(self) -> TableSchema:
        return self.inputs[0].schema

    def compute(self, ctx: ExecutionContext, inputs) -> XatTable:
        # Δσ(T) = σ(ΔT): the same filter in every mode.
        condition = self.condition
        return XatTable(self.schema,
                        [tup for tup in inputs[0].tuples
                         if condition.evaluate(tup, ctx)])

    def signature_core(self) -> tuple:
        return (self.symbol, str(self.condition))


class Rename(XatOperator):
    """``rho_{col,col'}(T)``: column renaming (Category II of Table 4.1)."""

    symbol = "rho"

    def __init__(self, child: XatOperator, col: str, out: str):
        super().__init__([child])
        self.col = col
        self.out = out

    def _build_schema(self) -> TableSchema:
        base = self.inputs[0].schema
        columns = tuple(self.out if c == self.col else c
                        for c in base.columns)
        context = {}
        for c in base.columns:
            spec = base.spec(c)
            renamed_order = (None if spec.order is None else
                             tuple(self.out if oc == self.col else oc
                                   for oc in spec.order))
            renamed_lineage = tuple(
                (self.out if lc == self.col else lc, cid)
                for lc, cid in spec.lineage)
            context[self.out if c == self.col else c] = ContextSpec(
                renamed_order, renamed_lineage)
        order_schema = tuple(self.out if c == self.col else c
                             for c in base.order_schema)
        return TableSchema(columns, order_schema, context)

    def compute(self, ctx: ExecutionContext, inputs) -> XatTable:
        table = XatTable(self.schema)
        for tup in inputs[0]:
            cells = {(self.out if c == self.col else c): v
                     for c, v in tup.cells.items()}
            table.append(XatTuple(cells, tup.count, tup.refresh,
                                  tup.touched, tup.era))
        return table

    def signature_core(self) -> tuple:
        return (self.symbol, self.col, self.out)


class _BinaryJoinBase(XatOperator):
    """Shared machinery of Cartesian Product / Theta Join / Left Outer Join."""

    def __init__(self, left: XatOperator, right: XatOperator,
                 condition: Optional[Condition] = None):
        super().__init__([left, right])
        self.condition = condition

    def _build_schema(self) -> TableSchema:
        left, right = self.inputs[0].schema, self.inputs[1].schema
        overlap = set(left.columns) & set(right.columns)
        if overlap:
            raise PlanError(f"join inputs share columns {sorted(overlap)}")
        columns = left.columns + right.columns
        # Category III of Table 3.1: OS = OS(T1) + OS(T2).
        order_schema = left.order_schema + right.order_schema
        context = dict(left.context)
        context.update(right.context)
        # Category IX of Table 4.1: left columns get right's Table Order
        # Schema appended to their order context, and vice versa.
        for col in left.columns:
            spec = left.spec(col)
            if spec.order is not None and right.order_schema:
                base_order = spec.order if spec.order else (col,)
                context[col] = ContextSpec(base_order + right.order_schema,
                                           spec.lineage)
        for col in right.columns:
            spec = right.spec(col)
            if spec.order is not None and left.order_schema:
                base_order = spec.order if spec.order else (col,)
                context[col] = ContextSpec(left.order_schema + base_order,
                                           spec.lineage)
        return TableSchema(columns, order_schema, context)

    # -- join machinery -----------------------------------------------------------

    def _precompute(self) -> None:
        #: hash-join key columns per side; None under a theta condition
        self._lcols, self._rcols = self._equi_key_columns() or (None, None)

    def _equi_key_columns(self) -> Optional[tuple[list[str], list[str]]]:
        """Columns for a hash join when every conjunct is a column equality."""
        if self.condition is None:
            return None
        left_cols = set(self.inputs[0].schema.columns)
        lefts, rights = [], []
        for comp in conjuncts(self.condition):
            if not isinstance(comp, Comparison) or comp.op != "=":
                return None
            cols = comp.columns()
            if len(cols) != 2:
                return None
            a, b = cols
            if a in left_cols and b not in left_cols:
                lefts.append(a)
                rights.append(b)
            elif b in left_cols and a not in left_cols:
                lefts.append(b)
                rights.append(a)
            else:
                return None
        return lefts, rights

    def _side_matches(self, ctx: ExecutionContext, tup: XatTuple, cols,
                      side) -> list[XatTuple]:
        """Tuples of the other side's handle ``side`` matching ``tup``.

        Under an equi condition ``cols`` are ``tup``'s key columns and
        the handle is probed — once per distinct value of a multi-item
        key cell (existential semantics), a side tuple matching on
        several values still matching once.  A theta condition (``cols``
        is None) is the nested-loop match over the side's table; the
        rows it walks are counted through the handle's ``scanned``.
        """
        if cols is not None:
            return _probe_union(side.probe, _hash_keys(tup, cols, ctx))
        condition = self.condition
        rows = side.table().tuples
        side.scanned(len(rows))
        return [ot for ot in rows
                if condition is None
                or condition.evaluate(tup.merged(ot), ctx)]

    # -- evaluation ---------------------------------------------------------------

    def compute(self, ctx: ExecutionContext, inputs) -> XatTable:
        left, right = inputs
        if ctx.mode == DELTA and ctx.delta is not None:
            return self._delta(ctx, left, right)
        table = XatTable(self.schema)
        self._combine_into(table, ctx, left, right)
        return table

    def _combine_into(self, table: XatTable, ctx: ExecutionContext,
                      left: XatTable, right: XatTable) -> None:
        raise NotImplementedError

    def _delta(self, ctx: ExecutionContext, ldelta: XatTable,
               rdelta: XatTable) -> XatTable:
        """Δ(A ⋈ B) = ΔA ⋈ B ∪ A' ⋈ ΔB, delta side first: B as stored, A'
        on the far side of the batch (by phase: :mod:`repro.xat.base`).

        A term whose delta is empty is skipped outright, so the
        untouched side of a one-sided batch is never evaluated at all —
        and when it is needed, the store hands it over in the state the
        term reads and the delta tuples probe it instead of iterating
        it.
        """
        lcols, rcols = self._lcols, self._rcols
        store = ctx.store
        deleting = ctx.delta.phase == DELETE
        table = XatTable(self.schema)
        append = table.append
        if ldelta.tuples:
            other = store.side(ctx, self.inputs[1], rcols, old=deleting)
            for dt in ldelta.tuples:
                for ot in self._side_matches(ctx, dt, lcols, other):
                    append(dt.merged(ot))
        if rdelta.tuples:
            other = store.side(ctx, self.inputs[0], lcols,
                               old=not deleting)
            for dt in rdelta.tuples:
                for ot in self._side_matches(ctx, dt, rcols, other):
                    append(ot.merged(dt))
        return table


def _hash_keys(tup: XatTuple, cols: Sequence[str], ctx) -> list[tuple]:
    """Every equi-key a tuple hashes under (existential semantics).

    A single-item key cell contributes its one value; a multi-item cell
    contributes one key per *distinct* item value — the tuple is
    indexed/probed once per value it could match on, which realizes
    XPath's existential comparison for collection-valued keys (and is
    what lets maintenance retract pairs whose key cells change arity).
    An empty key cell hashes nowhere.
    """
    if len(cols) == 1:
        # The common shape — one key column holding one item — skips
        # the cross-product machinery below.
        cell = tup.cells.get(cols[0])
        if cell is None:
            return []
        if isinstance(cell, Item):
            return [(item_value(cell, ctx),)]
        if len(cell) == 1:
            return [(item_value(cell[0], ctx),)]
    per_col: list[list[str]] = []
    for col in cols:
        items = items_of(tup[col])
        if not items:
            return []
        if len(items) == 1:
            per_col.append([item_value(items[0], ctx)])
            continue
        seen: set[str] = set()
        values: list[str] = []
        for item in items:
            value = item_value(item, ctx)
            if value not in seen:
                seen.add(value)
                values.append(value)
        per_col.append(values)
    keys: list[tuple] = [()]
    for values in per_col:
        keys = [key + (value,) for key in keys for value in values]
    return keys


def _probe_union(probe, keys: list) -> list:
    """Union of per-key probe results over a tuple's keys, deduplicated
    by tuple identity (a side tuple matching on several of a multi-item
    cell's values still matches once).  ``probe`` maps one key to its
    bucket — an index lookup or a side handle's probe.
    """
    if len(keys) == 1:
        return list(probe(keys[0]))
    seen: set[int] = set()
    matches: list = []
    for key in keys:
        for tup in probe(key):
            if id(tup) not in seen:
                seen.add(id(tup))
                matches.append(tup)
    return matches


class CartesianProduct(_BinaryJoinBase):
    """``x(T1, T2)``."""

    symbol = "x"

    def __init__(self, left: XatOperator, right: XatOperator):
        super().__init__(left, right, condition=None)

    def _combine_into(self, table, ctx, left, right):
        for lt in left:
            for rt in right:
                table.append(lt.merged(rt))

    def signature_core(self) -> tuple:
        return (self.symbol,)


class Join(_BinaryJoinBase):
    """Theta join ``|><|_c (T1, T2)``; hash-based for equality conditions."""

    symbol = "join"

    def _combine_into(self, table, ctx, left, right):
        side = TransientSideHandle(ctx, self._rcols, table=right)
        for lt in left:
            for rt in self._side_matches(ctx, lt, self._lcols, side):
                table.append(lt.merged(rt))

    def signature_core(self) -> tuple:
        return (self.symbol, str(self.condition))


class LeftOuterJoin(_BinaryJoinBase):
    """``=|><|_c (T1, T2)`` with the dangling-tuple maintenance treatment
    of Chapter 7.4."""

    symbol = "loj"

    def _handle_has_match(self, ctx, tup, cols, side,
                          keys: Optional[list] = None) -> bool:
        """Whether the left tuple ``tup`` matches anything in the right
        side's handle ``side`` (``keys``: ``tup``'s probe keys under
        ``cols``, when the caller already hashed it).

        Matching is by *net count* — with signed diff rows in play a row
        present only as a cancelled pair (+c and -c) is no match — and
        the net count under one probe key is the handle's ``support``: a
        maintained counter on a stored side (± the batch's own rows on a
        diff handle), O(1) whatever the group's size.  A multi-item key cell (the union of several
        buckets, each tuple once) and a theta condition have no single
        key to ask about and sum their matches (the theta loop has
        counted the rows it walked already).
        """
        if cols is None:
            return sum(t.count for t in
                       self._side_matches(ctx, tup, cols, side)) != 0
        if keys is None:
            keys = _hash_keys(tup, cols, ctx)
        if len(keys) == 1:
            return side.support(keys[0]) != 0
        return scanned_support(side, _probe_union(side.probe, keys)) != 0

    def _delta(self, ctx, ldelta, rdelta):
        """The inner-join expansion plus the dangling-tuple treatment:
        ΔA rows null-pad where the B they read has no match, and ΔB
        retracts (inserts) or restores (deletes) the null-padded results
        of the left rows it reads whose dangling status flips (Fig 7.3).
        Under a delete ΔA pads against B_old and the flips are read on
        A_new, so a left row the delete removes is padded once."""
        spec = ctx.delta
        store = ctx.store
        lcols, rcols = self._lcols, self._rcols
        right = self.inputs[1]
        modify = spec.phase == MODIFY
        deleting = spec.phase == DELETE
        table = XatTable(self.schema)
        append = table.append
        if ldelta.tuples:
            # Inner term over (ΔA, B) with LOJ null-padding.  Under a
            # modify batch every count-carrying ΔA row pads against the
            # *old* right state — δ·[dangling_old]; together with the
            # right-delta correction c_new·([dangling_new] -
            # [dangling_old]) this sums to the exact pad delta
            # c_new·[dangling_new] - c_old·[dangling_old] (a new row's
            # vacuous old-dangling pad cancels against its own
            # correction inside the group sum).
            other = store.side(ctx, right, rcols, old=deleting)
            old_check = None
            for dt in ldelta.tuples:
                matches = self._side_matches(ctx, dt, lcols, other)
                for ot in matches:
                    append(dt.merged(ot))
                if not modify or dt.refresh:
                    if not sum(ot.count for ot in matches):
                        append(self._null_padded(dt, dt.count))
                    continue
                if old_check is None:
                    old_check = store.side(ctx, right, rcols, old=True)
                if not self._handle_has_match(ctx, dt, lcols, old_check):
                    append(self._null_padded(dt, dt.count))
        if not rdelta.tuples:
            return table
        other = store.side(ctx, self.inputs[0], lcols, old=not deleting)
        matched_lefts: dict[int, XatTuple] = {}
        for dt in rdelta.tuples:
            for lt in self._side_matches(ctx, dt, rcols, other):
                append(lt.merged(dt))
                matched_lefts.setdefault(id(lt), lt)
        if not matched_lefts:
            return table
        if modify:
            # A first-class modify can flip dangling status both ways:
            # compare each touched left row against the right side's old
            # (diffed) and new (current) states.
            if not spec.has_pairs:
                return table  # refresh-only modify: no re-routing possible
            new_check = store.side(ctx, right, rcols)
            old_check = store.side(ctx, right, rcols, old=True)
            for lt in matched_lefts.values():
                if lt.era is not None:
                    continue  # synthetic diff row, not an extent left
                keys = (_hash_keys(lt, lcols, ctx) if lcols is not None
                        else None)
                has_new = self._handle_has_match(ctx, lt, lcols, new_check,
                                                 keys)
                has_old = self._handle_has_match(ctx, lt, lcols, old_check,
                                                 keys)
                if has_old and not has_new:
                    append(self._null_padded(lt, lt.count))
                elif has_new and not has_old:
                    append(self._null_padded(lt, -lt.count))
            return table
        # An insert flips a left row to matched when the *old* right
        # state held no match; a delete flips it to dangling when the
        # *new* one holds none.
        check = store.side(ctx, right, rcols, old=not deleting)
        for lt in matched_lefts.values():
            if not self._handle_has_match(ctx, lt, lcols, check):
                append(self._null_padded(lt, lt.count if deleting
                                         else -lt.count))
        return table

    def _null_padded(self, lt: XatTuple, count: int) -> XatTuple:
        cells = dict(lt.cells)
        for col in self.inputs[1].schema.columns:
            cells[col] = None
        return XatTuple(cells, count, lt.refresh, lt.touched, lt.era)

    def _combine_into(self, table, ctx, left, right):
        side = TransientSideHandle(ctx, self._rcols, table=right)
        for lt in left:
            matches = self._side_matches(ctx, lt, self._lcols, side)
            if matches:
                for rt in matches:
                    table.append(lt.merged(rt))
            else:
                table.append(self._null_padded(lt, lt.count))

    def signature_core(self) -> tuple:
        return (self.symbol, str(self.condition))


def group_key(tup: XatTuple, cols: Sequence[str], ctx) -> tuple:
    """Value-based grouping key (node items group by identity)."""
    parts = []
    for col in cols:
        item = single_item(tup[col])
        if item is None:
            parts.append(None)
        elif isinstance(item, AtomicItem):
            parts.append(item.value)
        else:
            parts.append(item.key.value)
    return tuple(parts)


class Distinct(XatOperator):
    """``delta_col(T)``: the distinct values of ``col``, set-semantic.

    A value's *support* is the sum of its input duplicate counts; every
    value with positive support is one output tuple of count 1.  The
    delta rule is the counting algorithm's (and DBSP's incremental
    ``distinct``): a batch emits ``(value, ±1)`` only when it moves the
    value's support across zero — a deviation from Table 6.1's
    sum-of-duplicates rule, under which one duplicate more or less
    re-emitted the value and, through the bilinear join terms, every
    member of its group.  The output table keeps only the distinct
    column (Category VIII).
    """

    symbol = "distinct"

    def __init__(self, child: XatOperator, col: str):
        super().__init__([child])
        self.col = col

    def _build_schema(self) -> TableSchema:
        return TableSchema((self.col,), (),
                           {self.col: ContextSpec(order=None, lineage=())})

    def compute(self, ctx: ExecutionContext, inputs) -> XatTable:
        source = inputs[0]
        if ctx.mode == DELTA:
            return self.delta_rows(source, ctx)
        table = XatTable(self.schema)
        for support, tup in self._netted(source, ctx).values():
            if support > 0:
                table.append(XatTuple({self.col: tup[self.col]}))
        return table

    def _netted(self, source: XatTable, ctx: ExecutionContext) -> dict:
        """``value key -> [summed count, first tuple]`` over the
        count-carrying rows of ``source`` (refresh rows are
        count-neutral re-derivations)."""
        cols = (self.col,)
        netted: dict[tuple, list] = {}
        for tup in source.tuples:
            if tup.refresh:
                continue
            key = group_key(tup, cols, ctx)
            slot = netted.get(key)
            if slot is None:
                netted[key] = [tup.count, tup]
            else:
                slot[0] += tup.count
        return netted

    def delta_rows(self, source: XatTable, ctx: ExecutionContext
                   ) -> XatTable:
        """The Δ rule, over the input's delta table ``source``.

        The batch's signed counts net per value; the value's support is
        the one the *input's* persistent side index maintains for it
        (``handle.support``: a counter read, no bucket walk; a side the
        store cannot hold sums its bucket).  The store is asked for the
        old state in the delete phase — deletes reach storage after
        propagation, so the current table is still the pre-batch one —
        and for the new state otherwise.  Node-valued items hash by text
        but are distinct by identity, so their bucket is filtered and
        summed.
        Refresh rows and net-zero values change no support and emit
        nothing; a crossing under a modify batch carries the pair era
        of the state it belongs to.
        """
        cols = (self.col,)
        table = XatTable(self.schema)
        phase = ctx.delta.phase
        handle = None
        for key, (net, tup) in self._netted(source, ctx).items():
            if net == 0:
                continue
            if handle is None:
                handle = ctx.store.side(ctx, self.inputs[0], cols,
                                        old=phase == DELETE)
            probe_keys = _hash_keys(tup, cols, ctx)
            if probe_keys == [key]:
                support = handle.support(key)
            else:
                # node items hash by text but are distinct by identity
                support = scanned_support(handle, [
                    t for t in _probe_union(handle.probe, probe_keys)
                    if group_key(t, cols, ctx) == key])
            old, new = ((support, support + net) if phase == DELETE
                        else (support - net, support))
            if (old > 0) == (new > 0):
                continue
            appeared = new > 0
            era = None
            if phase == MODIFY:
                era = "new" if appeared else "old"
            table.append(XatTuple({self.col: tup[self.col]},
                                  1 if appeared else -1, era=era))
        return table

    # Persistent state: delta rows merge into a cached table by *value*.

    def state_merge_key(self, tup: XatTuple, ctx) -> tuple:
        return ("distinct", group_key(tup, (self.col,), ctx))

    def signature_core(self) -> tuple:
        return (self.symbol, self.col)


class OrderBy(XatOperator):
    """``tau_cols(T)``: sort and expose query order (Category V).

    Sort keys become the Order Schema; sorted cells get an explicit
    ``order_value`` (numeric values zero-padded) so that downstream
    overriding orders are *reproducible* across maintenance runs.
    """

    symbol = "tau"

    def __init__(self, child: XatOperator, cols: Sequence[str]):
        super().__init__([child])
        self.cols = tuple(cols)

    def _build_schema(self) -> TableSchema:
        base = self.inputs[0].schema
        context = {}
        for col in base.columns:
            spec = base.spec(col)
            context[col] = ContextSpec(self.cols, spec.lineage)
        for col in self.cols:
            context[col] = ContextSpec((), base.spec(col).lineage)
        return TableSchema(base.columns, self.cols, context)

    @staticmethod
    def sortable(value: str) -> str:
        try:
            number = float(value)
        except (TypeError, ValueError):
            return value
        # Zero-pad so lexicographic order equals numeric order (>= 0 only;
        # negatives sort before via the sign prefix).
        if number < 0:
            return "-" + f"{1e18 + number:020.4f}"
        return f"{number:020.4f}"

    def compute(self, ctx: ExecutionContext, inputs) -> XatTable:
        table = self.keyed_rows(inputs[0], ctx)
        if ctx.mode != DELTA:
            # Delta tables are bags whose rows fuse by order token; only
            # a current-state table is worth presenting sorted.
            table.tuples.sort(key=self._order_tokens)
        return table

    def _order_tokens(self, tup: XatTuple) -> tuple:
        items = (single_item(tup[col]) for col in self.cols)
        return tuple(item.order_token() if item is not None else ""
                     for item in items)

    def keyed_rows(self, source: XatTable, ctx: ExecutionContext
                   ) -> XatTable:
        """``source`` with every sort-key cell carrying its sortable
        order token (the whole of Order By in delta mode)."""
        table = XatTable(self.schema)
        for tup in source.tuples:
            cells = dict(tup.cells)
            for col in self.cols:
                item = single_item(tup[col])
                if isinstance(item, AtomicItem):
                    cells[col] = AtomicItem(
                        item.value, item.source_key, item.count,
                        item.refresh,
                        order_value=self.sortable(item.value))
                elif isinstance(item, NodeItem):
                    # Node-valued sort keys: override the key's order with
                    # the sortable form of the node's text value so that
                    # downstream overriding orders follow query order.
                    token = self.sortable(item_value(item, ctx))
                    cells[col] = item.with_override(FlexKey(token))
            table.append(XatTuple(cells, tup.count, tup.refresh,
                                  tup.touched, tup.era))
        return table

    def signature_core(self) -> tuple:
        return (self.symbol,) + self.cols
