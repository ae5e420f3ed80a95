"""Live EXPLAIN: a view's algebra plan annotated with runtime counters.

``db.explain("sales")`` renders the registered view's prepared XAT plan
as an indented operator tree, each line carrying the counters the
instrumented :class:`~repro.xat.base.ExecutionContext` accumulated on
the operator instance — full-mode and delta-mode executions with tuples
in/out — plus, for subplans the persistent
:class:`~repro.engine.opstate.OperatorStateStore` knows by structural
signature, the per-signature serve statistics (hits / misses / patches,
current cached row count, and the support questions its side indexes
answered from a counter — ``probes=`` — against the bucket rows summed
where no counter serves — ``scanned=``).  A plan whose maintenance
regressed (a side table re-derived every batch, a delta fanning out
wider than its batch) is readable straight off the tree, from counters
the engine always keeps (no timer or trace sink needed).

This module is imported lazily by the session API — it may import engine
internals, but ``repro.obs`` itself must stay import-light (the hot
layers import it at module load).
"""

from __future__ import annotations

from ..xat.base import obs_op_stats, subplan_signature
from ..xat.construction import Tagger

__all__ = ["render_explain"]


def _op_line(op, store) -> str:
    stats = obs_op_stats(op)
    child_stats = [obs_op_stats(child) for child in op.inputs]
    full_in = sum(c["tuples_out"] for c in child_stats)
    delta_in = sum(c["delta_tuples_out"] for c in child_stats)
    text = (f"{op!r}  full: runs={stats['runs']} in={full_in}"
            f" out={stats['tuples_out']}"
            f" · Δ: runs={stats['delta_runs']} in={delta_in}"
            f" out={stats['delta_tuples_out']}")
    if store is not None:
        per_signature = store.per_signature()
        entry_stats = per_signature.get(subplan_signature(op))
        if entry_stats is not None:
            rows = entry_stats["rows"]
            text += (f" · state: served={entry_stats['hits']}"
                     f" recomputed={entry_stats['misses']}"
                     f" patched={entry_stats['patches']}"
                     f" rows={'-' if rows is None else rows}"
                     f" probes={entry_stats['support_probes']}"
                     f" scanned={entry_stats['bucket_rows_scanned']}")
        elif _reads_through_input(op, per_signature):
            text += " · state: via input"
    return text


def _reads_through_input(op, per_signature: dict) -> bool:
    """A Tagger with no entry of its own over an input that has a valid
    one: a join side the store serves through its input's entry."""
    while isinstance(op, Tagger):
        op = op.inputs[0]
        entry_stats = per_signature.get(subplan_signature(op))
        if entry_stats is not None:
            return entry_stats["valid"]
    return False


def _walk(op, store, prefix: str, last: bool, lines: list,
          is_root: bool) -> None:
    if is_root:
        lines.append(_op_line(op, store))
        child_prefix = ""
    else:
        connector = "└─ " if last else "├─ "
        lines.append(prefix + connector + _op_line(op, store))
        child_prefix = prefix + ("   " if last else "│  ")
    children = list(op.inputs)
    for index, child in enumerate(children):
        _walk(child, store, child_prefix, index == len(children) - 1,
              lines, False)


def render_explain(name: str, plan, *, policy=None, work_bound=None,
                   stats=None,
                   report=None, store=None, extent_size=None,
                   serialized_elements=None,
                   pending_trees: int = 0, query_text: str = "",
                   plan_cache=None) -> str:
    """The annotated plan tree of one maintained view as display text.

    ``plan_cache`` (a :class:`repro.plan.PlanCache`) adds the compiled
    instruction listings — one program per compiled execution mode, each
    line carrying the live in/out/Δ row counters — below the operator
    tree.  ``work_bound`` is the view's ``(rows_read, instructions)``:
    pending trees × instructions reaching ``rows_read`` recompute."""
    lines = [f"view {name!r}"]
    if policy is not None:
        lines[0] += f"  policy={getattr(policy, 'kind', policy)}"
    if extent_size is not None:
        lines[0] += f"  extent_nodes={extent_size}"
    if serialized_elements is not None:
        lines[0] += f"  serialized_elements={serialized_elements}"
    lines[0] += f"  pending_trees={pending_trees}"
    if query_text:
        lines.append(f"query: {' '.join(query_text.split())}")
    if stats is not None:
        lines.append(f"maintenance: flushes={stats.flushes}"
                     f" recomputes={stats.recomputes}"
                     f" propagated_trees={stats.propagated_trees}"
                     f" routed_trees={stats.routed_trees}")
    if report is not None:
        lines.append(f"timings: propagate={report.propagate_seconds:.6f}s"
                     f" apply={report.apply_seconds:.6f}s"
                     f" batches={report.batches}"
                     f" state_hits={report.state_hits}"
                     f" state_misses={report.state_misses}"
                     f" state_patches={report.state_patches}")
    if work_bound is not None:
        rows_read, instructions = work_bound
        lines.append("work bound: rows_read="
                     + ("?" if rows_read is None else str(rows_read))
                     + f" instructions={instructions}")
    lines.append("plan:")
    _walk(plan, store, "", True, lines, True)
    if plan_cache is not None:
        for compiled in plan_cache.plans_for(plan):
            lines.append(compiled.listing())
    return "\n".join(lines)
