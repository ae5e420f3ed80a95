"""Shared setup for the benchmark modules: sites, views, timing, tables.

Every figure of the paper's evaluation has one module here; each exposes
``figure_rows()`` — the full parameter sweep, returning printable rows
(the series the paper plots) — and pytest(-benchmark) tests asserting the
figure's *shape* (who wins, by roughly what factor) at a small scale.

Scales are chosen for laptop/CI budgets; set ``REPRO_BENCH_SCALE`` to a
comma-separated list of person counts to sweep larger documents.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

from repro import StorageManager, ViewRegistry
from repro.engine import Engine
from repro.translate import translate_query
from repro.workloads import xmark

__all__ = ["BREAKDOWN_TARGETS", "Engine", "StorageManager", "VIEW",
           "auctions", "fresh_site", "maintain_seconds", "materialized_view",
           "ms", "persons", "phase_seconds", "print_table", "ratio",
           "save_json", "scales", "time_call", "timed_calls",
           "translate_query", "xmark"]

#: the name :func:`materialized_view` registers its view under
VIEW = "view"


def fresh_site(num_persons: int, seed: int = 42) -> StorageManager:
    storage = StorageManager()
    xmark.register_site(storage, num_persons, seed=seed)
    return storage


def materialized_view(query, num_persons: int, seed: int = 42
                      ) -> tuple[StorageManager, ViewRegistry]:
    """One materialized view (named :data:`VIEW`) in a registry of its
    own, under the registry's own work bound.  The figures compare
    propagating with recomputing, so :func:`phase_seconds` refuses a
    timed pass that recomputed."""
    storage = fresh_site(num_persons, seed=seed)
    registry = ViewRegistry(storage)
    registry.register(VIEW, query)
    return storage, registry


def phase_seconds(report) -> list[tuple[str, float]]:
    """The V-P-A split of the first ``apply_updates`` call on a
    :func:`materialized_view`: the call's shared routing time plus the
    view's (cumulative) Propagate and Apply time.  The pass must have
    propagated: a figure never silently times a recompute."""
    own = report.views[VIEW]
    assert not own.recomputed, "the timed pass recomputed the view"
    return [("validate", report.validate_seconds),
            ("propagate", own.propagate_seconds),
            ("apply", own.apply_seconds)]


def maintain_seconds(report) -> float:
    return sum(seconds for _phase, seconds in phase_seconds(report))


def persons(storage: StorageManager):
    return storage.find_by_path(
        "site.xml",
        [("child", "site"), ("child", "people"), ("child", "person")])


def auctions(storage: StorageManager):
    return storage.find_by_path(
        "site.xml",
        [("child", "site"), ("child", "closed_auctions"),
         ("child", "closed_auction")])


# -- timing, sweeps, paper-style tables --------------------------------------------

def scales(default: Sequence[int] = (50, 100, 200, 400)) -> list[int]:
    """Document scales (number of persons) for sweeps."""
    env = os.environ.get("REPRO_BENCH_SCALE")
    if env:
        return [int(part) for part in env.split(",") if part.strip()]
    return list(default)


def time_call(fn: Callable[[], object], repeat: int = 3) -> float:
    """Best-of-``repeat`` wall-clock seconds for ``fn()``."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


#: The paper's order and semantic-id cost breakdowns (Figs 3.7-3.10,
#: 4.9-4.10): each label times the module-level functions that do its
#: work, as ``(module, name)`` pairs.
BREAKDOWN_TARGETS = {
    "semantic_id": [("repro.xat.construction", name)
                    for name in ("resolve_lineage", "constructed_id",
                                 "resolve_order", "override_from_tokens")],
    "overriding_order": [("repro.xat.construction", "_prefixed"),
                         ("repro.xat.grouping", "assign_overriding_orders")],
}


@contextmanager
def timed_calls(targets=BREAKDOWN_TARGETS):
    """Wall-clock seconds spent in ``targets`` while the block runs, as a
    ``{label: seconds}`` dict filled in place.

    Each target is replaced by a timing wrapper for the block's duration
    (the callers look it up as a module global, so every call goes
    through the wrapper); a call made while another call of the same
    label is open — recursion, or one target calling another — is not
    counted again.  A target name the module no longer has raises
    ``AttributeError`` before anything runs."""
    totals = dict.fromkeys(targets, 0.0)
    open_calls = dict.fromkeys(targets, 0)

    def timed(label, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if open_calls[label]:
                return function(*args, **kwargs)
            open_calls[label] = 1
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                totals[label] += time.perf_counter() - started
                open_calls[label] = 0
        return wrapper

    originals = []
    try:
        for label, names in targets.items():
            for module_name, name in names:
                module = importlib.import_module(module_name)
                function = getattr(module, name)
                originals.append((module, name, function))
                setattr(module, name, timed(label, function))
        yield totals
    finally:
        for module, name, function in reversed(originals):
            setattr(module, name, function)


def ms(seconds: float) -> str:
    return f"{seconds * 1000.0:9.2f}"


def ratio(part: float, total: float) -> str:
    if total <= 0:
        return "n/a"
    return f"{100.0 * part / total:6.1f}%"


#: Every table printed by :func:`print_table`, in order — the shared
#: ``--json PATH`` flag persists this record so each figure module emits
#: machine-readable results alongside its console tables.
_RECORDED_TABLES: list[dict] = []


def print_table(title: str, headers: Sequence[str],
                rows: Iterable[Sequence[object]]) -> None:
    """Print one paper-style series table (and record it for JSON output)."""
    rows = [list(row) for row in rows]
    _RECORDED_TABLES.append({
        "title": title,
        "headers": list(headers),
        "rows": [[str(cell).strip() for cell in row] for row in rows],
    })
    print()
    print(f"== {title} ==")
    widths = [max(12, len(h) + 2) for h in headers]
    print("".join(h.rjust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("".join(str(cell).rjust(w) for cell, w in zip(row, widths)))


# -- machine-readable output -------------------------------------------------------
#
# Every figure script accepts a shared ``--json PATH`` flag when run as a
# script: the tables it prints (recorded by ``print_table``) are persisted
# as JSON so sweeps can be archived and diffed instead of only printed.

def json_output_path(argv=None) -> str | None:
    """The ``--json PATH`` flag value, tolerating unknown arguments."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--json", default=None, metavar="PATH")
    args, _unknown = parser.parse_known_args(
        sys.argv[1:] if argv is None else argv)
    return args.json


def save_json(benchmark: str, extra: dict | None = None,
              argv=None) -> str | None:
    """Persist every table printed so far to the ``--json`` path (if any).

    Call at the end of a figure script's ``__main__`` block; a no-op when
    the flag is absent, so plain console runs are unchanged.
    """
    path = json_output_path(argv)
    if not path:
        return None
    payload = {"benchmark": benchmark, "tables": list(_RECORDED_TABLES)}
    if extra:
        payload.update(extra)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"\n[results saved to {path}]")
    return path
