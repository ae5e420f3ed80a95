"""Perf suite: indexed vs unindexed storage across XMark scaling factors.

Runs the fig-3/fig-9 style scenarios twice — through the incremental
:class:`repro.storage.StructuralIndex` fast paths and through the
walk-based unindexed fallbacks — and emits one machine-readable
``BENCH_perf_suite.json``:

* **navigation_descendant** (fig 9.2 regime, descendant-heavy): ``//``
  location paths and whole-document descendant scans, where the index
  turns an O(document) tree walk into a binary search plus a slice;
* **navigation_child_paths** (fig 3 regime): child-step-only paths;
* **selectivity** (fig 9.3 regime): descendant scans over tags of
  decreasing match frequency at the largest document size;
* **view_maintenance_insert** (fig 9.2 maintenance): end-to-end
  incremental maintenance of the join view under an insert batch;
* **join_maintenance**: the operator-state payoff (Chapter 7's promise):
  steady-state per-batch maintenance seconds of the join view at a fixed
  insert-batch size, with the persistent
  :class:`repro.engine.OperatorStateStore` vs cold (stateless) — the
  persistent series must stay flat in document size while the cold one
  grows, and both extents must match the recomputation oracle
  (``join_maintenance.ok`` in the JSON gates CI);
* **modify_heavy**: modify-dominated batches of predicate-feeding city
  modifies through the persons-by-city view — the incremental path
  (first-class retract/assert pairs, cost model pinned to never
  recompute) vs the full-recomputation fallback (cost model pinned to
  always recompute); the gate (``modify_heavy.ok``) requires both
  extents to match the recompute oracle at every scale and the
  incremental per-batch cost to stay no worse than recomputation at
  document sizes large enough to judge;
* **cold_start_vs_restore**: the durability payoff — rebuilding a
  session (parse the document, materialize every view, re-apply the
  update history) vs reopening its durable directory
  (``Database(durable_path=...)``: checkpoint restore plus WAL-tail
  replay).  Both sides must serve identical view XML, and at the
  largest scale the restore must be strictly faster than the cold
  start (``cold_start_vs_restore.ok`` gates CI);
* **update_overhead**: the honest cost of index upkeep — raw
  insert+delete batches against indexed vs unindexed storage;
* **api_overhead**: the cost of the :class:`repro.api.Database` facade —
  the same logical insert+delete stream driven through ``Database.batch``
  (path-addressed statements, resolved at flush) vs directly through
  ``ViewRegistry.apply_updates`` with pre-resolved FlexKeys.  The facade
  passes (``api_overhead.ok``) when it stays under 5% relative overhead
  *or* under 100 microseconds of absolute cost per statement — the
  operator-state store collapsed per-batch maintenance to O(batch), so
  the ratio now compares the facade against near-constant work and the
  absolute per-statement bound is the stable claim.  The observability
  layer (``repro.obs``) runs in its shipping, *enabled* state here — the
  gate covers the instrumented engine, not a stripped one;
* **observability_overhead**: the instrumentation tax in isolation —
  the same facade workload with the metrics/tracing layer enabled vs
  force-disabled (``repro.obs.set_enabled(False)``), pair-timed like the
  facade comparison.  Informational (the gated claim is ``api_overhead``
  with instrumentation on); the target is the ≤2% always-on budget;
* **server_fanout**: the serving layer under push fan-out — one writer
  session streams update batches through :class:`repro.server.ViewServer`
  over real sockets while 1 → 100 → 1000 subscribers hold push
  subscriptions on the same view; records updates/s, pushed frames/s and
  end-of-run delivery lag, and gates (``server_fanout.ok``) on every
  subscriber receiving the full gap-free delta sequence.

Every navigation scenario also diffs the two paths' results; the suite
refuses to report a speedup for answers that disagree
(``consistency_ok``).

Run ``python benchmarks/bench_perf_suite.py`` (with ``PYTHONPATH=src``)
from the repo root; ``--scales 20,40`` shrinks the sweep for CI smoke
runs, ``--json PATH`` redirects the output file, and
``--metrics-json PATH`` additionally dumps the ``Database.metrics()``
snapshot collected during the observability run (the CI metrics-smoke
artifact), and ``--fanout 1,4`` shrinks the server_fanout subscriber
ladder.
"""

from __future__ import annotations

import argparse
import gc
import json
import selectors
import shutil
import socket
import statistics
import tempfile
import threading

import time

from bench_common import (fresh_site, materialized_view, ms, persons,
                          print_table, scales, time_call, xmark)

from repro import (CostModel, MaterializedXQueryView, UpdateRequest,
                   ViewRegistry)
from repro.api import Database
from repro.obs import set_enabled
from repro.server import ReproClient, start_in_thread
from repro.server.protocol import FrameDecoder, encode_frame
from repro.xmlmodel import parse_fragment


class _NeverRecompute(CostModel):
    """Pin a view to the incremental path regardless of observations."""

    def should_recompute(self, trees: int) -> bool:
        return False


class _AlwaysRecompute(CostModel):
    """Pin a view to full recomputation at every flush."""

    def should_recompute(self, trees: int) -> bool:
        return True

#: Descendant-heavy location paths (the fig 9.2-style navigation load).
NAV_DESCENDANT_PATHS = [
    ("//city", [("descendant", "city")]),
    ("//interest", [("descendant", "interest")]),
    ("//date", [("descendant", "date")]),
    ("//person//age", [("descendant", "person"), ("descendant", "age")]),
]

#: Whole-document descendant scans bundled into the same workload.
NAV_DESCENDANT_TAGS = ["person", "city", "interest", "education", "date"]

#: Child-step-only paths (the fig 3-style query navigation load).
NAV_CHILD_PATHS = [
    ("/site/people/person/profile/age",
     [("child", "site"), ("child", "people"), ("child", "person"),
      ("child", "profile"), ("child", "age")]),
    ("/site/people/person/address/city",
     [("child", "site"), ("child", "people"), ("child", "person"),
      ("child", "address"), ("child", "city")]),
    ("/site/closed_auctions/closed_auction/date",
     [("child", "site"), ("child", "closed_auctions"),
      ("child", "closed_auction"), ("child", "date")]),
]

#: Tags of decreasing match frequency for the fig 9.3-style sweep.
SELECTIVITY_TAGS = ["interest", "person", "city", "initial", "people"]

UPDATE_BATCH = 8
MAINTENANCE_BATCH = 4
API_BATCH = 10
#: informational ratio target, and the gated absolute per-statement cost.
#: The facade's relative overhead is measured against view maintenance
#: that the operator-state store made O(batch) instead of O(document)
#: (work units dropped ~6x), so the stable facade claim is absolute: each
#: path-addressed statement may add at most this many seconds over the
#: pre-resolved direct stream.
API_OVERHEAD_TARGET = 0.05
API_STATEMENT_OVERHEAD_TARGET = 100e-6

#: A descendant-heavy view: its V-P-A maintenance navigates ``//`` paths
#: from the document root, the regime where range scans replace walks.
DESC_VIEW_QUERY = """<result>{
for $c in doc("site.xml")//city
return <c>{$c}</c>
}</result>"""

MAINTENANCE_QUERIES = [("join", xmark.JOIN_QUERY),
                       ("descendant-city", DESC_VIEW_QUERY)]


# -- workloads (indexed / unindexed run the same calls) ----------------------------

def run_paths(storage, paths, indexed: bool):
    find = (storage.find_by_path if indexed
            else storage.find_by_path_unindexed)
    results = []
    for _label, steps in paths:
        results.append(find("site.xml", steps))
    return results


def run_descendant_scans(storage, tags, indexed: bool):
    root = storage.root_key("site.xml")
    scan = storage.descendants if indexed else storage.descendants_unindexed
    return [scan(root, tag) for tag in tags]


def _series_entry(num_persons: int, indexed_s: float, unindexed_s: float,
                  **extra) -> dict:
    entry = {"persons": num_persons,
             "indexed_seconds": indexed_s,
             "unindexed_seconds": unindexed_s,
             "speedup": unindexed_s / indexed_s if indexed_s > 0 else None}
    entry.update(extra)
    return entry


def measure_navigation(scenario_paths, desc_tags, scale_list, repeat: int
                       ) -> tuple[list[dict], bool]:
    series = []
    consistent = True
    for n in scale_list:
        storage = fresh_site(n)
        fast = run_paths(storage, scenario_paths, True)
        slow = run_paths(storage, scenario_paths, False)
        fast += run_descendant_scans(storage, desc_tags, True)
        slow += run_descendant_scans(storage, desc_tags, False)
        consistent = consistent and fast == slow
        indexed_s = time_call(
            lambda: (run_paths(storage, scenario_paths, True),
                     run_descendant_scans(storage, desc_tags, True)),
            repeat=repeat)
        unindexed_s = time_call(
            lambda: (run_paths(storage, scenario_paths, False),
                     run_descendant_scans(storage, desc_tags, False)),
            repeat=repeat)
        series.append(_series_entry(
            n, indexed_s, unindexed_s,
            matches=sum(len(r) for r in fast)))
    return series, consistent


def measure_selectivity(num_persons: int, repeat: int
                        ) -> tuple[list[dict], bool]:
    storage = fresh_site(num_persons)
    root = storage.root_key("site.xml")
    total_elements = len(storage.descendants(root)) + 1
    series = []
    consistent = True
    for tag in SELECTIVITY_TAGS:
        fast = storage.descendants(root, tag)
        slow = storage.descendants_unindexed(root, tag)
        consistent = consistent and fast == slow
        indexed_s = time_call(lambda: storage.descendants(root, tag),
                              repeat=repeat)
        unindexed_s = time_call(
            lambda: storage.descendants_unindexed(root, tag), repeat=repeat)
        series.append(_series_entry(
            num_persons, indexed_s, unindexed_s, tag=tag, matches=len(fast),
            selectivity=len(fast) / total_elements))
    return series, consistent


def measure_maintenance(scale_list, repeat: int) -> list[dict]:
    def maintain_once(query: str, n: int, indexed: bool) -> float:
        storage, view = materialized_view(query, n, indexed=indexed)
        anchors = persons(storage)
        updates = [UpdateRequest.insert(
            "site.xml", anchors[-1], xmark.new_person_xml(i), "after")
            for i in range(MAINTENANCE_BATCH)]
        return view.apply_updates(updates).total_seconds

    series = []
    for n in scale_list:
        for query_name, query in MAINTENANCE_QUERIES:
            timings = {indexed: min(maintain_once(query, n, indexed)
                                    for _ in range(repeat))
                       for indexed in (True, False)}
            series.append(_series_entry(n, timings[True], timings[False],
                                        query=query_name,
                                        batch=MAINTENANCE_BATCH))
    return series


JOIN_MAINT_BATCH = 4

#: flatness target of the ISSUE acceptance: persistent per-batch time may
#: vary by at most this factor across the 50→400-person sweep
JOIN_MAINT_FLAT_TARGET = 2.0


#: the join-maintenance execution arms: the shipping configuration
#: (persistent operator state) and the stateless one
JOIN_MAINT_ARMS = (
    ("persistent", {"operator_state": True}),
    ("cold", {"operator_state": False}),
)


def measure_join_maintenance(scale_list, repeat: int) -> list[dict]:
    """Steady-state join-view maintenance across the execution arms.

    One measured unit is an insert batch of ``JOIN_MAINT_BATCH`` persons
    propagated through the join view; the inserted persons are deleted
    again (untimed for the series, but also maintained — keeping the
    operator state warm across cycles).  The first cycle is an untimed
    warm-up that populates the persistent side's cached tables; cold
    views re-derive their side tables every batch, which is the
    O(document) regime this scenario exposes.

    Two arms run per scale: ``persistent`` (the shipping config — the
    persistent operator-state store) and ``cold`` (stateless).  Besides
    the min-of-N wall time each arm records the *median per-batch
    propagate phase* (``MaintenanceReport.propagate_seconds``), which
    isolates the execution engine from the shared storage-mutation cost.
    """
    series = []
    for n in scale_list:
        entry = {"persons": n, "batch": JOIN_MAINT_BATCH}
        xml = {}
        for label, options in JOIN_MAINT_ARMS:
            storage = fresh_site(n)
            view = MaterializedXQueryView(storage, xmark.JOIN_QUERY,
                                          **options)
            view.materialize()
            anchor = persons(storage)[-1]

            def insert_batch():
                return view.apply_updates([
                    UpdateRequest.insert("site.xml", anchor,
                                         xmark.new_person_xml(9000 + i),
                                         "after")
                    for i in range(JOIN_MAINT_BATCH)])

            def restore():
                view.apply_updates([
                    UpdateRequest.delete("site.xml", key)
                    for key in persons(storage)[n:]])

            insert_batch()   # warm-up populates the operator state
            restore()
            best = float("inf")
            propagates = []
            # Sub-ms units under host contention need more cycles than
            # the document-scaled scenarios: the gate compares two
            # minima across a sweep, so each must actually be a minimum.
            for _ in range(max(repeat * 2, 7)):
                started = time.perf_counter()
                report = insert_batch()
                best = min(best, time.perf_counter() - started)
                propagates.append(report.propagate_seconds)
                restore()
            entry[f"{label}_seconds"] = best
            entry[f"{label}_propagate_seconds"] = \
                statistics.median(propagates)
            xml[label] = view.to_xml()
            entry.setdefault("consistency_ok", True)
            entry["consistency_ok"] = (entry["consistency_ok"]
                                       and xml[label]
                                       == view.recompute_xml())
            view.close()
        entry["consistency_ok"] = (entry["consistency_ok"]
                                   and xml["persistent"] == xml["cold"])
        entry["speedup"] = (entry["cold_seconds"]
                            / entry["persistent_seconds"]
                            if entry["persistent_seconds"] > 0 else None)
        series.append(entry)
    return series


def join_maintenance_gate(series: list[dict]) -> dict:
    """The CI gate: persistent per-batch time must not grow superlinearly
    with document size (and must stay under the flatness target on the
    full sweep), with every consistency check green."""
    first, last = series[0], series[-1]
    flat_ratio = (last["persistent_seconds"] / first["persistent_seconds"]
                  if first["persistent_seconds"] > 0 else float("inf"))
    scale_ratio = last["persons"] / first["persons"]
    consistency = all(entry["consistency_ok"] for entry in series)
    # Smoke runs sweep a narrow range where sub-ms jitter dominates; the
    # flatness target only binds once the sweep spans the full 8x range.
    # A single-scale run has no growth to judge: consistency alone gates.
    if scale_ratio <= 1.0:
        target = None
        ok = consistency
    else:
        target = (JOIN_MAINT_FLAT_TARGET if scale_ratio >= 8.0
                  else scale_ratio)
        ok = consistency and flat_ratio < target
    return {"flat_ratio": flat_ratio,
            "scale_ratio": scale_ratio,
            "target": target,
            "consistency_ok": consistency,
            "ok": ok}


MODIFY_HEAVY_BATCH = 6

#: the incremental per-batch cost must stay no worse than full
#: recomputation (min-of-N timings); only judged at document sizes
#: where a batch outruns sub-ms timer jitter
MODIFY_HEAVY_TARGET = 1.0
MODIFY_HEAVY_JUDGE_SCALE = 100


#: the modify-heavy arms: (label, cost model)
MODIFY_HEAVY_ARMS = (
    ("incremental", _NeverRecompute),
    ("recompute", _AlwaysRecompute),
)


def measure_modify_heavy(scale_list, repeat: int) -> list[dict]:
    """Modify-dominated batches: incremental pairs vs full recomputation.

    One measured unit is a batch of ``MODIFY_HEAVY_BATCH`` city-text
    modifies — each feeds ``distinct-values``/``order by`` and the
    persons-by-city grouping, so every one is an *insufficient* modify
    that travels as a first-class retract/assert pair.  The incremental
    arm pins the cost model to never recompute; the oracle arm pins it
    to always recompute — the fallback the incremental path must beat.
    Cities rotate per round so every batch genuinely moves groups.  All
    extents are checked against the recomputation oracle after the
    timed rounds.  The incremental arm also records its median per-batch
    *propagate* seconds (cumulative
    ``MaintenanceReport.propagate_seconds`` diffed per flush).
    """
    city_path = [("child", "site"), ("child", "people"),
                 ("child", "person"), ("child", "address"),
                 ("child", "city")]
    series = []
    for n in scale_list:
        entry = {"persons": n, "batch": MODIFY_HEAVY_BATCH}
        for label, model in MODIFY_HEAVY_ARMS:
            storage = fresh_site(n)
            registry = ViewRegistry(storage)
            registry.register("by-city", xmark.PERSONS_BY_CITY_QUERY,
                              cost_model=model())
            targets = storage.find_by_path(
                "site.xml", city_path)[:MODIFY_HEAVY_BATCH]

            def modify_batch(round_index: int):
                return [UpdateRequest.modify(
                    "site.xml", key,
                    xmark.CITIES[(round_index + i) % len(xmark.CITIES)])
                    for i, key in enumerate(targets)]

            report = registry.apply_updates(modify_batch(0))  # warm-up
            # The registry report's propagate clock is cumulative per
            # view: per-batch phase cost is the diff between flushes.
            propagated = report.views["by-city"].propagate_seconds
            best = float("inf")
            propagates = []
            for round_index in range(1, max(repeat * 2, 6)):
                batch = modify_batch(round_index)
                started = time.perf_counter()
                report = registry.apply_updates(batch)
                best = min(best, time.perf_counter() - started)
                cumulative = report.views["by-city"].propagate_seconds
                propagates.append(cumulative - propagated)
                propagated = cumulative
            entry[f"{label}_seconds"] = best
            if label != "recompute":
                entry[f"{label}_propagate_seconds"] = \
                    statistics.median(propagates)
            entry[f"{label}_consistent"] = (
                registry.to_xml("by-city")
                == registry.recompute_xml("by-city"))
            registry.close()
        # A zero recompute measurement would be a broken timer; inf
        # keeps the gate comparison and the table printable — and
        # failing.
        entry["ratio"] = (entry["incremental_seconds"]
                          / entry["recompute_seconds"]
                          if entry["recompute_seconds"] > 0
                          else float("inf"))
        series.append(entry)
    return series


def modify_heavy_gate(series: list[dict]) -> dict:
    """CI gate: every arm must match the oracle at every scale and the
    incremental path must cost no more per batch than recomputation at
    every judged document size.  Smoke sweeps below the judge scale have
    batches in the timer-jitter regime: consistency alone gates there
    (``worst_ratio`` is then null)."""
    consistency = all(entry["incremental_consistent"]
                      and entry["recompute_consistent"]
                      for entry in series)
    judged = [entry["ratio"] for entry in series
              if entry["persons"] >= MODIFY_HEAVY_JUDGE_SCALE]
    worst_ratio = max(judged) if judged else None
    ok = (consistency
          and (worst_ratio is None or worst_ratio <= MODIFY_HEAVY_TARGET))
    return {"worst_ratio": worst_ratio,
            "target": MODIFY_HEAVY_TARGET,
            "judge_scale": MODIFY_HEAVY_JUDGE_SCALE,
            "consistency_ok": consistency,
            "ok": ok}


#: the scripted update history both sides re-create: checkpointed
#: batches, then batches that live only in the WAL tail at crash time
RESTORE_WARM_BATCHES = 2
RESTORE_TAIL_BATCHES = 2
RESTORE_BATCH = 4

RESTORE_VIEWS = [("join", xmark.JOIN_QUERY),
                 ("bycity", xmark.PERSONS_BY_CITY_QUERY)]


def _restore_history_batches(db: Database, offset: int, count: int):
    """Apply ``count`` deterministic person-insert batches."""
    for index in range(count):
        anchor = persons(db.storage)[-1]
        db.registry.apply_updates([
            UpdateRequest.insert(
                "site.xml", anchor,
                xmark.new_person_xml(7000 + offset * RESTORE_BATCH
                                     * 100 + index * RESTORE_BATCH + i),
                "after")
            for i in range(RESTORE_BATCH)])


def measure_cold_vs_restore(scale_list, repeat: int) -> list[dict]:
    """Session restart cost: cold rebuild vs durable-directory restore.

    The durable side is prepared once per scale — load, materialize,
    ``RESTORE_WARM_BATCHES`` batches, an explicit checkpoint,
    ``RESTORE_TAIL_BATCHES`` more batches, then a crash (no close, so
    the tail stays WAL-only).  Each timed restore opens a fresh copy of
    that directory (recovery truncates torn state in place, so copies
    keep the repeats identical); each timed cold start re-parses the
    document, re-materializes both views and re-applies the whole
    history.  Both sides must serve identical XML for every view.
    """
    series = []
    for n in scale_list:
        site_xml = xmark.generate_site(n, seed=1)

        def cold_once() -> Database:
            db = Database()
            db.load("site.xml", site_xml)
            for view_name, query in RESTORE_VIEWS:
                db.create_view(view_name, query)
            _restore_history_batches(db, 0, RESTORE_WARM_BATCHES)
            _restore_history_batches(db, 1, RESTORE_TAIL_BATCHES)
            return db

        with tempfile.TemporaryDirectory(prefix="bench-restore-") as tmp:
            base = f"{tmp}/base"
            db = Database(durable_path=base, fsync="off")
            db.load("site.xml", site_xml)
            for view_name, query in RESTORE_VIEWS:
                db.create_view(view_name, query)
            _restore_history_batches(db, 0, RESTORE_WARM_BATCHES)
            db.checkpoint()
            _restore_history_batches(db, 1, RESTORE_TAIL_BATCHES)
            reference = {name: db.read(name) for name in db.views()}
            del db                                  # crash: tail stays WAL

            restore_s = float("inf")
            restored_xml = None
            for index in range(repeat):
                copy = f"{tmp}/copy{index}"
                shutil.copytree(base, copy)
                started = time.perf_counter()
                rdb = Database(durable_path=copy, fsync="off")
                restore_s = min(restore_s,
                                time.perf_counter() - started)
                if restored_xml is None:
                    restored_xml = {name: rdb.read(name)
                                    for name in rdb.views()}
                    replayed = rdb.durability.last_recovery \
                                  .wal_records_replayed
                rdb.registry.close()                # no close-checkpoint

        cold_s = float("inf")
        cold_xml = None
        for _ in range(repeat):
            started = time.perf_counter()
            cdb = cold_once()
            cold_s = min(cold_s, time.perf_counter() - started)
            if cold_xml is None:
                cold_xml = {name: cdb.read(name) for name in cdb.views()}
            cdb.close()

        series.append({
            "persons": n,
            "cold_seconds": cold_s,
            "restore_seconds": restore_s,
            "wal_records_replayed": replayed,
            "speedup": cold_s / restore_s if restore_s > 0 else None,
            "consistency_ok": (restored_xml == reference
                               and cold_xml == reference)})
    return series


def cold_vs_restore_gate(series: list[dict]) -> dict:
    """CI gate: identical XML on both sides at every scale, and at the
    largest scale the restore strictly beats the cold rebuild."""
    consistency = all(entry["consistency_ok"] for entry in series)
    largest = series[-1]
    ok = consistency and (largest["restore_seconds"]
                          < largest["cold_seconds"])
    return {"persons": largest["persons"],
            "cold_seconds": largest["cold_seconds"],
            "restore_seconds": largest["restore_seconds"],
            "speedup": largest["speedup"],
            "consistency_ok": consistency,
            "ok": ok}


def measure_update_overhead(scale_list, repeat: int) -> list[dict]:
    """Index upkeep cost: an insert+delete batch returns storage to its
    initial state, so the same manager is timed repeatedly."""
    series = []
    fragments_xml = [xmark.new_person_xml(i) for i in range(UPDATE_BATCH)]
    for n in scale_list:
        timings = {}
        for indexed in (True, False):
            storage = fresh_site(n, indexed=indexed)
            people = storage.find_by_path(
                "site.xml", [("child", "site"), ("child", "people")])[0]

            def work():
                inserted = [storage.insert_fragment(
                    people, parse_fragment(xml)[0])
                    for xml in fragments_xml]
                for key in inserted:
                    storage.delete_subtree(key)

            timings[indexed] = time_call(work, repeat=repeat)
        series.append(_series_entry(n, timings[True], timings[False],
                                    batch=UPDATE_BATCH))
    return series


def measure_api_overhead(scale_list, repeat: int) -> list[dict]:
    """Facade cost: the same logical insert+delete stream — one run of
    ``API_BATCH`` person inserts, then one run deleting them — driven
    through ``Database.batch`` (path-addressed, resolved at flush) and
    directly through ``ViewRegistry.apply_updates`` with pre-resolved
    keys, against a two-view (selection + join) registry.  Each work
    unit returns storage to its initial state, so the same session is
    timed repeatedly.

    Scales below 100 persons are skipped: there a work unit finishes in
    a few milliseconds and the ratio is dominated by timer jitter rather
    than by facade cost.  The scales actually measured are recorded in
    the series.  Views are pinned to the incremental path (a
    never-recompute cost model) so both sides do identical maintenance
    work and the measured delta is the facade alone."""
    fragments = [xmark.new_person_xml(9000 + i, age=70)
                 for i in range(API_BATCH)]
    views = [("seniors", xmark.SELECTION_QUERY),
             ("sales", xmark.JOIN_QUERY)]
    # Work units are a few milliseconds and host noise has heavy tails
    # (pairwise ratios can spike 2-4x); the median needs many more pairs
    # than the document-scaled scenarios need repeats.
    repeat = max(repeat * 5, 15)
    api_scales = [n for n in scale_list if n >= 100] or [max(scale_list)]
    series = []
    for n in api_scales:
        storage = fresh_site(n)
        registry = ViewRegistry(storage)
        for view_name, query in views:
            registry.register(view_name, query,
                              cost_model=_NeverRecompute())

        def direct_work():
            anchor = persons(storage)[-1]
            registry.apply_updates([
                UpdateRequest.insert("site.xml", anchor, fragment, "after")
                for fragment in fragments])
            registry.apply_updates([
                UpdateRequest.delete("site.xml", key)
                for key in persons(storage)[n:]])

        db = Database(storage=fresh_site(n))
        for view_name, query in views:
            db.create_view(view_name, query,
                           cost_model=_NeverRecompute())

        def api_work():
            with db.batch():
                for fragment in fragments:
                    db.update("site.xml") \
                        .at(f"/site/people/person[{n}]") \
                        .insert(fragment, position="after")
            with db.batch():
                for i in range(API_BATCH):
                    db.update("site.xml") \
                        .at(f"/site/people/person[{n + 1 + i}]").delete()

        direct_work()   # warm caches before timing, so neither side
        api_work()      # pays setup in its best
        # Time the two sides in adjacent pairs and take the *median of
        # pairwise ratios*: host-level slow phases hit both units of a
        # pair, so the ratio cancels drift that would dominate a
        # min-of-N comparison of independently timed sides.  The order
        # inside a pair alternates (periodic noise decorrelates) and the
        # cyclic GC is paused so collection pauses triggered by one
        # side's allocations don't land on the other's clock.
        ratios = []
        direct_times = []
        api_times = []
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for index in range(repeat):
                if index % 2:
                    api_t = time_call(api_work, repeat=1)
                    direct_t = time_call(direct_work, repeat=1)
                else:
                    direct_t = time_call(direct_work, repeat=1)
                    api_t = time_call(api_work, repeat=1)
                direct_times.append(direct_t)
                api_times.append(api_t)
                ratios.append(api_t / direct_t)
                gc.collect()
        finally:
            if gc_was_enabled:
                gc.enable()
        registry.close()
        db.close()
        series.append({"persons": n, "batch": API_BATCH,
                       "direct_seconds": statistics.median(direct_times),
                       "api_seconds": statistics.median(api_times),
                       "overhead": statistics.median(ratios) - 1.0,
                       "statements": 2 * API_BATCH,
                       "per_statement_seconds": max(
                           0.0,
                           (statistics.median(api_times)
                            - statistics.median(direct_times))
                           / (2 * API_BATCH))})
    return series


#: always-on instrumentation budget (informational; the gated claim is
#: ``api_overhead``, which already runs with the layer enabled)
OBS_OVERHEAD_TARGET = 0.02


def measure_observability(num_persons: int, repeat: int
                          ) -> tuple[dict, dict]:
    """The instrumentation tax in isolation: one facade workload, the
    metrics/tracing layer enabled (the shipping default — counters
    mirrored, histograms observed, no trace sink attached) vs
    force-disabled through ``repro.obs.set_enabled(False)``.

    Timed in adjacent enabled/disabled pairs with alternating order and
    the cyclic GC paused, exactly like the facade comparison, because
    the expected delta (a few percent at most) is smaller than host
    drift.  Returns the series entry and the ``Database.metrics()``
    snapshot collected at the end of the enabled run — the payload the
    ``--metrics-json`` flag persists for the CI metrics-smoke artifact.
    """
    n = num_persons
    fragments = [xmark.new_person_xml(9500 + i, age=70)
                 for i in range(API_BATCH)]
    db = Database(storage=fresh_site(n))
    for view_name, query in [("seniors", xmark.SELECTION_QUERY),
                             ("sales", xmark.JOIN_QUERY)]:
        db.create_view(view_name, query, cost_model=_NeverRecompute())

    def work():
        with db.batch():
            for fragment in fragments:
                db.update("site.xml") \
                    .at(f"/site/people/person[{n}]") \
                    .insert(fragment, position="after")
        with db.batch():
            for i in range(API_BATCH):
                db.update("site.xml") \
                    .at(f"/site/people/person[{n + 1 + i}]").delete()

    def timed(flag: bool) -> float:
        previous = set_enabled(flag)
        try:
            return time_call(work, repeat=1)
        finally:
            set_enabled(previous)

    work()   # warm caches outside the timed pairs
    pairs = max(repeat * 5, 15)
    enabled_times, disabled_times, ratios = [], [], []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for index in range(pairs):
            if index % 2:
                off = timed(False)
                on = timed(True)
            else:
                on = timed(True)
                off = timed(False)
            enabled_times.append(on)
            disabled_times.append(off)
            ratios.append(on / off)
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    snapshot = db.metrics()
    db.close()
    entry = {"persons": n, "batch": API_BATCH,
             "enabled_seconds": statistics.median(enabled_times),
             "disabled_seconds": statistics.median(disabled_times),
             "overhead": statistics.median(ratios) - 1.0}
    return entry, snapshot


#: fan-out levels of the serving-layer benchmark (1 -> 100 -> 1000
#: subscribers; clamped to what the process fd limit can actually hold)
FANOUT_LEVELS = [1, 100, 1000]
FANOUT_UPDATES = 20

FANOUT_DOC = "<data><row><name>seed</name></row></data>"
FANOUT_QUERY = '<r>{for $x in doc("data.xml")/data/row return $x}</r>'


def _fanout_capacity(requested: int) -> int:
    """Raise the fd soft limit as far as allowed and clamp the
    subscriber count: each subscriber costs two descriptors (both
    socket ends live in this process)."""
    try:
        import resource
    except ImportError:                        # non-POSIX: stay modest
        return min(requested, 64)
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < hard:
        try:
            resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))
            soft = hard
        except (ValueError, OSError):
            pass
    return max(1, min(requested, (soft - 128) // 2))


def measure_server_fanout(levels, updates: int = FANOUT_UPDATES
                          ) -> list[dict]:
    """The serving layer under push fan-out: one writer, S subscribers.

    Per level: a served database with the identity rows view (pinned
    incremental so every refresh pushes a real delta), ``S`` raw-socket
    subscribers drained by a single ``selectors`` thread, and a control
    client issuing ``updates`` single-insert batches.  Reported:
    acknowledged updates/sec over the whole window (issue first update
    -> every subscriber holds every delta), the total pushed-frame
    rate, and how far delivery trailed the last update ack.  A level
    only counts as delivered when every subscriber saw every sequence
    number in order with no gaps — the benchmark doubles as a fan-out
    correctness check.
    """
    series = []
    for requested in levels:
        count = _fanout_capacity(requested)
        db = Database()
        db.load("data.xml", FANOUT_DOC)
        db.create_view("rows", FANOUT_QUERY,
                       cost_model=_NeverRecompute())
        handle = start_in_thread(db, own_db=True)
        selector = selectors.DefaultSelector()
        sockets = []
        try:
            for _ in range(count):
                sock = socket.create_connection((handle.host,
                                                 handle.port))
                sock.sendall(encode_frame(
                    {"id": 1, "op": "subscribe", "view": "rows",
                     "limit": 1_000_000}))
                decoder = FrameDecoder()
                subscribed = False
                while not subscribed:
                    for frame in decoder.feed(sock.recv(65536)):
                        subscribed = subscribed or frame.get("id") == 1
                sock.setblocking(False)
                selector.register(sock, selectors.EVENT_READ,
                                  {"decoder": decoder, "last": 0,
                                   "gap": False})
                sockets.append(sock)

            done = threading.Event()
            remaining = [count]

            def drain():
                while not done.is_set():
                    for key, _ in selector.select(timeout=0.2):
                        try:
                            data = key.fileobj.recv(1 << 20)
                        except (BlockingIOError, OSError):
                            continue
                        if not data:
                            continue
                        state = key.data
                        for frame in state["decoder"].feed(data):
                            if frame.get("type") != "delta":
                                continue
                            if frame["sequence"] != state["last"] + 1:
                                state["gap"] = True
                            state["last"] = frame["sequence"]
                            if state["last"] == updates:
                                remaining[0] -= 1
                                if remaining[0] == 0:
                                    done.set()

            drainer = threading.Thread(target=drain, daemon=True)
            with ReproClient(handle.host, handle.port) as control:
                started = time.perf_counter()
                drainer.start()
                for index in range(updates):
                    control.update([
                        'for $d in document("data.xml")/data update $d '
                        f'insert <row><name>u{index}</name></row> '
                        'into $d'])
                acked = time.perf_counter()
                done.wait(timeout=120)
                finished = time.perf_counter()
            drainer.join(timeout=5)
            elapsed = finished - started
            delivered_ok = done.is_set() and not any(
                key.data["gap"] for key in selector.get_map().values())
            series.append({
                "subscribers": count,
                "requested": requested,
                "updates": updates,
                "updates_per_second": (updates / elapsed
                                       if elapsed > 0 else None),
                "frames_per_second": (count * updates / elapsed
                                      if elapsed > 0 else None),
                "delivery_lag_seconds": finished - acked,
                "delivered_ok": delivered_ok})
        finally:
            for sock in sockets:
                sock.close()
            selector.close()
            handle.stop()
    return series


def server_fanout_gate(series: list[dict]) -> dict:
    """CI gate: complete, in-order, gap-free delivery to every
    subscriber at every fan-out level.  Throughput numbers are recorded
    but not thresholded — hosts vary too much; completeness does not."""
    delivered = all(entry["delivered_ok"] for entry in series)
    largest = series[-1]
    return {"levels": [entry["subscribers"] for entry in series],
            "max_subscribers": largest["subscribers"],
            "updates_per_second": largest["updates_per_second"],
            "frames_per_second": largest["frames_per_second"],
            "delivered_ok": delivered,
            "ok": delivered}


RECONNECT_ROUNDS = 5
RECONNECT_BATCH = 4
#: resume-latency gate: median drop -> caught-up time per round.  The
#: client's reconnect backoff starts at 20ms, so a healthy resume lands
#: in tens of milliseconds; the bound only exists to catch regressions
#: into retry storms or replay stalls, not to benchmark the host.
RECONNECT_RESUME_TARGET = 2.0


def measure_reconnect_resume(rounds: int = RECONNECT_ROUNDS,
                             batch: int = RECONNECT_BATCH) -> list[dict]:
    """Serving resilience: severed subscriber, backlog replay, retried
    mutation — timed over ``rounds`` forced disconnects.

    One resilient client (``reconnect=True``) holds a push subscription
    while a separate writer session mutates the view.  Each round: the
    writer streams ``batch`` live updates (drained), the client's TCP
    connection is severed (``drop_connection``), the writer issues
    ``batch`` more updates the subscriber *misses*, and the client
    itself retries one tokened mutation through the reconnect.  The
    measured unit is drop -> fully caught up (reconnect handshake,
    ``from_sequence`` backlog replay, and live delivery of the retried
    mutation's own push).  Delivery is checked exactly-once: every
    sequence number covered exactly once (replayed frames expand their
    explicit ``from_sequence`` range), and every acked mutation holds a
    distinct ``applied_index``.
    """
    db = Database()
    db.load("data.xml", FANOUT_DOC)
    db.create_view("rows", FANOUT_QUERY, cost_model=_NeverRecompute())
    handle = start_in_thread(db, own_db=True)
    covered: list[int] = []
    acked: list[int] = []
    latencies: list[float] = []

    def drain_until(subscription, upto: int) -> None:
        while not covered or max(covered) < upto:
            frame = subscription.get(timeout=30)
            start = frame.get("from_sequence", frame["sequence"])
            covered.extend(range(start, frame["sequence"] + 1))

    try:
        client = ReproClient(handle.host, handle.port, reconnect=True,
                             timeout=10.0, max_retries=20, backoff=0.02,
                             backoff_cap=0.25, retry_window=30.0,
                             client_id="bench-resume")
        subscription = client.subscribe("rows")
        sequence = 0
        with ReproClient(handle.host, handle.port) as writer:
            for round_index in range(rounds):
                for index in range(batch):
                    reply = writer.update([
                        'for $d in document("data.xml")/data update $d '
                        f'insert <row><name>live{round_index}.{index}'
                        '</name></row> into $d'])
                    acked.append(reply["applied_index"])
                    sequence += 1
                drain_until(subscription, sequence)
                started = time.perf_counter()
                client.drop_connection()
                for index in range(batch):
                    reply = writer.update([
                        'for $d in document("data.xml")/data update $d '
                        f'insert <row><name>miss{round_index}.{index}'
                        '</name></row> into $d'])
                    acked.append(reply["applied_index"])
                    sequence += 1
                # a tokened mutation retried through the reconnect
                reply = client.update([
                    'for $d in document("data.xml")/data update $d '
                    f'insert <row><name>retry{round_index}</name></row> '
                    'into $d'])
                acked.append(reply["applied_index"])
                sequence += 1
                drain_until(subscription, sequence)
                latencies.append(time.perf_counter() - started)
        reconnects = client.reconnects
        client.close()
    finally:
        handle.stop()
    duplicates = len(covered) - len(set(covered))
    return [{"rounds": rounds, "batch": batch,
             "resume_median_seconds": statistics.median(latencies),
             "resume_max_seconds": max(latencies),
             "reconnects": reconnects,
             "duplicates": duplicates,
             "coverage_ok": sorted(set(covered))
             == list(range(1, sequence + 1)),
             "acked_unique_ok": len(set(acked)) == len(acked)}]


def reconnect_resume_gate(series: list[dict]) -> dict:
    """CI gate: exactly-once delivery across every forced disconnect
    (zero duplicates, full explicit coverage, distinct mutation
    tickets) and a resume latency clear of retry-storm territory."""
    entry = series[0]
    delivery = (entry["duplicates"] == 0 and entry["coverage_ok"]
                and entry["acked_unique_ok"])
    ok = delivery and (entry["resume_median_seconds"]
                       < RECONNECT_RESUME_TARGET)
    return {"rounds": entry["rounds"],
            "resume_median_seconds": entry["resume_median_seconds"],
            "resume_max_seconds": entry["resume_max_seconds"],
            "target_seconds": RECONNECT_RESUME_TARGET,
            "reconnects": entry["reconnects"],
            "duplicates": entry["duplicates"],
            "delivery_ok": delivery,
            "ok": ok}


def run_suite(scale_list, repeat: int = 3,
              fanout_levels=None) -> dict:
    # The facade and instrumentation comparisons run first: their paired
    # ratios are the most noise-sensitive measurements in the suite, and
    # the document sweeps below leave a large heap behind that skews
    # small-unit timings.
    api_series = measure_api_overhead(scale_list, repeat)
    obs_scale = max([n for n in scale_list if n >= 100]
                    or [max(scale_list)])
    obs_entry, metrics_snapshot = measure_observability(obs_scale, repeat)
    join_series = measure_join_maintenance(scale_list, repeat)
    modify_series = measure_modify_heavy(scale_list, repeat)
    restore_series = measure_cold_vs_restore(scale_list, repeat)
    nav_desc, ok_desc = measure_navigation(
        NAV_DESCENDANT_PATHS, NAV_DESCENDANT_TAGS, scale_list, repeat)
    nav_child, ok_child = measure_navigation(
        NAV_CHILD_PATHS, [], scale_list, repeat)
    selectivity, ok_sel = measure_selectivity(scale_list[-1], repeat)
    fanout_series = measure_server_fanout(fanout_levels or FANOUT_LEVELS)
    reconnect_series = measure_reconnect_resume()
    scenarios = [
        {"name": "navigation_descendant",
         "style": "fig 9.2 regime: descendant-heavy navigation vs doc size",
         "series": nav_desc},
        {"name": "navigation_child_paths",
         "style": "fig 3 regime: child-step location paths vs doc size",
         "series": nav_child},
        {"name": "selectivity",
         "style": "fig 9.3 regime: descendant scans by tag selectivity",
         "series": selectivity},
        {"name": "view_maintenance_insert",
         "style": "fig 9.2 maintenance: insert batch, per view query",
         "series": measure_maintenance(scale_list, repeat)},
        {"name": "join_maintenance",
         "style": "operator state: join-view batch maintenance, "
                  "persistent vs cold",
         "series": join_series},
        {"name": "modify_heavy",
         "style": "incremental first-class modify pairs vs full "
                  "recomputation, modify-dominated batches",
         "series": modify_series},
        {"name": "cold_start_vs_restore",
         "style": "durability payoff: cold session rebuild vs "
                  "checkpoint restore + WAL-tail replay",
         "series": restore_series},
        {"name": "update_overhead",
         "style": "index upkeep: raw insert+delete batch",
         "series": measure_update_overhead(scale_list, repeat)},
        {"name": "api_overhead",
         "style": "session facade: Database.batch vs direct "
                  "ViewRegistry.apply_updates",
         "series": api_series},
        {"name": "observability_overhead",
         "style": "instrumentation tax: repro.obs enabled vs "
                  "set_enabled(False), same facade workload",
         "series": [obs_entry]},
        {"name": "server_fanout",
         "style": "serving layer: one writer, N push subscribers over "
                  "real sockets",
         "series": fanout_series},
        {"name": "reconnect_resume",
         "style": "serving resilience: forced disconnects, backlog "
                  "replay, idempotent retried mutations",
         "series": reconnect_series},
    ]
    headline = nav_desc[-1]
    max_overhead = max(entry["overhead"] for entry in api_series)
    max_per_statement = max(entry["per_statement_seconds"]
                            for entry in api_series)
    join_gate = join_maintenance_gate(join_series)
    modify_gate = modify_heavy_gate(modify_series)
    restore_gate = cold_vs_restore_gate(restore_series)
    fanout_gate = server_fanout_gate(fanout_series)
    reconnect_gate = reconnect_resume_gate(reconnect_series)
    return {
        "suite": "perf_suite",
        "description": "indexed StructuralIndex fast paths vs walk-based "
                       "unindexed fallbacks across XMark scaling factors, "
                       "plus the Database facade overhead and the "
                       "persistent operator-state maintenance gate",
        "scales": list(scale_list),
        "repeat": repeat,
        "consistency_ok": (ok_desc and ok_child and ok_sel
                           and join_gate["consistency_ok"]
                           and modify_gate["consistency_ok"]
                           and restore_gate["consistency_ok"]
                           and fanout_gate["delivered_ok"]
                           and reconnect_gate["delivery_ok"]),
        "scenarios": scenarios,
        "headline": {"scenario": "navigation_descendant",
                     "persons": headline["persons"],
                     "speedup": headline["speedup"]},
        "api_overhead": {"target": API_OVERHEAD_TARGET,
                         "max_overhead": max_overhead,
                         "statement_target":
                             API_STATEMENT_OVERHEAD_TARGET,
                         "max_per_statement_seconds":
                             max_per_statement,
                         "ok": (max_overhead < API_OVERHEAD_TARGET
                                or max_per_statement
                                < API_STATEMENT_OVERHEAD_TARGET)},
        "join_maintenance": join_gate,
        "modify_heavy": modify_gate,
        "cold_start_vs_restore": restore_gate,
        "server_fanout": fanout_gate,
        "reconnect_resume": reconnect_gate,
        "observability": {
            "instrumentation_enabled": True,
            "target": OBS_OVERHEAD_TARGET,
            "overhead": obs_entry["overhead"],
            "within_target": obs_entry["overhead"] < OBS_OVERHEAD_TARGET,
            "note": "api_overhead is measured and gated with the "
                    "repro.obs metrics/tracing layer in its shipping "
                    "(enabled) state; 'overhead' is the same workload "
                    "enabled vs repro.obs.set_enabled(False), "
                    "informational only",
        },
        "_metrics_snapshot": metrics_snapshot,
    }


def print_suite(result: dict) -> None:
    for scenario in result["scenarios"]:
        rows = []
        if scenario["name"] == "api_overhead":
            for entry in scenario["series"]:
                rows.append([entry["persons"], ms(entry["direct_seconds"]),
                             ms(entry["api_seconds"]),
                             f"{entry['overhead'] * 100:6.2f}%"])
            print_table(
                f"Perf suite: {scenario['name']} — {scenario['style']}",
                ["scale", "direct (ms)", "database (ms)", "overhead"], rows)
            continue
        if scenario["name"] == "join_maintenance":
            for entry in scenario["series"]:
                rows.append([entry["persons"],
                             ms(entry["persistent_seconds"]),
                             ms(entry["cold_seconds"]),
                             f"{entry['speedup']:6.1f}x",
                             "ok" if entry["consistency_ok"]
                             else "MISMATCH"])
            print_table(
                f"Perf suite: {scenario['name']} — {scenario['style']}",
                ["scale", "persistent (ms)", "cold (ms)", "speedup",
                 "consistency"], rows)
            continue
        if scenario["name"] == "modify_heavy":
            for entry in scenario["series"]:
                rows.append([entry["persons"],
                             ms(entry["incremental_seconds"]),
                             ms(entry["recompute_seconds"]),
                             f"{entry['ratio']:6.2f}x",
                             "ok" if (entry["incremental_consistent"]
                                      and entry["recompute_consistent"])
                             else "MISMATCH"])
            print_table(
                f"Perf suite: {scenario['name']} — {scenario['style']}",
                ["scale", "incremental (ms)", "recompute (ms)", "ratio",
                 "consistency"], rows)
            continue
        if scenario["name"] == "cold_start_vs_restore":
            for entry in scenario["series"]:
                rows.append([entry["persons"], ms(entry["cold_seconds"]),
                             ms(entry["restore_seconds"]),
                             f"{entry['speedup']:6.1f}x",
                             entry["wal_records_replayed"],
                             "ok" if entry["consistency_ok"]
                             else "MISMATCH"])
            print_table(
                f"Perf suite: {scenario['name']} — {scenario['style']}",
                ["scale", "cold (ms)", "restore (ms)", "speedup",
                 "tail records", "consistency"], rows)
            continue
        if scenario["name"] == "observability_overhead":
            for entry in scenario["series"]:
                rows.append([entry["persons"],
                             ms(entry["enabled_seconds"]),
                             ms(entry["disabled_seconds"]),
                             f"{entry['overhead'] * 100:6.2f}%"])
            print_table(
                f"Perf suite: {scenario['name']} — {scenario['style']}",
                ["scale", "enabled (ms)", "disabled (ms)", "overhead"],
                rows)
            continue
        if scenario["name"] == "server_fanout":
            for entry in scenario["series"]:
                rows.append([entry["subscribers"],
                             f"{entry['updates_per_second']:8.1f}",
                             f"{entry['frames_per_second']:10.0f}",
                             ms(entry["delivery_lag_seconds"]),
                             "ok" if entry["delivered_ok"]
                             else "INCOMPLETE"])
            print_table(
                f"Perf suite: {scenario['name']} — {scenario['style']}",
                ["subscribers", "updates/s", "frames/s", "lag (ms)",
                 "delivery"], rows)
            continue
        if scenario["name"] == "reconnect_resume":
            for entry in scenario["series"]:
                rows.append([entry["rounds"],
                             ms(entry["resume_median_seconds"]),
                             ms(entry["resume_max_seconds"]),
                             entry["reconnects"],
                             "ok" if (entry["duplicates"] == 0
                                      and entry["coverage_ok"]
                                      and entry["acked_unique_ok"])
                             else "BROKEN"])
            print_table(
                f"Perf suite: {scenario['name']} — {scenario['style']}",
                ["drops", "resume med (ms)", "resume max (ms)",
                 "reconnects", "exactly-once"], rows)
            continue
        for entry in scenario["series"]:
            label = entry.get("tag") or (
                f"{entry['persons']} {entry['query']}"
                if "query" in entry else entry["persons"])
            rows.append([label, ms(entry["indexed_seconds"]),
                         ms(entry["unindexed_seconds"]),
                         f"{entry['speedup']:6.1f}x"])
        print_table(f"Perf suite: {scenario['name']} — {scenario['style']}",
                    ["scale", "indexed (ms)", "unindexed (ms)", "speedup"],
                    rows)
    print(f"\nconsistency_ok: {result['consistency_ok']}")
    head = result["headline"]
    print(f"headline: {head['scenario']} at {head['persons']} persons — "
          f"{head['speedup']:.1f}x")
    api = result["api_overhead"]
    print(f"api_overhead: max {api['max_overhead'] * 100:.2f}% "
          f"(ratio target < {api['target'] * 100:.0f}%), "
          f"max {api['max_per_statement_seconds'] * 1e6:.0f} us/statement "
          f"(target < {api['statement_target'] * 1e6:.0f} us) — "
          f"{'ok' if api['ok'] else 'OVER TARGET'}")
    join = result["join_maintenance"]
    target_txt = ("consistency only" if join["target"] is None
                  else f"target < {join['target']:.1f}x")
    print(f"join_maintenance: persistent per-batch time varies "
          f"{join['flat_ratio']:.2f}x over a {join['scale_ratio']:.0f}x "
          f"document sweep ({target_txt}) — "
          f"{'ok' if join['ok'] else 'SUPERLINEAR OR INCONSISTENT'}")
    modify = result["modify_heavy"]
    ratio_txt = ("consistency only (sweep below judge scale)"
                 if modify["worst_ratio"] is None
                 else f"at worst {modify['worst_ratio']:.2f}x of full "
                      f"recomputation (target <= {modify['target']:.1f}x)")
    print(f"modify_heavy: incremental per-batch cost {ratio_txt}, "
          f"consistency {'ok' if modify['consistency_ok'] else 'BROKEN'}"
          f" — {'ok' if modify['ok'] else 'OVER TARGET OR INCONSISTENT'}")
    restore = result["cold_start_vs_restore"]
    print(f"cold_start_vs_restore: at {restore['persons']} persons the "
          f"restore takes {ms(restore['restore_seconds'])} ms vs "
          f"{ms(restore['cold_seconds'])} ms cold "
          f"({restore['speedup']:.1f}x) — "
          f"{'ok' if restore['ok'] else 'RESTORE SLOWER OR INCONSISTENT'}")
    obs = result["observability"]
    print(f"observability: instrumentation enabled throughout; enabled "
          f"vs disabled overhead {obs['overhead'] * 100:.2f}% "
          f"(informational target < {obs['target'] * 100:.0f}%)")
    fanout = result["server_fanout"]
    print(f"server_fanout: at {fanout['max_subscribers']} subscribers "
          f"{fanout['updates_per_second']:.1f} updates/s, "
          f"{fanout['frames_per_second']:.0f} pushed frames/s — "
          f"{'ok' if fanout['ok'] else 'DELIVERY INCOMPLETE'}")
    resume = result["reconnect_resume"]
    print(f"reconnect_resume: {resume['rounds']} forced disconnects, "
          f"median resume {ms(resume['resume_median_seconds'])} ms "
          f"(target < {ms(resume['target_seconds'])} ms), "
          f"{resume['duplicates']} duplicate deliveries — "
          f"{'ok' if resume['ok'] else 'DUPLICATES OR SLOW RESUME'}")


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scales", default=None,
                        help="comma-separated person counts "
                             "(default: REPRO_BENCH_SCALE or 50,100,200,400)")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--json", default="BENCH_perf_suite.json",
                        metavar="PATH")
    parser.add_argument("--metrics-json", default=None, metavar="PATH",
                        help="also dump the Database.metrics() snapshot "
                             "from the observability run (CI artifact)")
    parser.add_argument("--fanout", default=None,
                        help="comma-separated subscriber counts for the "
                             "server_fanout scenario (default 1,100,1000)")
    args = parser.parse_args(argv)
    scale_list = ([int(part) for part in args.scales.split(",") if part]
                  if args.scales else scales())
    fanout_levels = ([int(part) for part in args.fanout.split(",") if part]
                     if args.fanout else None)
    result = run_suite(scale_list, repeat=args.repeat,
                       fanout_levels=fanout_levels)
    metrics_snapshot = result.pop("_metrics_snapshot")
    print_suite(result)
    with open(args.json, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(f"[results saved to {args.json}]")
    if args.metrics_json:
        with open(args.metrics_json, "w") as handle:
            json.dump(metrics_snapshot, handle, indent=2)
            handle.write("\n")
        print(f"[metrics snapshot saved to {args.metrics_json}]")
    return result


# -- tier-1 shape tests ---------------------------------------------------------------

def test_indexed_navigation_matches_unindexed():
    storage = fresh_site(40)
    assert run_paths(storage, NAV_DESCENDANT_PATHS, True) \
        == run_paths(storage, NAV_DESCENDANT_PATHS, False)
    assert run_paths(storage, NAV_CHILD_PATHS, True) \
        == run_paths(storage, NAV_CHILD_PATHS, False)
    assert run_descendant_scans(storage, NAV_DESCENDANT_TAGS, True) \
        == run_descendant_scans(storage, NAV_DESCENDANT_TAGS, False)


def test_indexed_descendant_navigation_faster():
    series, consistent = measure_navigation(
        NAV_DESCENDANT_PATHS, NAV_DESCENDANT_TAGS, [200], repeat=3)
    assert consistent
    # The sweep shows ~10x; any margin below 1x would mean the index lost.
    assert series[0]["indexed_seconds"] < series[0]["unindexed_seconds"], \
        series


def test_suite_emits_valid_json(tmp_path):
    path = tmp_path / "perf_suite.json"
    metrics_path = tmp_path / "metrics.json"
    main(["--scales", "10,20", "--repeat", "1", "--fanout", "1,4",
          "--json", str(path), "--metrics-json", str(metrics_path)])
    loaded = json.loads(path.read_text())
    assert loaded["suite"] == "perf_suite"
    assert loaded["consistency_ok"] is True
    assert {s["name"] for s in loaded["scenarios"]} >= {
        "navigation_descendant", "selectivity", "view_maintenance_insert",
        "join_maintenance", "modify_heavy", "cold_start_vs_restore",
        "api_overhead", "observability_overhead", "server_fanout",
        "reconnect_resume"}
    for scenario in loaded["scenarios"]:
        assert scenario["series"], scenario["name"]
    assert "max_overhead" in loaded["api_overhead"]
    assert loaded["join_maintenance"]["consistency_ok"] is True
    assert loaded["modify_heavy"]["consistency_ok"] is True
    assert loaded["observability"]["instrumentation_enabled"] is True
    assert loaded["server_fanout"]["ok"] is True
    assert loaded["server_fanout"]["max_subscribers"] >= 1
    assert loaded["reconnect_resume"]["ok"] is True
    assert loaded["reconnect_resume"]["duplicates"] == 0
    assert "_metrics_snapshot" not in loaded
    # the CI artifact: a live engine metrics snapshot from the suite run
    metrics = json.loads(metrics_path.read_text())
    assert metrics["db_statements"]["values"][""] > 0
    assert "view=seniors" in metrics["view_flushes"]["values"]


def test_modify_heavy_incremental_consistent():
    series = measure_modify_heavy([30], repeat=1)
    entry = series[0]
    assert entry["incremental_consistent"] is True
    assert entry["recompute_consistent"] is True
    assert entry["incremental_seconds"] > 0
    assert entry["incremental_propagate_seconds"] > 0
    gate = modify_heavy_gate(series)
    assert gate["consistency_ok"] is True
    # 30 persons sits below the judge scale: consistency alone carries
    # the gate and no jittery sub-ms ratio is judged.
    assert gate["worst_ratio"] is None
    assert gate["ok"] is True, gate


def test_observability_overhead_measures_and_snapshots():
    entry, snapshot = measure_observability(20, repeat=1)
    assert entry["enabled_seconds"] > 0
    assert entry["disabled_seconds"] > 0
    json.dumps(snapshot)
    assert snapshot["db_statements"]["values"][""] > 0
    assert "view=sales" in snapshot["view_flushes"]["values"]


def test_join_maintenance_consistent_and_sane():
    series = measure_join_maintenance([30], repeat=1)
    assert series[0]["consistency_ok"] is True
    assert series[0]["persistent_seconds"] > 0
    assert series[0]["persistent_propagate_seconds"] > 0
    gate = join_maintenance_gate(series)
    assert gate["consistency_ok"] is True
    # A single-scale sweep has no growth to judge: consistency alone
    # must carry the gate (no spurious 1.0 < 1.0 failure).
    assert gate["ok"] is True
    assert gate["target"] is None


def test_cold_vs_restore_consistent_and_replays_tail():
    series = measure_cold_vs_restore([20], repeat=1)
    entry = series[0]
    assert entry["consistency_ok"] is True
    assert entry["wal_records_replayed"] == RESTORE_TAIL_BATCHES
    assert entry["restore_seconds"] > 0
    gate = cold_vs_restore_gate(series)
    assert gate["consistency_ok"] is True
    # No speed assertion at smoke scale: 20 persons is jitter territory;
    # the restore-beats-cold claim is gated on the full sweep's largest
    # scale by the suite run itself.


def test_server_fanout_delivers_gap_free():
    series = measure_server_fanout([1, 3], updates=5)
    assert [entry["subscribers"] for entry in series] == [1, 3]
    for entry in series:
        assert entry["delivered_ok"] is True, entry
        assert entry["updates"] == 5
        assert entry["updates_per_second"] > 0
        assert entry["frames_per_second"] > 0
    gate = server_fanout_gate(series)
    assert gate["ok"] is True
    assert gate["max_subscribers"] == 3


def test_reconnect_resume_exactly_once():
    series = measure_reconnect_resume(rounds=2, batch=2)
    entry = series[0]
    assert entry["duplicates"] == 0, entry
    assert entry["coverage_ok"] is True, entry
    assert entry["acked_unique_ok"] is True, entry
    assert entry["reconnects"] >= 2
    gate = reconnect_resume_gate(series)
    assert gate["delivery_ok"] is True
    assert gate["ok"] is True, gate


def test_api_batch_matches_direct_stream():
    """The facade and the direct stream it is benchmarked against must
    leave the view in identical states (else the overhead compares
    different work)."""
    n = 20
    fragments = [xmark.new_person_xml(9000 + i, age=70) for i in range(3)]

    storage = fresh_site(n)
    registry = ViewRegistry(storage)
    registry.register("seniors", xmark.SELECTION_QUERY)
    anchor = persons(storage)[-1]
    registry.apply_updates([
        UpdateRequest.insert("site.xml", anchor, fragment, "after")
        for fragment in fragments])

    db = Database(storage=fresh_site(n))
    db.create_view("seniors", xmark.SELECTION_QUERY)
    with db.batch():
        for fragment in fragments:
            db.update("site.xml").at(f"/site/people/person[{n}]") \
                .insert(fragment, position="after")
    assert db.read("seniors") == registry.query("seniors")


if __name__ == "__main__":
    main()
