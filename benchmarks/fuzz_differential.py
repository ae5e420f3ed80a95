"""Time-budgeted differential fuzz for CI (and local smoke runs).

Drives the shared randomized harness (:func:`tests.helpers.run_differential`)
over every mutator kind — person/auction churn, join-key collection growth
(second ``<city>`` cells, nested same-tag person inserts), city/name
text modifies and unchanged modifies (a city or name rewritten to the
text it holds) — against the views that historically diverged and the
per-city ``count`` / ``max`` / ``sum`` aggregates: each in a registry of
its own, then all of them sharing one registry over one storage, then
the duplicate-view leg (``tests.helpers.SHARING_VIEWS``:
ten views, queries repeated and overlapping, so passes of one dispatch
fill registers for one another), then the same ten views with two of
them deferred and one flushing at a threshold
(``tests.helpers.SHARING_POLICIES``: queues spanning several batches,
read every fifth step).  Every batch is checked against the
recompute oracle and the operator-state audit (cached tables and the
side indexes' support counters), so a future divergence
fails the build instead of landing in ROADMAP as an open item.
``--ad-hoc`` adds the ad-hoc leg to every registry: each step, every
view's query is also asked through ``ViewRegistry.ask`` (the query
entries ``Database.query`` keeps) and must equal a fresh evaluation.

Run from the repo root::

    PYTHONHASHSEED=0 PYTHONPATH=src python benchmarks/fuzz_differential.py \
        --seeds 1,2,3 --steps 30 --budget 300 [--ad-hoc]

The budget is a soft wall-clock cap: the sweep stops scheduling new legs
once it is exhausted (already-running legs finish), printing how much was
covered — CI stays bounded even on slow runners, while at least the
first legs always run to completion.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

from tests.helpers import ALL_MUTATORS, FUZZ_VIEWS, SHARING_POLICIES, \
    SHARING_VIEWS, assert_extents_canonical, assert_path_lists_canonical, \
    random_batch, run_differential  # noqa: E402
from repro.api import Database  # noqa: E402
from repro.workloads import xmark  # noqa: E402


def run_crash_churn(seed: int, steps: int, crash_every: int,
                    num_persons: int = 20) -> int:
    """Durable-session churn: apply random batches against a durable
    :class:`Database`, "kill" the process every ``crash_every`` rounds
    (drop the session with no close, so no final checkpoint), recover
    from the directory, and oracle-check every view after each batch
    and each recovery.  The storage and extent invariants
    (:func:`assert_path_lists_canonical`, :func:`assert_extents_canonical`)
    are checked after each batch and right after each recovery.  A
    background checkpoint is settled right after the batch that cut it,
    so what each crash recovers from depends on the seed alone.  Returns
    the number of updates applied."""
    with tempfile.TemporaryDirectory(prefix="crash-churn-") as path:
        def open_db() -> Database:
            db = Database(durable_path=path, fsync="always",
                          checkpoint_every=32)
            if not db.views():                 # first open: seed the dir
                db.load("site.xml",
                        xmark.generate_site(num_persons, seed=1))
                db.create_view("join", xmark.JOIN_QUERY)
                db.create_view("persons-by-city",
                               xmark.PERSONS_BY_CITY_QUERY,
                               policy="deferred")
            return db

        db = open_db()
        rng = random.Random(seed)
        updates = 0
        for step in range(steps):
            batch = random_batch(rng, db.storage, step, ALL_MUTATORS)
            if batch:
                db.registry.apply_updates(batch)
                db.durability.settle(db.registry)
                updates += len(batch)
            for name in db.views():
                got = db.read(name)
                want = db.registry.recompute_xml(name)
                if got != want:
                    raise AssertionError(
                        f"crash_churn seed={seed} step={step}: view "
                        f"{name} diverged from recomputation\n"
                        f" got: {got}\nwant: {want}")
            assert_path_lists_canonical(db.storage)
            assert_extents_canonical(db.registry)
            if crash_every and (step + 1) % crash_every == 0:
                del db                          # kill -9 analogue
                db = open_db()
                assert_path_lists_canonical(db.storage)
                assert_extents_canonical(db.registry)
        db.close()
        return updates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3",
                        help="comma-separated rng seeds (default 1,2,3)")
    parser.add_argument("--steps", type=int, default=30,
                        help="mixed batches per leg (default 30)")
    parser.add_argument("--persons", type=int, default=20)
    parser.add_argument("--budget", type=float, default=300.0,
                        help="soft wall-clock budget in seconds")
    parser.add_argument("--views", default=None,
                        help="comma-separated view names "
                             f"(default: all of {', '.join(FUZZ_VIEWS)})")
    parser.add_argument("--crash-every", type=int, default=5,
                        help="crash_churn legs kill+recover the durable "
                             "session every N rounds (0 disables the "
                             "crash_churn schedule; default 5)")
    parser.add_argument("--ad-hoc", action="store_true",
                        help="every step, also ask each view's query "
                             "through ViewRegistry.ask (kept query "
                             "entries) and compare it with a fresh "
                             "Engine.query")
    args = parser.parse_args(argv)
    seeds = [int(part) for part in args.seeds.split(",") if part]
    names = ([name for name in args.views.split(",") if name]
             if args.views else list(FUZZ_VIEWS))

    started = time.monotonic()
    legs_run = 0
    legs_skipped = 0
    updates = 0
    for seed in seeds:
        # each view alone, then (given more than one) all in one
        # registry, then (the default sweep) the duplicate-view leg,
        # immediate and with queued policies
        legs = [(name, [FUZZ_VIEWS[name]], False, None) for name in names]
        if len(names) > 1:
            legs.append(("+".join(names) + " (one registry)",
                         [FUZZ_VIEWS[name] for name in names], True, None))
        if not args.views:
            legs.append((f"{len(SHARING_VIEWS)} duplicate/overlapping "
                         "views (one registry)", SHARING_VIEWS, True, None))
            legs.append((f"{len(SHARING_VIEWS)} duplicate/overlapping "
                         "views, two deferred + one threshold(3) "
                         "(one registry)", SHARING_VIEWS, True,
                         SHARING_POLICIES))
        for label, queries, shared, policies in legs:
            if time.monotonic() - started > args.budget:
                legs_skipped += 1
                continue
            updates += run_differential(
                seed, args.steps, ALL_MUTATORS, queries,
                num_persons=args.persons, site_seed=1, shared=shared,
                policies=policies, ad_hoc=args.ad_hoc)
            legs_run += 1
            print(f"ok   seed={seed} view={label}"
                  + (" +ad-hoc" if args.ad_hoc else ""))
    if args.crash_every:
        for seed in seeds:
            if time.monotonic() - started > args.budget:
                legs_skipped += 1
                continue
            updates += run_crash_churn(seed, args.steps, args.crash_every,
                                       num_persons=args.persons)
            legs_run += 1
            print(f"ok   seed={seed} schedule=crash_churn "
                  f"crash_every={args.crash_every}")
    elapsed = time.monotonic() - started
    print(f"\ndifferential fuzz: {legs_run} legs, {updates} updates, "
          f"{elapsed:.1f}s"
          + (f" ({legs_skipped} legs skipped over budget)"
             if legs_skipped else ""))
    if legs_run == 0:
        print("budget exhausted before any leg ran", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
