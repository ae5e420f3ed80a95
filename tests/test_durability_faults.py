"""Fault-injection tests for the durability subsystem.

Every test drives the real WAL/checkpoint/recovery code through
:class:`tests.faults.FaultyFileSystem` — torn writes, short reads,
fsync failures and kill-at-LSN crash points — plus a genuine ``kill -9``
of a subprocess, twice (once while a background checkpoint is
unfinished), and oracle-compares every view (extent serialization vs
recomputation over recovered storage) afterwards.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time

import pytest

from .faults import FaultPlan, FaultyFileSystem, SimulatedCrash
from .helpers import ALL_MUTATORS, persons_of, random_batch
from repro.api import Database
from repro.updates import UpdateRequest
from repro.workloads import xmark

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(TESTS_DIR), "src")

SITE = xmark.generate_site(12, seed=7)

NEW_PERSON = ('<person id="faultperson"><name>Fault Person</name>'
              '<address><street>9 Crash St</street><city>Tokyo</city>'
              '<country>United States</country></address></person>')


def faulty_db(path, plan: FaultPlan, **kwargs) -> tuple[Database,
                                                        FaultyFileSystem]:
    fs = FaultyFileSystem(plan)
    db = Database(durable_path=str(path), durability_fs=fs,
                  fsync=kwargs.pop("fsync", "always"), **kwargs)
    return db, fs


def seed(db: Database) -> None:
    db.load("site.xml", SITE)
    db.create_view("join", xmark.JOIN_QUERY)
    db.create_view("bycity", xmark.PERSONS_BY_CITY_QUERY,
                   policy="deferred")


def insert_person_batch(db: Database) -> list[UpdateRequest]:
    return [UpdateRequest.insert("site.xml", persons_of(db.storage)[-1],
                                 NEW_PERSON, "after")]


def snapshot(db: Database) -> dict:
    return {name: db.read(name) for name in db.views()}


def assert_consistent(db: Database) -> None:
    for name in db.views():
        assert db.read(name) == db.registry.recompute_xml(name), (
            f"view {name} diverged from recomputation after recovery")


def test_torn_wal_append_aborts_batch_and_recovers_clean(tmp_path):
    plan = FaultPlan()
    db, fs = faulty_db(tmp_path, plan)
    seed(db)
    before = snapshot(db)
    # Tear the very next WAL record mid-write: the process dies with
    # only a prefix of it on disk, before any in-memory mutation.
    plan.crash_after_lsn = db.durability.wal.next_lsn
    plan.torn = True
    plan.torn_write_keep = 9
    with pytest.raises(SimulatedCrash):
        db.registry.apply_updates(insert_person_batch(db))
    del db                                           # the "dead" process

    recovered = Database(durable_path=str(tmp_path), fsync="always")
    report = recovered.durability.last_recovery
    assert report.torn_records_discarded == 1
    assert snapshot(recovered) == before             # batch never happened
    assert_consistent(recovered)
    recovered.close()


def test_durable_record_then_crash_replays_batch(tmp_path):
    plan = FaultPlan()
    db, fs = faulty_db(tmp_path, plan)
    seed(db)
    before = snapshot(db)
    # The record reaches disk whole; the crash lands between the WAL
    # append and the in-memory apply.  WAL-then-apply means recovery
    # must finish the job.
    plan.crash_after_lsn = db.durability.wal.next_lsn
    with pytest.raises(SimulatedCrash):
        db.registry.apply_updates(insert_person_batch(db))
    del db

    recovered = Database(durable_path=str(tmp_path), fsync="always")
    report = recovered.durability.last_recovery
    assert report.wal_records_replayed > 0
    assert report.torn_records_discarded == 0
    assert snapshot(recovered) != before             # the insert is visible
    assert "faultperson" in recovered.storage.document(
        "site.xml").to_string()
    assert_consistent(recovered)
    recovered.close()


def test_fsync_failure_aborts_before_any_mutation(tmp_path):
    plan = FaultPlan()
    db, fs = faulty_db(tmp_path, plan)       # fsync="always"
    seed(db)
    before = snapshot(db)
    fs.plan.fail_fsync = True
    with pytest.raises(OSError):
        db.registry.apply_updates(insert_person_batch(db))
    # The device error surfaced before anything mutated: the session
    # keeps serving the old, consistent state.
    assert snapshot(db) == before
    assert_consistent(db)
    fs.plan.fail_fsync = False
    db.registry.apply_updates(insert_person_batch(db))
    assert "faultperson" in db.storage.document("site.xml").to_string()
    assert_consistent(db)


def test_short_reads_tolerated_during_recovery(tmp_path):
    db = Database(durable_path=str(tmp_path), fsync="always")
    seed(db)
    rng = random.Random(17)
    for step in range(4):
        batch = random_batch(rng, db.storage, step, ALL_MUTATORS)
        if batch:
            db.registry.apply_updates(batch)
    del db                                           # crash: no checkpoint

    plan = FaultPlan(short_read_at=3, short_read_keep=2)
    recovered, fs = faulty_db(tmp_path, plan)
    assert plan.reads > 3                    # the injection actually fired
    assert recovered.durability.last_recovery.wal_records_replayed > 0
    assert recovered.durability.last_recovery.torn_records_discarded == 0
    assert_consistent(recovered)
    recovered.close()


def churn(db: Database, steps: int, seed: int = 23) -> None:
    """Random batches, each background checkpoint settled right after
    the batch that cut it: which crash point lands behind which
    checkpoint depends on the seed, not on how fast a child ran."""
    rng = random.Random(seed)
    for step in range(steps):
        batch = random_batch(rng, db.storage, step, ALL_MUTATORS)
        if batch:
            db.registry.apply_updates(batch)
            db.durability.settle(db.registry)


def test_kill_at_every_lsn_recovers_consistent(tmp_path):
    """Systematic crash-point sweep: die right after each WAL record of
    a scripted run lands on disk, recover, oracle-compare every view.
    ``checkpoint_every=3`` puts automatic checkpoints inside the run, so
    the later crash points recover from a format-2 snapshot plus a tail
    instead of replaying the whole log."""
    # First pass (no faults) to learn how many records the run logs.
    probe = Database(durable_path=str(tmp_path / "probe"), fsync="always",
                     checkpoint_every=3)
    seed(probe)
    churn(probe, 3)
    last_lsn = probe.durability.wal.last_lsn
    probe.close()
    assert last_lsn >= 5

    from_checkpoint = 0
    for crash_lsn in range(4, last_lsn + 1):
        path = tmp_path / f"lsn{crash_lsn}"
        plan = FaultPlan(crash_after_lsn=crash_lsn)
        db, fs = faulty_db(path, plan, checkpoint_every=3)
        crashed = False
        try:
            seed(db)
            churn(db, 3)
        except SimulatedCrash:
            crashed = True
        assert crashed, f"crash point {crash_lsn} never fired"
        del db

        recovered = Database(durable_path=str(path), fsync="always")
        report = recovered.recovery
        assert report.checkpoint_lsn + report.wal_records_replayed \
            == crash_lsn, "every durable record is restored or replayed"
        from_checkpoint += report.checkpoint_lsn > 0
        assert_consistent(recovered)
        recovered.close()
    assert from_checkpoint, "no crash point crossed a checkpoint"


def test_crash_with_a_child_in_flight_recovers_the_previous_generation(
        tmp_path, may_fork):
    """A background checkpoint counts once it is completed: a crash
    while its child runs recovers the previous generation plus the
    whole WAL tail, the records before the unfinished cut included."""
    plan = FaultPlan()
    db, fs = faulty_db(tmp_path, plan, checkpoint_every=1000)
    seed(db)
    previous = db.checkpoint()
    churn(db, 4)
    manager = db.durability
    cut = manager.checkpoint(db.registry, background=True)
    encoder = manager._child
    plan.crash_after_lsn = manager.wal.next_lsn
    with pytest.raises(SimulatedCrash):
        db.registry.apply_updates(insert_person_batch(db))
    del db

    recovered = Database(durable_path=str(tmp_path), fsync="always")
    report = recovered.recovery
    assert previous < cut < plan.crash_after_lsn
    assert report.checkpoint_lsn == previous
    assert report.wal_records_replayed == plan.crash_after_lsn - previous
    assert "faultperson" in recovered.storage.document(
        "site.xml").to_string()
    assert_consistent(recovered)
    recovered.close()
    os.waitpid(encoder.pid, 0)     # the dead session's child


def test_crash_between_the_completion_write_and_the_wal_drop(
        tmp_path, monkeypatch, may_fork):
    """Completing writes the new generation, then prunes generations and
    drops WAL segments.  Dying in between leaves more on disk than
    needed; recovery restores the new generation and replays only the
    records after its cut."""
    db, fs = faulty_db(tmp_path, FaultPlan(), checkpoint_every=1000)
    seed(db)
    db.checkpoint()
    churn(db, 3)
    manager = db.durability
    cut = manager.checkpoint(db.registry, background=True)

    def die():
        raise SimulatedCrash("after the completion write, before the drop")

    monkeypatch.setattr(manager.checkpoints, "prune", die)
    with pytest.raises(SimulatedCrash):
        db.registry.apply_updates(insert_person_batch(db))  # completes here
        manager.settle(db.registry)                         # or else here
    assert manager.checkpoints.list()[0][0] == cut
    expected = snapshot(db)
    del db

    recovered = Database(durable_path=str(tmp_path), fsync="always")
    assert recovered.recovery.checkpoint_lsn == cut
    assert recovered.recovery.wal_records_replayed == 1
    assert snapshot(recovered) == expected
    assert_consistent(recovered)
    recovered.close()


INFLIGHT_SCRIPT = """
import os, random, sys, time
sys.path.insert(0, sys.argv[2])
sys.path.insert(0, sys.argv[3])
from helpers import ALL_MUTATORS, random_batch
from repro.api import Database
from repro.workloads import xmark

path, marker = sys.argv[1], sys.argv[4]
db = Database(durable_path=path, fsync="always", checkpoint_every=16)
db.load("site.xml", xmark.generate_site(12, seed=7))
db.create_view("join", xmark.JOIN_QUERY)
db.create_view("bycity", xmark.PERSONS_BY_CITY_QUERY, policy="deferred")
manager = db.durability
rng = random.Random(99)
step = 0
while manager._child is None or not manager.checkpoints.list():
    batch = random_batch(rng, db.storage, step, ALL_MUTATORS)
    if batch:
        db.registry.apply_updates(batch)
    step += 1
# a generation on disk and a child in flight that nothing will complete
with open(marker + ".tmp", "w") as fh:
    fh.write(f"{manager.checkpoints.list()[0][0]} {manager._child.lsn} "
             f"{manager.wal.last_lsn}")
os.replace(marker + ".tmp", marker)
time.sleep(120)
"""


def test_subprocess_kill9_with_a_child_in_flight(tmp_path):
    """SIGKILL a durable session while its background checkpoint is
    unfinished: the reopened directory restores the last completed
    generation, replays every record after it and holds no spool."""
    durable = tmp_path / "db"
    marker = tmp_path / "cut"
    session = subprocess.Popen(
        [sys.executable, "-c", INFLIGHT_SCRIPT, str(durable), SRC_DIR,
         TESTS_DIR, str(marker)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.time() + 90
        while not marker.exists() and time.time() < deadline:
            if session.poll() is not None:
                raise AssertionError(
                    "session died before the kill: "
                    + session.stderr.read().decode("utf-8", "replace"))
            time.sleep(0.05)
        assert marker.exists(), "no child in flight before the deadline"
    finally:
        if session.poll() is None:
            os.kill(session.pid, signal.SIGKILL)
        session.wait()
        session.stderr.close()
    completed, cut, last = map(int, marker.read_text().split())

    recovered = Database(durable_path=str(durable), fsync="always")
    report = recovered.recovery
    assert completed < cut <= last
    assert report.checkpoint_lsn == completed
    assert report.wal_records_replayed == last - completed
    assert all(name.startswith(("checkpoint-", "wal-"))
               for name in os.listdir(durable))
    assert_consistent(recovered)
    recovered.close()


CHILD_SCRIPT = """
import random, sys
sys.path.insert(0, sys.argv[2])
sys.path.insert(0, sys.argv[3])
from helpers import ALL_MUTATORS, random_batch
from repro.api import Database
from repro.workloads import xmark

path, marker = sys.argv[1], sys.argv[4]
db = Database(durable_path=path, fsync="always", checkpoint_every=16)
db.load("site.xml", xmark.generate_site(12, seed=7))
db.create_view("join", xmark.JOIN_QUERY)
db.create_view("bycity", xmark.PERSONS_BY_CITY_QUERY, policy="deferred")
rng = random.Random(99)
step = 0
while True:
    batch = random_batch(rng, db.storage, step, ALL_MUTATORS)
    if batch:
        db.registry.apply_updates(batch)
    step += 1
    with open(marker, "w") as fh:
        fh.write(str(step))
"""


def test_subprocess_kill9_recovery_oracle(tmp_path):
    """The real thing: SIGKILL a live durable session mid-churn, reopen
    the directory, and demand every view serialize identically to
    recomputation over the recovered storage."""
    durable = tmp_path / "db"
    marker = tmp_path / "steps"
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD_SCRIPT, str(durable), SRC_DIR,
         TESTS_DIR, str(marker)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.time() + 90
        steps = 0
        while time.time() < deadline:
            if child.poll() is not None:
                raise AssertionError(
                    "child died before the kill: "
                    + child.stderr.read().decode("utf-8", "replace"))
            try:
                steps = int(marker.read_text() or 0)
            except (FileNotFoundError, ValueError):
                steps = 0
            if steps >= 25:
                break
            time.sleep(0.05)
        assert steps >= 25, "child made no progress before the deadline"
    finally:
        if child.poll() is None:
            os.kill(child.pid, signal.SIGKILL)
        child.wait()

    recovered = Database(durable_path=str(durable), fsync="always")
    report = recovered.durability.last_recovery
    assert report.views == 2
    assert report.documents == 1
    assert_consistent(recovered)
    # And the survivor keeps maintaining, durably.
    recovered.registry.apply_updates(insert_person_batch(recovered))
    assert_consistent(recovered)
    recovered.close()
