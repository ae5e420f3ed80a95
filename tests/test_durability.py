"""Durability subsystem: WAL codec, checkpoints, recovery, edge cases.

The fault-injection suite (torn writes, fsync failures, kill-at-LSN and
the subprocess kill -9 differential) lives in
``test_durability_faults.py``; this module covers the deterministic
surface: record round-trips, checkpoint atomicity/fallback, the
recovery edge-case matrix of ISSUE 7, replay idempotence, background
checkpoints (the forked encoder against an inline one, its failures,
nothing outliving ``close()``), durability metrics/tracing, and the
close-idempotence regressions.
"""

from __future__ import annotations

import copy
import glob
import hashlib
import json
import os
import random
import shutil
import struct
import threading
import zlib

import pytest

from .faults import FaultPlan, FaultyFileSystem
from .helpers import (ALL_MUTATORS, GROUPED_VIEWS,
                      assert_path_lists_canonical, random_batch,
                      walk_children, walk_descendants, walk_find_by_path,
                      walk_nth_per_parent, walk_tag_path)
from repro import FlexKey, StorageManager, UpdateRequest, ViewRegistry
from repro.api import Database
from repro.multiview import RegisteredView
from repro.durability import (CheckpointError, CheckpointStore,
                              DurabilityManager, RealFileSystem,
                              RecoveryError,
                              WriteAheadLog, read_segment)
from repro.durability import manager as manager_module
from repro.durability.checkpoint import encode_state
from repro.durability.manager import fork_safe
from repro.durability.snapshot import (SNAPSHOT_FORMAT, capture_state,
                                       restore_state)
from repro.durability.wal import encode_record, segment_name
from repro.engine import Engine
from repro.obs import render_prometheus
from repro.translate import translate_query
from repro.workloads import xmark
from repro.xat.base import _cached_item
from repro.xat.table import AtomicItem, NodeItem
from repro.xquery.updates import resolve_path

SITE = xmark.generate_site(12, seed=7)
TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
E2E_DIR = os.path.join(os.path.dirname(TESTS_DIR), "benchmarks", "e2e")


def durable_db(path, **kwargs):
    db = Database(durable_path=path, **kwargs)
    return db


def seed_db(path, **kwargs) -> Database:
    db = durable_db(path, fsync="always", **kwargs)
    db.load("site.xml", SITE)
    db.create_view("join", xmark.JOIN_QUERY)
    db.create_view("bycity", xmark.PERSONS_BY_CITY_QUERY,
                   policy="deferred")
    return db


def drive(db: Database, steps: int, seed: int = 3) -> None:
    """Random batches; each background checkpoint is settled right after
    the batch that cut it, so the files on disk depend on the seed only."""
    rng = random.Random(seed)
    for step in range(steps):
        batch = random_batch(rng, db.storage, step, ALL_MUTATORS)
        if batch:
            db.registry.apply_updates(batch)
            db.durability.settle(db.registry)


def assert_all_views_consistent(db: Database) -> None:
    for name in db.views():
        assert db.read(name) == db.registry.recompute_xml(name), (
            f"view {name!r} diverged from the recompute oracle")


# -- WAL codec and segments ---------------------------------------------------------------

def test_wal_record_roundtrip(tmp_path):
    fs = RealFileSystem()
    wal = WriteAheadLog(fs, str(tmp_path), fsync="always")
    payloads = [{"t": "batch", "u": [i]} for i in range(5)]
    lsns = [wal.append(p) for p in payloads]
    assert lsns == [1, 2, 3, 4, 5]
    wal.close()
    [(start, path)] = wal.segments()
    assert start == 1
    records, valid, total = read_segment(fs, path)
    assert valid == total
    assert [p for _lsn, p in records] == payloads
    assert [lsn for lsn, _p in records] == lsns


def test_wal_detects_corrupt_payload(tmp_path):
    fs = RealFileSystem()
    wal = WriteAheadLog(fs, str(tmp_path), fsync="always")
    for i in range(3):
        wal.append({"i": i})
    wal.close()
    [(_start, path)] = wal.segments()
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:     # flip a byte in the last payload
        fh.seek(size - 2)
        byte = fh.read(1)
        fh.seek(size - 2)
        fh.write(bytes([byte[0] ^ 0xFF]))
    records, valid, total = read_segment(fs, path)
    assert [p["i"] for _lsn, p in records] == [0, 1]
    assert valid < total


def test_wal_fsync_policies_count_fsyncs(tmp_path):
    fs = RealFileSystem()
    always = WriteAheadLog(fs, str(tmp_path / "a"), fsync="always")
    fs.makedirs(str(tmp_path / "a"))
    for i in range(4):
        always.append({"i": i})
    assert always.stats.fsyncs == 4
    always.close()

    fs.makedirs(str(tmp_path / "b"))
    batched = WriteAheadLog(fs, str(tmp_path / "b"), fsync="batch",
                            sync_every=3)
    for i in range(4):
        batched.append({"i": i})
    assert batched.stats.fsyncs == 1   # one at the 3rd append
    batched.close()                    # + one on close
    assert batched.stats.fsyncs == 2

    fs.makedirs(str(tmp_path / "c"))
    off = WriteAheadLog(fs, str(tmp_path / "c"), fsync="off")
    for i in range(4):
        off.append({"i": i})
    off.close()
    assert off.stats.fsyncs == 0


def test_wal_rejects_unknown_policy(tmp_path):
    with pytest.raises(ValueError, match="fsync policy"):
        WriteAheadLog(RealFileSystem(), str(tmp_path), fsync="sometimes")
    with pytest.raises(ValueError, match="fsync policy"):
        DurabilityManager(tmp_path, fsync="sometimes")


def test_wal_segment_roll_and_retention(tmp_path):
    fs = RealFileSystem()
    wal = WriteAheadLog(fs, str(tmp_path), fsync="always")
    wal.append({"i": 1})
    wal.append({"i": 2})
    wal.start_segment(3)              # checkpoint at lsn 2
    wal.append({"i": 3})
    wal.start_segment(4)              # checkpoint at lsn 3
    names = sorted(os.path.basename(p) for _s, p in wal.segments())
    assert names == [segment_name(1), segment_name(3), segment_name(4)]
    # keep everything a checkpoint at lsn 2 still needs: records > 2
    dropped = wal.drop_segments_before(3)
    assert dropped == 1
    names = sorted(os.path.basename(p) for _s, p in wal.segments())
    assert names == [segment_name(3), segment_name(4)]
    wal.close()


# -- checkpoint store ---------------------------------------------------------------------

def test_checkpoint_roundtrip_and_atomic_name(tmp_path):
    store = CheckpointStore(RealFileSystem(), str(tmp_path))
    store.write(7, {"hello": [1, 2, 3]})
    assert not glob.glob(str(tmp_path / "*.tmp"))
    lsn, state, generation = store.load_latest()
    assert (lsn, generation) == (7, 0)
    assert state == {"hello": [1, 2, 3]}


def test_checkpoint_crc_failure_falls_back_a_generation(tmp_path):
    store = CheckpointStore(RealFileSystem(), str(tmp_path))
    store.write(5, {"gen": "old"})
    store.write(9, {"gen": "new"})
    (_lsn, newest_path) = store.list()[0]
    with open(newest_path, "r+b") as fh:
        fh.seek(40)
        fh.write(b"\xde\xad")
    with pytest.raises(CheckpointError):
        store.load_one(newest_path)
    lsn, state, generation = store.load_latest()
    assert (lsn, state["gen"], generation) == (5, "old", 1)


def test_only_the_retired_skeleton_module_unpickles_as_a_placeholder(
        tmp_path):
    """A payload naming ``repro.storage.skeleton`` loads (its objects as
    inert placeholders); one naming any other missing module or class
    — a neighbour of the retired module, the package that re-exported
    it — still fails as a :class:`CheckpointError`."""
    store = CheckpointStore(RealFileSystem(), str(tmp_path))
    store.write_payload(1, b"crepro.storage.skeleton\nSkeleton\n)\x81.")
    assert store.load_one(store.list()[0][1])[0] == 1
    for lsn, (module, name) in enumerate(
            [("repro.storage.skeletons", "Skeleton"),
             ("repro.storage", "Skeleton")], start=2):
        store.write_payload(lsn, f"c{module}\n{name}\n)\x81.".encode())
        with pytest.raises(CheckpointError):
            store.load_one(store.list()[0][1])


def test_checkpoint_prune_keeps_two_generations(tmp_path):
    store = CheckpointStore(RealFileSystem(), str(tmp_path), keep=2)
    for lsn in (3, 6, 9):
        store.write(lsn, {"lsn": lsn})
    oldest_retained = store.prune()
    assert oldest_retained == 6
    assert [lsn for lsn, _p in store.list()] == [9, 6]


# -- snapshot format ----------------------------------------------------------------------

def _slots(item) -> dict:
    return {slot: getattr(item, slot) for cls in type(item).__mro__
            for slot in getattr(cls, "__slots__", ())}


def test_cached_table_cells_copy_every_slot_but_refresh():
    """The copy that strips ``refresh`` for the operator-state cache
    still copies every other field, and shallowly."""
    key = FlexKey("b.c", FlexKey("c.d"))
    node = NodeItem(key, 2, True, None, "old text")
    atomic = AtomicItem("7", FlexKey("b.e"), -1, True, "007", agg=[3])
    for item in (node, atomic):
        stripped = _cached_item(item)
        assert stripped is not item and item.refresh
        assert _slots(stripped) == {**_slots(item), "refresh": False}
        assert _slots(copy.copy(item)) == _slots(item)
    assert _cached_item(atomic).agg is atomic.agg  # a shallow copy


def test_checkpoint_pickled_with_slot_state_restores_identically(tmp_path):
    """``tests/fixtures/format3-slot-state`` is a format-3 checkpoint
    written before table cells pickled as constructor calls (their
    slots went in as state dicts), and before view specs carried a work
    bound.  It restores to the view XML its writer read, byte for byte,
    and maintenance goes on from it — incrementally, since no view has
    a recorded ``rows_read``."""
    fixture = os.path.join(TESTS_DIR, "fixtures", "format3-slot-state")
    shutil.copy(os.path.join(fixture, "checkpoint-00000000000000000013.ckpt"),
                tmp_path)
    with open(os.path.join(fixture, "views.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    db = durable_db(tmp_path)
    assert db.recovery.checkpoint_lsn == 13
    assert db.recovery.wal_records_replayed == 0
    assert {name: db.read(name) for name in db.views()} == expected
    assert all(db.registry.view(name).rows_read is None
               for name in db.views())
    drive(db, steps=6, seed=13)
    assert_all_views_consistent(db)
    assert all(db.registry.view(name).stats.recomputes == 0
               for name in db.views())
    db.close()


def test_parent_checkpoint_with_path_lists_restores_identically(
        tmp_path, monkeypatch):
    """``tests/fixtures/format3-path-lists`` is a format-3 checkpoint
    with the index section (per-path lists, tag-path cache, path
    interner), the operator-state tables and a ``counts`` column per
    document — the layout written before checkpoints dropped derived
    state.  It restores to the view XML its writer read, byte for byte,
    with an index equal to the walk and an empty operator-state store,
    and maintenance goes on from it incrementally."""
    monkeypatch.setattr(RegisteredView, "over_work_bound",
                        lambda self: False)
    fixture = os.path.join(TESTS_DIR, "fixtures", "format3-path-lists")
    shutil.copy(os.path.join(fixture, "checkpoint-00000000000000000013.ckpt"),
                tmp_path)
    with open(os.path.join(fixture, "views.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    db = durable_db(tmp_path)
    assert db.recovery.checkpoint_lsn == 13
    assert db.recovery.wal_records_replayed == 0
    assert {name: db.read(name) for name in db.views()} == expected
    assert_path_lists_canonical(db.storage)
    assert db.registry.state_store.entry_count() == 0
    drive(db, steps=6, seed=13)
    assert_all_views_consistent(db)
    assert all(db.registry.view(name).stats.recomputes == 0
               for name in db.views())
    db.close()


def _document_keys(db: Database) -> list[str]:
    """Every document node's FlexKey, in document order."""
    return [node.key.value
            for name in db.documents()
            for node in db.storage.document(name).root.iter_subtree()]


def _extent_rows(db: Database) -> dict:
    """Every extent node's persistent fields, per view, in pre-order."""
    rows = {}
    for name in db.views():
        stack = [db.registry.view(name).pipeline.extent]
        out = rows[name] = []
        while stack:
            node = stack.pop()
            out.append((node.node_id, node.order, node.tag, node.text,
                        dict(node.attributes), node.count, node.refresh,
                        node.base, node.agg, len(node.children)))
            stack.extend(reversed(node.children))
    return rows


PROBE_PATHS = (
    [("child", "site"), ("child", "people"), ("child", "person")],
    [("child", "site"), ("child", "people"), ("child", "person"),
     ("child", "address"), ("child", "city")],
    [("descendant", "city")],
    [("child", "site"), ("descendant", "name")],
    [("child", "site"), ("child", "nowhere")],
)


def test_snapshot_roundtrip_is_identical_and_functional(tmp_path):
    db = durable_db(tmp_path, fsync="always")
    db.load("site.xml", SITE)
    db.create_view("join", xmark.JOIN_QUERY)
    db.create_view("bycity", xmark.PERSONS_BY_CITY_QUERY)
    db.create_view("headcount", xmark.CITY_HEADCOUNT_QUERY)
    db.create_view("seniors", xmark.SELECTION_QUERY, policy="deferred")
    drive(db, steps=25, seed=29)               # inserts, deletes, modifies
    db.checkpoint()                            # quiesces the deferred view
    xml = {name: db.read(name) for name in db.views()}
    keys = _document_keys(db)
    rows = _extent_rows(db)
    assert any(row[8] is not None for row in rows["headcount"]), (
        "the aggregate view must carry AggState through the checkpoint")
    del db                                     # crash: nothing after the checkpoint

    reopened = durable_db(tmp_path)
    assert reopened.recovery.checkpoint_lsn > 0
    assert reopened.recovery.wal_records_replayed == 0
    assert {name: reopened.read(name) for name in reopened.views()} == xml
    assert _document_keys(reopened) == keys
    assert _extent_rows(reopened) == rows
    storage = reopened.storage
    for node in storage.document("site.xml").root.iter_subtree():
        # parents and the node map line up
        assert storage.node(FlexKey(node.key.value)) is node
        assert all(child.parent is node for child in node.children)
    assert_path_lists_canonical(storage)
    for name in reopened.views():
        stack = [reopened.registry.view(name).pipeline.extent]
        while stack:
            node = stack.pop()
            # the last child under each match key answers for it, as in
            # an index built child by child in order
            last = {child.match_key(): child for child in node.children}
            assert all(node.find_child(key) is child
                       for key, child in last.items())
            stack.extend(node.children)
    for steps in PROBE_PATHS:
        assert storage.find_by_path("site.xml", steps) \
            == walk_find_by_path(storage, "site.xml", steps)
    root = storage.root_key("site.xml")
    for tag in (None, "person", "city", "closed_auction"):
        assert storage.descendants(root, tag) \
            == walk_descendants(storage, root, tag)
    people = storage.find_by_path(
        "site.xml", [("child", "site"), ("child", "people")])[0]
    assert storage.children(people, "person") \
        == walk_children(storage, people, "person")
    # counts, aggregate state and child lookups are functional, not just
    # loadable: maintenance on the restored state keeps matching recompute
    rng = random.Random(31)
    for step in range(20):
        batch = random_batch(rng, storage, 1000 + step, ALL_MUTATORS)
        if batch:
            reopened.registry.apply_updates(batch)
        reopened.registry.flush()
        assert_all_views_consistent(reopened)
    reopened.close()


PEOPLE = [("child", "site"), ("child", "people")]
PERSONS = PEOPLE + [("child", "person")]


def assert_positional_paths_match_the_walk(storage) -> None:
    """``…/tag[k]`` through the restored per-path lists equals picking
    the k-th child off the tree walk."""
    def nth(parent_steps, tag, k):
        return walk_nth_per_parent(storage, walk_find_by_path(
            storage, "site.xml", parent_steps + [("child", tag)]), k)

    count = len(walk_find_by_path(storage, "site.xml", PERSONS))
    assert count > 2
    for k in (1, count // 2, count, count + 1):
        assert resolve_path(storage, "site.xml",
                            f"/site/people/person[{k}]") \
            == nth(PEOPLE, "person", k)
    assert resolve_path(storage, "site.xml",
                        "/site/people/person/address[1]") \
        == nth(PERSONS, "address", 1)
    assert resolve_path(storage, "site.xml",
                        "/site/people/person/profile/interest[2]") \
        == nth(PERSONS + [("child", "profile")], "interest", 2)
    assert resolve_path(storage, "site.xml",
                        f"/site/people/person[{count}]/address/city") \
        == walk_children(storage, nth(PERSONS, "address", 1)[-1], "city")


def test_restored_path_lists_resolve_positional_paths(tmp_path):
    """A checkpoint restore and a crash recovery (checkpoint + WAL tail)
    both come back with per-path lists equal to a from-scratch rebuild."""
    db = seed_db(tmp_path / "clean")
    drive(db, steps=12, seed=5)
    db.close()                                 # final checkpoint, no tail
    crashed = seed_db(tmp_path / "crash")
    drive(crashed, steps=6, seed=5)
    crashed.checkpoint()
    drive(crashed, steps=12, seed=6)           # inserts and deletes in the tail
    del crashed                                # simulated kill: no close

    for name, replays in (("clean", False), ("crash", True)):
        reopened = durable_db(tmp_path / name)
        assert reopened.recovery.checkpoint_lsn > 0
        assert (reopened.recovery.wal_records_replayed > 0) == replays
        assert_path_lists_canonical(reopened.storage)
        assert_positional_paths_match_the_walk(reopened.storage)
        assert_all_views_consistent(reopened)
        reopened.close()


def parent_index_columns(storage: StorageManager) -> dict:
    """The index columns of a checkpoint written before the index kept
    only per-path lists: sorted per-tag and all-element key lists, the
    tag-path cache and the path interner — all built from a walk — and
    no path lists."""
    all_lists: dict = {}
    tag_lists: dict = {}
    tag_paths: dict = {}
    for name in storage.document_names:
        for node in storage.document(name).root.iter_subtree():
            tag_paths[node.key.value] = walk_tag_path(storage, node.key)
            if node.is_element:
                all_lists.setdefault(name, []).append(node.key.value)
                tag_lists.setdefault((name, node.tag), []).append(
                    node.key.value)
    for keys in (*all_lists.values(), *tag_lists.values()):
        keys.sort()
    return {"tag_lists": tag_lists, "all_lists": all_lists,
            "tag_paths": tag_paths,
            "path_interner": {tags: tags for tags in tag_paths.values()}}


def reopen_parent_layout(tmp_path, snapshot_format: int,
                         tail_steps: int = 0) -> Database:
    """Write a checkpoint in the parent's index layout under
    ``snapshot_format``, run ``tail_steps`` batches into the WAL after
    it, crash, and reopen: the views must equal their pre-crash reads
    and the index a from-scratch walk."""
    db = seed_db(tmp_path)
    drive(db, steps=10, seed=9)
    db.flush()
    state = capture_state(db.registry)
    state["format"] = snapshot_format
    state["index"] = parent_index_columns(db.storage)
    lsn = db.durability.wal.last_lsn
    CheckpointStore(RealFileSystem(), str(tmp_path)).write(lsn, state)
    drive(db, steps=tail_steps, seed=10)
    db.flush()
    expected = {name: db.read(name) for name in db.views()}
    del db                                     # crash: that file is the newest

    reopened = durable_db(tmp_path)
    assert reopened.recovery.checkpoint_lsn == lsn
    assert reopened.recovery.checkpoint_generation == 0
    assert (reopened.recovery.wal_records_replayed > 0) == (tail_steps > 0)
    assert {name: reopened.read(name) for name in reopened.views()} \
        == expected
    assert_path_lists_canonical(reopened.storage)
    assert_positional_paths_match_the_walk(reopened.storage)
    assert_all_views_consistent(reopened)
    return reopened


def test_checkpoint_without_a_path_column_still_opens(tmp_path):
    """Backward compatibility: a format-2 checkpoint written before the
    per-path lists existed stores per-tag and all-element lists instead;
    restore ignores them and rebuilds the path lists by the walk."""
    reopen_parent_layout(tmp_path, 2).close()


def test_format3_checkpoint_with_tag_lists_still_opens(tmp_path):
    """A format-3 checkpoint in an older layout (per-tag and all-element
    lists, no path lists) rebuilds its path lists by the walk, grafts
    its views, and replays a WAL tail of inserts and deletes onto
    them."""
    reopen_parent_layout(tmp_path, 3, tail_steps=6).close()


def test_checkpoint_stores_documents_and_views_only(tmp_path):
    """A checkpoint holds nothing derivable: no structural index, no
    operator state, no per-node column but the tree's own."""
    db = seed_db(tmp_path)
    drive(db, steps=4)
    db.flush()
    assert db.registry.state_store.entry_count() > 0
    state = capture_state(db.registry)
    assert set(state) == {"format", "documents", "views"}
    assert set(state["documents"]["site.xml"]) == {
        "tags", "values", "keys", "child_counts", "attributes"}
    db.close()


def test_checkpoint_file_holds_columns_not_object_graphs(tmp_path):
    db = seed_db(tmp_path)
    drive(db, steps=4)
    db.close()
    (_lsn, path) = CheckpointStore(RealFileSystem(), str(tmp_path)).list()[0]
    with open(path, "rb") as fh:
        blob = fh.read()
    for class_name in (b"XmlNode", b"ExtentNode", b"StructuralIndex",
                       b"XmlDocument", b"XatTuple", b"NodeItem",
                       b"CachedEntry"):
        assert class_name not in blob, (
            f"{class_name.decode()} objects were pickled into a checkpoint")


def test_checkpoint_corrupted_before_verify_keeps_the_wal(tmp_path):
    plan = FaultPlan()
    db = seed_db(tmp_path, durability_fs=FaultyFileSystem(plan))
    db.checkpoint()                            # a good generation to fall back on
    drive(db, steps=5)
    expected = {name: db.read(name) for name in db.views()}
    segments = db.durability.wal.segments()
    tail = db.durability._records_since_checkpoint
    assert tail > 0
    plan.flip_byte_after_replace = 200         # inside the payload
    with pytest.raises(CheckpointError):
        db.checkpoint()
    # the WAL was neither rolled nor truncated behind the bad checkpoint
    assert db.durability.wal.segments() == segments
    assert db.durability._records_since_checkpoint == tail
    del db
    recovered = durable_db(tmp_path)
    assert recovered.recovery.checkpoint_generation == 1
    assert recovered.recovery.wal_records_replayed == tail
    for name, xml in expected.items():
        assert recovered.read(name) == xml
    recovered.close()


def test_unknown_snapshot_format_is_rejected_explicitly(tmp_path):
    db = seed_db(tmp_path)
    lsn = db.durability.wal.last_lsn
    db.close()
    store = CheckpointStore(RealFileSystem(), str(tmp_path))
    (_lsn, newest) = store.list()[0]
    _lsn, state = store.load_one(newest)
    assert state["format"] == SNAPSHOT_FORMAT == 4
    # a well-formed file whose payload is another snapshot format (what a
    # format-1 checkpoint looks like to this build): refuse it loudly —
    # falling back past it could silently serve older data
    state["format"] = 1
    store.write(lsn + 1, state)
    with pytest.raises(ValueError, match="unsupported snapshot format 1"):
        durable_db(tmp_path)
    # an unknown *container* format cannot be read at all: that file is
    # skipped like any other unreadable generation
    (_lsn, alien) = store.list()[0]
    with open(alien, "r+b") as fh:
        fh.seek(4)
        fh.write(struct.pack(">I", 99))
    with pytest.raises(CheckpointError, match="unsupported checkpoint "
                                              "format 99"):
        store.load_one(alien)
    recovered = durable_db(tmp_path)
    assert recovered.recovery.checkpoint_generation == 1
    assert_all_views_consistent(recovered)
    recovered.close()


def _as_atom_scheme_1(monkeypatch) -> None:
    """Key and stamp like a build from before the logarithmic sibling
    atoms: unary ``z`` blocks of 12, WAL records that name scheme 1."""
    monkeypatch.setattr(
        "repro.storage.manager.sibling_atom",
        lambda index: "z" * (index // 12) + "bdfhjlnprtvx"[index % 12])
    monkeypatch.setattr("repro.durability.manager.ATOM_SCHEME", 1)


def test_directory_keyed_under_the_old_atom_scheme_restores_and_replays(
        tmp_path, monkeypatch):
    """Checkpoints store keys verbatim and nothing re-keys a restored
    node, so an older directory opens unchanged: same keys, WAL-tail
    batches resolve, and new nodes slot in between the old atoms."""
    with monkeypatch.context() as old:
        _as_atom_scheme_1(old)
        db = durable_db(tmp_path, fsync="always")
        db.load("site.xml", xmark.generate_site(40, seed=7))
        db.create_view("join", xmark.JOIN_QUERY)
        db.create_view("sel", xmark.SELECTION_QUERY)
        assert "b.d.zzzb" in _document_keys(db)        # the 37th person
        drive(db, 6)
        db.checkpoint()
        db.update("site.xml").at("/site/people").insert(
            xmark.new_person_xml(900), position="into")    # the WAL tail
        db.update("site.xml").at("/site/people/person[38]/name") \
            .replace_with("Tail")
        keys = _document_keys(db)
        expected = {name: db.read(name) for name in db.views()}
        del db                                         # crash

    reopened = durable_db(tmp_path)
    assert reopened.recovery.checkpoint_lsn > 0
    assert reopened.recovery.wal_records_replayed == 2
    assert _document_keys(reopened) == keys
    assert {name: reopened.read(name) for name in reopened.views()} \
        == expected
    drive(reopened, 12, seed=11)
    reopened.update("site.xml").at("/site/people/person[20]").insert(
        xmark.new_person_xml(901), position="after")
    assert_all_views_consistent(reopened)
    assert_path_lists_canonical(reopened.storage)
    reopened.close()


def test_load_record_of_another_atom_scheme_is_refused_not_rekeyed(
        tmp_path, monkeypatch):
    """Replaying a ``load`` record keys the document from its text.  If
    another enumeration logged the batches after it, their targets name
    other nodes here: stop with the typed error, never guess."""
    wide, narrow = tmp_path / "wide", tmp_path / "narrow"
    with monkeypatch.context() as old:
        _as_atom_scheme_1(old)
        db = durable_db(wide, fsync="always")
        db.load("site.xml", xmark.generate_site(40, seed=7))
        db.update("site.xml").at("/site/people/person[38]/name") \
            .replace_with("Renamed")
        del db                            # crash before any checkpoint
        db = durable_db(narrow, fsync="always")
        db.load("site.xml", xmark.generate_site(10, seed=7))
        db.update("site.xml").at("/site/people/person[9]/name") \
            .replace_with("Renamed")
        narrow_keys = _document_keys(db)
        del db
    with pytest.raises(RecoveryError, match="scheme 1.*close\\(\\)"):
        durable_db(wide)
    # no node has more than 12 children: both schemes key it the same
    reopened = durable_db(narrow)
    assert _document_keys(reopened) == narrow_keys
    [name] = resolve_path(reopened.storage, "site.xml",
                          "/site/people/person[9]/name")
    assert reopened.storage.text(name) == "Renamed"
    reopened.close()


def test_format2_checkpoint_is_rematerialized_not_grafted(tmp_path,
                                                          monkeypatch):
    """A format-2 file carries the counts of the sum-of-duplicates
    ``Distinct`` rule; fusing this build's zero-crossing deltas into
    them leaves emptied groups standing.  Its documents still restore
    and every view is rebuilt from them."""
    monkeypatch.setattr(RegisteredView, "over_work_bound",
                        lambda self: False)
    db = durable_db(tmp_path, fsync="always")
    db.load("site.xml", xmark.generate_site(30, seed=7))
    for name, query in GROUPED_VIEWS.items():
        db.create_view(name, query)
    db.update("site.xml").at(
        "/site/people/person[1]/address/city").replace_with("Atlantis")
    expected = {name: db.read(name) for name in db.views()}
    keys = _document_keys(db)
    state = capture_state(db.registry)
    state["format"] = 2
    for view in state["views"]:
        columns = view["extent"]
        columns["counts"] = [count * 7 for count in columns["counts"]]
    lsn = db.durability.wal.last_lsn
    CheckpointStore(RealFileSystem(), str(tmp_path)).write(lsn, state)
    del db                                     # crash: that file is the newest

    reopened = durable_db(tmp_path)
    assert reopened.recovery.checkpoint_lsn == lsn
    assert {name: reopened.read(name) for name in reopened.views()} \
        == expected
    assert _document_keys(reopened) == keys
    assert_path_lists_canonical(reopened.storage)
    groups = {reopened.read("cities").count("<city>")}
    for position in range(1, 11):              # Atlantis empties and refills
        city = xmark.CITIES[position % 3] if position % 4 else "Atlantis"
        reopened.update("site.xml").at(
            f"/site/people/person[{position}]/address/city"
        ).replace_with(city)
        assert_all_views_consistent(reopened)
        groups.add(reopened.read("cities").count("<city>"))
    assert len(groups) > 1, "no city group appeared or disappeared"
    reopened.close()


def test_format3_reopen_grafts_without_rematerializing(tmp_path,
                                                       monkeypatch):
    monkeypatch.setattr(RegisteredView, "over_work_bound",
                        lambda self: False)
    db = seed_db(tmp_path / "clean")
    drive(db, steps=8, seed=5)
    db.close()                                 # final checkpoint, no tail
    crashed = seed_db(tmp_path / "crash")
    drive(crashed, steps=4, seed=5)
    crashed.checkpoint()
    drive(crashed, steps=8, seed=6)
    del crashed                                # simulated kill: no close

    def rematerialized(*_args, **_kwargs):
        raise AssertionError("a grafting restore reached "
                             "Engine.materialize")

    for name, replays in (("clean", False), ("crash", True)):
        with monkeypatch.context() as patch:
            patch.setattr(Engine, "materialize", rematerialized)
            reopened = durable_db(tmp_path / name)
        assert reopened.recovery.checkpoint_lsn > 0
        assert (reopened.recovery.wal_records_replayed > 0) == replays
        assert_all_views_consistent(reopened)
        reopened.close()


# -- recovery: the happy path -------------------------------------------------------------

def test_crash_then_recover_matches_oracle_and_precrash(tmp_path):
    db = seed_db(tmp_path)
    drive(db, steps=10)
    pre = {name: db.read(name) for name in db.views()}
    del db                                     # simulated kill: no close

    recovered = durable_db(tmp_path)
    assert recovered.recovery.wal_records_replayed > 0
    assert sorted(recovered.views()) == ["bycity", "join"]
    assert_all_views_consistent(recovered)
    for name, xml in pre.items():
        assert recovered.read(name) == xml
    recovered.close()


def test_clean_close_restores_without_replay(tmp_path):
    db = seed_db(tmp_path)
    drive(db, steps=6)
    expected = {name: db.read(name) for name in db.views()}
    db.close()

    reopened = durable_db(tmp_path)
    assert reopened.recovery.wal_records_replayed == 0
    assert reopened.recovery.checkpoint_lsn > 0
    for name, xml in expected.items():
        assert reopened.read(name) == xml
    assert_all_views_consistent(reopened)
    reopened.close()


def test_recovered_registry_keeps_maintaining(tmp_path):
    db = seed_db(tmp_path)
    drive(db, steps=4)
    del db
    recovered = durable_db(tmp_path)
    drive(recovered, steps=4, seed=11)         # keep updating post-recovery
    assert_all_views_consistent(recovered)
    recovered.close()


def test_recovery_rebuilds_operator_state_on_first_use(tmp_path,
                                                        monkeypatch):
    """A checkpoint stores no operator state: a reopened store starts
    empty, its first batch builds each entry it reads (one miss each),
    and the batches after it hit."""
    monkeypatch.setattr(RegisteredView, "over_work_bound",
                        lambda self: False)
    db = durable_db(tmp_path, fsync="always")
    db.load("site.xml", SITE)
    for name, query in GROUPED_VIEWS.items():
        db.create_view(name, query)
    drive(db, steps=5)
    db.close()
    recovered = durable_db(tmp_path)
    store = recovered.registry.state_store
    assert store.entry_count() == 0
    cities = recovered.storage.find_by_path(
        "site.xml", PERSONS + [("child", "address"), ("child", "city")])
    recovered.registry.apply_updates(
        [UpdateRequest.modify("site.xml", cities[0], "Tampere")])
    assert store.entry_count() > 0
    assert store.stats.misses == store.entry_count()
    for step, city in enumerate(cities[1:4]):
        recovered.registry.apply_updates(
            [UpdateRequest.modify("site.xml", city, xmark.CITIES[step])])
    assert store.stats.misses == store.entry_count()
    assert store.stats.hits > 0
    assert_all_views_consistent(recovered)
    assert all(recovered.registry.view(name).stats.recomputes == 0
               for name in recovered.views())
    recovered.close()


#: an ad-hoc query whose extent the registry keeps
AD_HOC = ('<r>{for $p in doc("site.xml")/site/people/person '
          'where $p/profile/age > "30" return <e>{$p/name}</e>}</r>')


def test_ad_hoc_entries_are_not_durable_state(tmp_path):
    db = seed_db(tmp_path)
    drive(db, steps=3)
    db.query(AD_HOC)
    drive(db, steps=3, seed=5)
    assert db.query(AD_HOC) == Engine(db.storage).query(
        translate_query(AD_HOC))
    assert db.registry.query_stats.hits == 1
    assert sorted(db.views()) == ["bycity", "join"]
    assert sorted(view["name"] for view in
                  capture_state(db.registry)["views"]) == ["bycity", "join"]
    fs = RealFileSystem()
    kinds = set()
    for _start, path in db.durability.wal.segments():
        records, _valid, _total = read_segment(fs, path)
        for _lsn, payload in records:
            kinds.add(payload["t"])
            assert "profile/age" not in repr(payload)
    assert kinds == {"load", "create_view", "batch"}
    db.checkpoint()
    db.close()


def test_killed_session_answers_ad_hoc_queries_alike(tmp_path):
    """A recovered session keeps no entry: it re-materializes on the
    first ask and answers with the bytes the killed one gave."""
    db = seed_db(tmp_path)
    drive(db, steps=4)
    db.query(AD_HOC)
    drive(db, steps=4, seed=9)
    before = db.query(AD_HOC)
    del db                                     # simulated kill: no close
    recovered = durable_db(tmp_path)
    assert recovered.recovery.wal_records_replayed > 0
    assert recovered.registry.query_stats.misses == 0
    assert recovered.query(AD_HOC) == before
    assert before == Engine(recovered.storage).query(
        translate_query(AD_HOC))
    assert recovered.registry.query_stats.misses == 1
    recovered.close()


def test_view_ddl_replays_from_wal(tmp_path):
    db = seed_db(tmp_path)
    db.create_view("selection", xmark.SELECTION_QUERY)
    db.drop_view("bycity")
    del db                                     # DDL lives only in the WAL
    recovered = durable_db(tmp_path)
    assert sorted(recovered.views()) == ["join", "selection"]
    assert recovered.view("selection").query_text == xmark.SELECTION_QUERY
    assert_all_views_consistent(recovered)
    recovered.close()


# -- recovery edge cases (the ISSUE 7 matrix) ---------------------------------------------

def test_recover_empty_directory(tmp_path):
    db = durable_db(tmp_path)
    report = db.recovery
    assert (report.checkpoint_lsn, report.wal_records_replayed) == (0, 0)
    assert db.views() == [] and db.documents() == []
    db.load("site.xml", SITE)                  # and it is usable
    db.create_view("join", xmark.JOIN_QUERY)
    assert_all_views_consistent(db)
    db.close()


def test_recover_checkpoint_only_no_tail(tmp_path):
    db = seed_db(tmp_path)
    drive(db, steps=3)
    db.checkpoint()                            # tail is empty after this
    expected = {name: db.read(name) for name in db.views()}
    del db
    recovered = durable_db(tmp_path)
    assert recovered.recovery.wal_records_replayed == 0
    assert recovered.recovery.checkpoint_lsn > 0
    for name, xml in expected.items():
        assert recovered.read(name) == xml
    recovered.close()


def test_recover_torn_final_record(tmp_path):
    db = seed_db(tmp_path)
    drive(db, steps=5)
    del db
    segments = sorted(glob.glob(str(tmp_path / "wal-*.log")))
    last = segments[-1]
    size = os.path.getsize(last)
    with open(last, "r+b") as fh:              # tear the final record
        fh.truncate(size - 9)
    recovered = durable_db(tmp_path)
    assert recovered.recovery.torn_records_discarded == 1
    assert_all_views_consistent(recovered)
    # the torn suffix was truncated away: recovering again is clean
    recovered.close()
    again = durable_db(tmp_path)
    assert again.recovery.torn_records_discarded == 0
    assert_all_views_consistent(again)
    again.close()


class _HandleCountingFileSystem(RealFileSystem):
    """Remembers every file it opens, to count those left open."""

    def __init__(self):
        self.opened = []

    def open(self, path: str, mode: str):
        handle = super().open(path, mode)
        self.opened.append(handle)
        return handle

    def open_handles(self) -> int:
        return sum(not handle.closed for handle in self.opened)


@pytest.mark.parametrize("payload, error", [
    ({"t": "bogus"}, ValueError),
    # a wide document logged without its atom scheme
    ({"t": "load", "name": "wide.xml", "xml": "<w>" + "<c/>" * 13 + "</w>"},
     RecoveryError),
])
def test_failed_recovery_leaves_no_file_open(tmp_path, payload, error):
    """The WAL segment recovery opened for appending is closed when a
    record cannot be replayed: the raise leaves ``Database.__init__``
    before the caller holds anything it could close."""
    db = seed_db(tmp_path)
    db.close()
    lsn = db.durability.wal.last_lsn
    segment = sorted(glob.glob(str(tmp_path / "wal-*.log")))[-1]
    with open(segment, "ab") as fh:
        fh.write(encode_record(lsn + 1, payload))
    fs = _HandleCountingFileSystem()
    with pytest.raises(error):
        Database(durable_path=tmp_path, durability_fs=fs)
    assert fs.opened and fs.open_handles() == 0


@pytest.mark.parametrize("index", [None, "absent"])
def test_checkpoint_without_an_index_restores_by_the_walk(tmp_path, index):
    """Restore derives the structural index from the documents, so a
    format-3 file with ``"index": None`` (which older releases could
    write) or with no index section at all restores, and its index
    equals a from-scratch walk."""
    db = seed_db(tmp_path)
    drive(db, steps=4)
    lsn = db.durability.wal.last_lsn
    expected = {name: db.read(name) for name in db.views()}
    db.close()
    store = CheckpointStore(RealFileSystem(), str(tmp_path))
    _lsn, state = store.load_one(store.list()[0][1])
    state["format"] = 3
    if index is None:
        state["index"] = None
    store.write(lsn + 1, state)
    registry = ViewRegistry(StorageManager())
    restore_state(registry, copy.deepcopy(state))
    assert_path_lists_canonical(registry.storage)
    registry.close()
    reopened = durable_db(tmp_path)
    assert reopened.recovery.checkpoint_lsn == lsn + 1
    assert {name: reopened.read(name) for name in reopened.views()} \
        == expected
    assert_path_lists_canonical(reopened.storage)
    assert_positional_paths_match_the_walk(reopened.storage)
    reopened.close()


def test_recover_corrupt_checkpoint_falls_back_with_tail(tmp_path):
    db = seed_db(tmp_path, checkpoint_every=4)
    drive(db, steps=10)                        # several checkpoints cut
    expected = {name: db.read(name) for name in db.views()}
    del db
    checkpoints = sorted(glob.glob(str(tmp_path / "checkpoint-*.ckpt")))
    assert len(checkpoints) == 2               # two generations retained
    with open(checkpoints[-1], "r+b") as fh:   # corrupt the newest
        fh.seek(64)
        fh.write(b"\x00" * 8)
    recovered = durable_db(tmp_path)
    assert recovered.recovery.checkpoint_generation == 1
    assert recovered.recovery.wal_records_replayed > 0, (
        "fallback generation must replay the longer WAL tail")
    for name, xml in expected.items():
        assert recovered.read(name) == xml
    assert_all_views_consistent(recovered)
    recovered.close()


def test_replay_idempotence_recover_twice(tmp_path):
    db = seed_db(tmp_path)
    drive(db, steps=8)
    del db
    first = durable_db(tmp_path)
    assert_all_views_consistent(first)
    state_one = {name: first.read(name) for name in first.views()}
    replayed_one = first.recovery.wal_records_replayed
    del first                                  # crash again without close
    second = durable_db(tmp_path)
    assert second.recovery.wal_records_replayed == replayed_one
    assert_all_views_consistent(second)
    state_two = {name: second.read(name) for name in second.views()}
    assert state_one == state_two
    second.close()


def test_prepopulated_storage_gets_bootstrap_checkpoint(tmp_path):
    storage = StorageManager()
    xmark.register_site(storage, 8, seed=7)
    db = Database(storage=storage, durable_path=tmp_path)
    db.create_view("join", xmark.JOIN_QUERY)
    del db                                     # crash before any checkpoint
    recovered = durable_db(tmp_path)
    assert recovered.documents() == ["site.xml"]
    assert recovered.views() == ["join"]
    assert_all_views_consistent(recovered)
    recovered.close()


def test_existing_state_rejects_wrapped_storage(tmp_path):
    seed_db(tmp_path).close()
    with pytest.raises(ValueError, match="already holds state"):
        Database(storage=StorageManager(), durable_path=tmp_path)


def test_durable_registry_rejects_raw_plan_views(tmp_path):
    from repro.translate import translate_query

    db = durable_db(tmp_path)
    db.load("site.xml", SITE)
    with pytest.raises(ValueError, match="query strings"):
        db.registry.register("raw", translate_query(xmark.JOIN_QUERY))
    db.close()


def test_failed_batch_replays_to_same_partial_state(tmp_path):
    db = seed_db(tmp_path)
    persons = db.storage.find_by_path(
        "site.xml", [("child", "site"), ("child", "people"),
                     ("child", "person")])
    doomed = persons[0]
    # delete a subtree, then address a node inside it: the second
    # statement fails mid-batch, leaving a partial application.
    bad = [UpdateRequest.delete("site.xml", doomed),
           UpdateRequest.modify("site.xml", doomed.child("b"), "x")]
    with pytest.raises(Exception):
        db.registry.apply_updates(bad)
    partial = {name: db.read(name) for name in db.views()}
    del db
    recovered = durable_db(tmp_path)
    assert recovered.recovery.replay_errors == 1
    for name, xml in partial.items():
        assert recovered.read(name) == xml
    assert_all_views_consistent(recovered)
    recovered.close()


# -- checkpoint cadence -------------------------------------------------------------------

def test_auto_checkpoint_truncates_wal(tmp_path):
    db = seed_db(tmp_path, checkpoint_every=5)
    drive(db, steps=12)
    manager = db.durability
    assert manager._checkpoints_total >= 2
    # retention: at most 2 checkpoint generations on disk
    assert len(glob.glob(str(tmp_path / "checkpoint-*.ckpt"))) <= 2
    # truncation: the WAL does not accumulate one segment per record
    assert len(glob.glob(str(tmp_path / "wal-*.log"))) <= 3
    del db
    recovered = durable_db(tmp_path)
    assert_all_views_consistent(recovered)
    recovered.close()


# -- background checkpoints ---------------------------------------------------------------

def _wal_lsns(manager: DurabilityManager) -> list[int]:
    return [lsn for _start, path in manager.wal.segments()
            for lsn, _payload in read_segment(manager.fs, path)[0]]


def test_background_payload_equals_inline_encode_at_the_cut(
        tmp_path, monkeypatch, may_fork):
    """The equivalence oracle of the forked encoder, over a 1024-batch
    session of the benchmark's ``multiview_durable_mixed`` plan: every
    payload a child encoded hashes like an inline encode taken at the
    same cut (same LSN, before the next batch)."""
    monkeypatch.syspath_prepend(E2E_DIR)
    import workloads as e2e
    spec = next(w for w in e2e.IN_PROCESS
                if w.name == "multiview_durable_mixed")
    db = durable_db(tmp_path, fsync=e2e.FSYNC,
                    checkpoint_every=e2e.CHECKPOINT_EVERY)
    db.load(e2e.DOCUMENT, xmark.generate_site(spec.persons, seed=601))
    for name, query in spec.views.items():
        db.create_view(name, query)
    manager = db.durability
    written = {}
    write_payload = manager.checkpoints.write_payload

    def recording(lsn, payload):
        written[lsn] = hashlib.sha256(payload).hexdigest()
        return write_payload(lsn, payload)

    monkeypatch.setattr(manager.checkpoints, "write_payload", recording)
    inline = {}
    plan = spec.plan(random.Random(601), spec.persons)
    for _ in range(1024):
        batch = next(plan)
        with db.batch():
            for _kind, path, value in batch.statements:
                db.update(e2e.DOCUMENT).at(path).replace_with(value)
        for kind, argument in batch.then:
            (db.read if kind == "read" else db.query)(argument)
        child = manager._child
        if child is not None and child.lsn not in inline:
            inline[child.lsn] = hashlib.sha256(
                encode_state(manager.capture(db.registry))).hexdigest()
    manager.settle(db.registry)
    assert len(inline) == 4 == manager._background_total
    assert {lsn: written[lsn] for lsn in inline} == inline
    db.close()


def test_failed_child_leaves_disk_alone_and_next_trigger_retries(
        tmp_path, monkeypatch, may_fork):
    db = seed_db(tmp_path, checkpoint_every=1000)
    manager = db.durability
    db.checkpoint()
    drive(db, steps=4)                         # a WAL tail behind it
    generations, lsns = manager.checkpoints.list(), _wal_lsns(manager)
    parent = os.getpid()

    def failing_in_the_child(registry):
        if os.getpid() != parent:
            raise RuntimeError("the encoder failed")
        return capture_state(registry)

    monkeypatch.setattr(manager_module, "capture_state",
                        failing_in_the_child)
    manager.checkpoint(db.registry, background=True)
    assert manager._child is not None
    assert manager.settle(db.registry)
    assert manager._failures == {"exit": 1}
    assert manager.checkpoints.list() == generations
    assert _wal_lsns(manager) == lsns
    monkeypatch.undo()

    manager.checkpoint_every = 1               # the next trigger
    db.update("site.xml").at("/site/people/person[1]/name") \
        .replace_with("Retried")
    assert manager.settle(db.registry)
    assert manager.checkpoints.list()[0][0] == manager.wal.last_lsn
    assert manager._failures == {"exit": 1}
    assert manager._background_total == 2
    expected = {name: db.read(name) for name in db.views()}
    del db                                     # crash: restore, no tail
    recovered = durable_db(tmp_path)
    assert recovered.recovery.wal_records_replayed == 0
    assert {name: recovered.read(name) for name in expected} == expected
    recovered.close()


@pytest.mark.parametrize("damage", ["length", "crc"])
def test_spool_failing_its_check_is_discarded_never_written(
        tmp_path, monkeypatch, may_fork, damage):
    db = seed_db(tmp_path, checkpoint_every=1000)
    manager = db.durability
    db.checkpoint()
    drive(db, steps=2)
    generations = manager.checkpoints.list()

    def damaged(fd, payload):
        header = manager_module._SPOOL_HEADER.pack(
            len(payload) + (damage == "length"),
            zlib.crc32(payload) ^ (damage == "crc"))
        with open(fd, "wb", closefd=False) as spool:
            spool.write(header + payload)

    monkeypatch.setattr(manager_module, "_write_spool", damaged)
    monkeypatch.setattr(manager.checkpoints, "write_payload", None)
    manager.checkpoint(db.registry, background=True)
    assert manager.settle(db.registry)
    assert manager._failures == {"spool": 1}
    assert manager.checkpoints.list() == generations
    monkeypatch.undo()
    db.close()


@pytest.mark.parametrize("with_registry", [True, False])
def test_nothing_outlives_close(tmp_path, may_fork, with_registry):
    db = seed_db(tmp_path, checkpoint_every=1000)
    drive(db, steps=3)
    manager = db.durability
    manager.checkpoint(db.registry, background=True)
    child = manager._child
    if with_registry:
        db.close()                             # completes, then cuts inline
    else:
        manager.close()                        # kills the child
    with pytest.raises(ChildProcessError):
        os.waitpid(child.pid, os.WNOHANG)
    assert child.spool.closed
    assert all(name.startswith(("checkpoint-", "wal-"))
               for name in os.listdir(tmp_path))
    reopened = durable_db(tmp_path)
    assert reopened.recovery.wal_records_replayed == (
        0 if with_registry else manager.wal.last_lsn)
    assert_all_views_consistent(reopened)
    reopened.close()
    if not with_registry:
        db.close()


def test_a_second_thread_keeps_the_checkpoint_inline(tmp_path, may_fork):
    db = seed_db(tmp_path, checkpoint_every=1000)
    drive(db, steps=3)
    manager = db.durability
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not fork_safe()
        lsn = manager.checkpoint(db.registry, background=True)
        assert manager._child is None and manager._background_total == 0
        assert manager.checkpoints.list()[0][0] == lsn   # durable already
    finally:
        stop.set()
        thread.join()
    assert fork_safe()
    db.close()


# -- observability ------------------------------------------------------------------------

def test_durability_metrics_exposed(tmp_path):
    db = seed_db(tmp_path)
    drive(db, steps=4)
    del db                                     # crash: leave a WAL tail
    recovered = durable_db(tmp_path)
    assert recovered.recovery.wal_records_replayed > 0
    snapshot = recovered.metrics()
    for name in ("wal_records_replayed", "wal_bytes", "recovery_seconds",
                 "checkpoint_seconds", "wal_records_total",
                 "checkpoints_total", "checkpoint_bytes",
                 "checkpoint_stall_seconds"):
        assert name in snapshot, f"missing durability metric {name}"
    assert snapshot["wal_bytes"]["values"][""] > 0
    assert snapshot["recovery_seconds"]["values"][""] > 0
    recovered.checkpoint()
    snapshot = recovered.metrics()
    assert snapshot["checkpoint_bytes"]["values"][""] == os.path.getsize(
        sorted(glob.glob(str(tmp_path / "checkpoint-*.ckpt")))[-1])
    stalls = snapshot["checkpoint_stall_seconds"]["values"][""]
    assert stalls["count"] == 1 and stalls["max"] > 0
    rendered = render_prometheus(recovered.registry.metrics)
    assert "wal_records_replayed" in rendered
    assert "recovery_seconds" in rendered
    recovered.close()


def test_recovery_and_checkpoint_spans_emitted(tmp_path):
    seed_db(tmp_path).close()

    class Sink:
        def __init__(self):
            self.spans = []

        def on_span(self, span):
            self.spans.append(span)

    sink = Sink()
    storage = StorageManager()
    registry = ViewRegistry(storage)
    registry.add_trace_sink(sink)
    manager = DurabilityManager(tmp_path)
    report = manager.recover(registry)
    manager.bind(registry)
    names = [span.name for span in sink.spans]
    assert "recovery" in names
    span = next(s for s in sink.spans if s.name == "recovery")
    assert span.attrs["views"] == report.views == 2
    manager.close(registry)                    # cuts the final checkpoint
    span = next(s for s in sink.spans if s.name == "checkpoint")
    assert span.attrs["lsn"] == manager.wal.last_lsn
    assert span.attrs["bytes"] == manager._checkpoint_bytes > 0
    phases = [span.attrs[f"{phase}_seconds"]
              for phase in ("capture", "encode", "write", "verify")]
    assert all(seconds > 0 for seconds in phases)
    assert sum(phases) <= span.duration
    registry.close()


# -- close idempotence (satellite regression) ---------------------------------------------

def test_database_close_is_idempotent(tmp_path):
    db = seed_db(tmp_path)
    drive(db, steps=2)
    db.close()
    db.close()                                 # second close: no-op
    with durable_db(tmp_path) as reopened:
        assert_all_views_consistent(reopened)
    reopened.close()                           # after __exit__: no-op


def test_database_exit_flushes_durable_state(tmp_path):
    with seed_db(tmp_path) as db:
        drive(db, steps=3)
        expected = {name: db.read(name) for name in db.views()}
    reopened = durable_db(tmp_path)
    assert reopened.recovery.wal_records_replayed == 0, (
        "__exit__ must have checkpointed the open durable state")
    for name, xml in expected.items():
        assert reopened.read(name) == xml
    reopened.close()


def test_view_close_is_idempotent():
    storage = StorageManager()
    xmark.register_site(storage, 8, seed=7)
    registry = ViewRegistry(storage)
    registry.register("v", xmark.SELECTION_QUERY)
    assert storage._mutation_listeners      # the store's listener
    registry.close()
    assert not storage._mutation_listeners
    registry.close()                        # double-close: no-op
    with ViewRegistry(storage) as twin:
        twin.register("v", xmark.SELECTION_QUERY)
        twin.close()                        # explicit close inside with
    assert not storage._mutation_listeners


def test_registry_close_is_idempotent():
    storage = StorageManager()
    registry = ViewRegistry(storage)
    listeners = len(storage._listeners)
    assert listeners == 1
    registry.close()
    registry.close()
    assert not storage._listeners
    # closing one registry must not detach another's listeners
    first, second = ViewRegistry(storage), ViewRegistry(storage)
    first.close()
    first.close()
    assert len(storage._listeners) == 1
    second.close()
    assert not storage._listeners
