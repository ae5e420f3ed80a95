"""DurabilityManager: WAL + checkpoints + recovery over one ViewRegistry.

The manager owns one durable directory holding WAL segments and
checkpoint generations, and binds to a :class:`ViewRegistry` as its
``wal`` attribute — the registry then calls :meth:`log_batch` at the
top of :meth:`ViewRegistry.apply_updates` (before any mutation, so a
batch is atomic-on-disk or not applied at all), :meth:`log_create_view`
/ :meth:`log_drop_view` on DDL, and :meth:`maybe_checkpoint` after each
applied stream.  Document loads are logged by the API facade via
:meth:`log_load`.

Recovery (:meth:`recover`) is the inverse: load the newest checkpoint
that verifies (falling back one generation on corruption), graft it
into the fresh registry, then replay the WAL tail **through the normal
router/pipeline** — FlexKey assignment is deterministic given storage
state, so replayed batches reproduce the exact keys the live run
assigned, and later records keep addressing valid targets.  A batch
that failed mid-apply before the crash fails identically on replay
(same partial storage application), so recovery converges on the
pre-crash state rather than diverging from it.  Torn trailing records
are truncated away, never fatal.

Checkpoints run in two places.  An explicit :meth:`checkpoint` (and
:meth:`close`) encodes and writes in this process and returns with the
checkpoint durable.  The automatic one (:meth:`maybe_checkpoint`) moves
the encoding off the request path, the way Redis's ``BGSAVE`` does: the
parent flushes the registry, notes the cut LSN, forks and rolls the WAL
to a segment starting at ``lsn + 1`` — a few milliseconds — and goes on
applying batches.  The child holds a copy-on-write image of the
registry as it stood at the cut.  It runs the same encoder
(:func:`capture_state` + :func:`~repro.durability.checkpoint.encode_state`),
writes length, CRC-32 and payload to an unlinked spool file and exits.
Every later :meth:`maybe_checkpoint` polls it (``wait4``, non-blocking);
once it has exited cleanly and the spool checks out, the parent writes
the payload through :meth:`CheckpointStore.write_payload`, prunes
generations and drops WAL segments exactly as an inline checkpoint does.
Until then the previous generation plus the whole WAL tail recovers, so
every crash point keeps its meaning.  A failed child changes nothing on
disk and the next trigger retries.  At most one child runs at a time,
and a process with more than one thread never forks (the child would
inherit locks other threads hold): it checkpoints inline.
"""

from __future__ import annotations

import contextlib
import gc
import os
import signal
import struct
import sys
import tempfile
import threading
import time
import zlib
from collections import Counter
from dataclasses import dataclass

from ..flexkeys import ATOM_SCHEME, FlexKey
from ..multiview.policies import MaintenancePolicy
from ..updates.primitives import UpdateRequest
from ..xmlmodel import XmlDocument, parse_fragment, serialize
from .checkpoint import CheckpointStore, encode_state
from .files import FileSystem, RealFileSystem
from .snapshot import capture_state, restore_state
from .wal import FSYNC_POLICIES, WriteAheadLog

__all__ = ["DurabilityManager", "RecoveryError", "RecoveryReport",
           "fork_safe"]


class RecoveryError(Exception):
    """The durable directory cannot be replayed faithfully by this build."""


_STALL_METRIC = "checkpoint_stall_seconds"
_STALL_HELP = "Foreground wall-clock stall of one checkpoint"

#: what a background child writes ahead of its payload: length, CRC-32
_SPOOL_HEADER = struct.Struct(">QI")
#: why a background checkpoint was discarded (``checkpoint_failures_total``)
FAILURE_REASONS = ("exit", "signal", "spool")


def fork_safe() -> bool:
    """Whether a checkpoint may fork: the platform has ``fork()`` and this
    process runs one thread (a child gets only the forking thread, and
    any lock another thread held stays held in it forever)."""
    return hasattr(os, "fork") and threading.active_count() == 1


def _write_spool(fd: int, payload: bytes) -> None:
    with open(fd, "wb", closefd=False) as spool:
        spool.write(_SPOOL_HEADER.pack(len(payload), zlib.crc32(payload)))
        spool.write(payload)


def _run_child(spool_fd: int, encode) -> None:
    """The forked child's whole life; never returns.  ``os._exit`` skips
    the parent's atexit handlers and buffered-file flushes, and with
    ``gc`` off no collection runs finalizers or touches — and so
    copies — every page of the inherited heap."""
    code = 1
    try:
        gc.disable()
        signal.set_wakeup_fd(-1)      # the parent's event loop owns it
        for signum in signal.valid_signals():
            if callable(signal.getsignal(signum)):
                signal.signal(signum, signal.SIG_DFL)
        _write_spool(spool_fd, encode())
        code = 0
    finally:
        os._exit(code)


class _Child:
    """One background checkpoint: the forked encoder, its cut, its spool."""

    def __init__(self, pid: int, lsn: int, spool):
        self.pid = pid
        self.lsn = lsn
        self.spool = spool
        self.forked = time.perf_counter()
        self.seconds = 0.0      # fork to reaped, wall clock
        self.status = None
        self.rusage = None

    def poll(self, block: bool = False) -> bool:
        """Reap the child if it has exited (or, with ``block``, once it
        has); returns whether it has been reaped."""
        if self.status is None:
            try:
                pid, status, rusage = os.wait4(
                    self.pid, 0 if block else os.WNOHANG)
            except ChildProcessError:    # reaped behind our back
                pid, status, rusage = self.pid, 1 << 8, None
            if pid:
                self.status, self.rusage = status, rusage
                self.seconds = time.perf_counter() - self.forked
        return self.status is not None

    def payload(self) -> tuple[str | None, bytes]:
        """``(failure reason or None, payload)`` of the reaped child."""
        code = os.waitstatus_to_exitcode(self.status)
        if code:
            return ("signal" if code < 0 else "exit"), b""
        self.spool.seek(0)
        header = self.spool.read(_SPOOL_HEADER.size)
        if len(header) < _SPOOL_HEADER.size:
            return "spool", b""
        length, crc = _SPOOL_HEADER.unpack(header)
        payload = self.spool.read(length)
        if len(payload) != length or zlib.crc32(payload) != crc:
            return "spool", b""
        return None, payload


def _encode_request(request: UpdateRequest) -> dict:
    return {"k": request.kind, "d": request.document,
            "t": request.target.value, "p": request.position,
            "v": request.new_value,
            "f": (serialize(request.fragment)
                  if request.fragment is not None else None)}


def _decode_request(data: dict) -> UpdateRequest:
    fragment = None
    if data["f"] is not None:
        fragment = parse_fragment(data["f"])[0]
    return UpdateRequest(data["k"], data["d"], FlexKey.parse(data["t"]),
                         fragment=fragment, position=data["p"],
                         new_value=data["v"])


def _require_scheme(record: dict, trees, wide: bool = False) -> None:
    """Replay keys ``trees`` from text, and only the enumeration that keyed
    them live reproduces the keys later records address.  Scheme 1 (no
    stamp) and 2 agree on a node's first 12 children: wider trees stop."""
    if record.get("atoms") != ATOM_SCHEME and (wide or any(
            len(node.children) > 12
            for tree in trees for node in tree.iter_subtree())):
        raise RecoveryError(
            f"a WAL {record['t']} record keyed its nodes under sibling-atom "
            f"scheme {record.get('atoms', 1)}, this build assigns scheme "
            f"{ATOM_SCHEME}: open and close() the directory with the release "
            "that wrote it (closing checkpoints the keys), then reopen it")


@dataclass
class RecoveryReport:
    """What one :meth:`DurabilityManager.recover` pass did."""

    checkpoint_lsn: int = 0
    checkpoint_generation: int = 0   # 0 = newest verified; >0 = fallback
    wal_records_replayed: int = 0
    wal_bytes: int = 0
    torn_records_discarded: int = 0
    replay_errors: int = 0           # batches that re-failed on replay
    recovery_seconds: float = 0.0
    documents: int = 0
    views: int = 0


class DurabilityManager:
    """One durable directory (WAL segments + checkpoint generations)."""

    def __init__(self, path, *, fs: FileSystem | None = None,
                 fsync: str = "batch", checkpoint_every: int = 256,
                 sync_every: int = 8, keep_checkpoints: int = 2):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"unknown fsync policy {fsync!r} "
                             f"(expected one of {FSYNC_POLICIES})")
        self.fs = fs if fs is not None else RealFileSystem()
        self.path = os.fspath(path)
        self.fs.makedirs(self.path)
        self.checkpoint_every = max(1, checkpoint_every)
        self.wal = WriteAheadLog(self.fs, self.path, fsync=fsync,
                                 sync_every=sync_every)
        self.checkpoints = CheckpointStore(self.fs, self.path,
                                           keep=keep_checkpoints)
        self.replaying = False
        self.closed = False
        self.last_recovery: RecoveryReport | None = None
        self._records_since_checkpoint = 0
        # The serving layer's at-most-once seam (see repro.server):
        # `stamp(meta)` rides an opaque meta dict on every WAL record
        # appended inside the block (atomically with the batch, so a
        # crash either persists the mutation WITH its idempotency token
        # or neither), `server_state_provider` lets the server fold its
        # dedup ledger into checkpoints, and recovery surfaces both on
        # `recovered_server_state` / `recovered_batch_meta`.
        self.server_state_provider = None
        self.recovered_server_state = None
        self.recovered_batch_meta: list[dict] = []
        self._last_server_state = None
        self._pending_meta: dict | None = None
        # cumulative durability activity, mirrored into the metrics
        # registry by the sync hook (same pattern as router/index stats)
        self._records_replayed = 0
        self._bytes_replayed = 0
        self._torn_discarded = 0
        self._recovery_seconds = 0.0
        self._checkpoint_seconds = 0.0
        self._checkpoints_total = 0
        self._checkpoint_bytes = 0
        # the background checkpoint in flight (at most one), and what
        # the reaped ones cost
        self._child: _Child | None = None
        self._background_total = 0
        self._failures: Counter = Counter()
        self._child_cpu_seconds = 0.0
        self._child_max_rss = 0

    def has_state(self) -> bool:
        """Whether the directory already holds durable state."""
        return bool(self.checkpoints.list() or self.wal.segments())

    # -- binding -----------------------------------------------------------------------

    def bind(self, registry) -> None:
        """Attach to ``registry``: subsequent batches/DDL are logged and
        durability stats join the registry's metric snapshots."""
        registry.wal = self
        registry.metrics.add_sync_hook(self._sync_metrics)

    def _sync_metrics(self, metrics) -> None:
        metrics.counter("wal_records_total",
                        "Records appended to the write-ahead log"
                        ).set(self.wal.stats.records_appended)
        metrics.counter("wal_bytes",
                        "WAL bytes written plus bytes scanned by recovery"
                        ).set(self.wal.stats.bytes_appended
                              + self._bytes_replayed)
        metrics.counter("wal_fsyncs_total",
                        "fsync calls issued by the write-ahead log"
                        ).set(self.wal.stats.fsyncs)
        metrics.counter("wal_records_replayed",
                        "WAL records replayed by recovery"
                        ).set(self._records_replayed)
        metrics.counter("wal_torn_records_discarded",
                        "Torn/corrupt trailing records discarded"
                        ).set(self._torn_discarded)
        metrics.counter("recovery_seconds",
                        "Cumulative wall-clock time spent recovering"
                        ).set(self._recovery_seconds)
        metrics.counter("checkpoint_seconds",
                        "Cumulative wall-clock time writing checkpoints"
                        ).set(self._checkpoint_seconds)
        # observed per checkpoint in :meth:`checkpoint`; touched here so
        # the family is exported before the first one is cut
        metrics.histogram(_STALL_METRIC, _STALL_HELP)
        metrics.counter("checkpoints_total",
                        "Checkpoints cut (inline, or handed to a child)"
                        ).set(self._checkpoints_total)
        metrics.gauge("checkpoint_bytes",
                      "Size on disk of the newest checkpoint"
                      ).set(self._checkpoint_bytes)
        metrics.counter("checkpoint_background_total",
                        "Checkpoints encoded by a forked child"
                        ).set(self._background_total)
        for reason in FAILURE_REASONS:
            metrics.counter("checkpoint_failures_total",
                            "Background checkpoints discarded",
                            reason=reason).set(self._failures[reason])
        metrics.counter("checkpoint_child_cpu_seconds_total",
                        "CPU (user + system) of reaped checkpoint children"
                        ).set(self._child_cpu_seconds)
        metrics.gauge("checkpoint_child_max_rss_bytes",
                      "Peak resident set of the newest reaped child"
                      ).set(self._child_max_rss)
        metrics.gauge("checkpoint_inflight",
                      "Background checkpoints forked, not yet completed"
                      ).set(int(self._child is not None))
        metrics.gauge("wal_last_lsn", "Newest LSN appended or replayed"
                      ).set(self.wal.last_lsn)

    # -- logging (called by the registry / facade) -------------------------------------

    def log_batch(self, updates: list[UpdateRequest]) -> None:
        """Append one routed update batch *before* it mutates anything."""
        if self.replaying or not updates:
            return
        record = {"t": "batch", "u": [_encode_request(r) for r in updates]}
        if any(r.fragment is not None for r in updates):
            record["atoms"] = ATOM_SCHEME
        self._append(record)

    def log_load(self, name: str, document: XmlDocument) -> None:
        if self.replaying:
            return
        self._append({"t": "load", "name": name,
                      "xml": document.to_string(), "atoms": ATOM_SCHEME})

    def log_create_view(self, name: str, query: str,
                        policy: MaintenancePolicy,
                        materialize: bool = True) -> None:
        if self.replaying:
            return
        self._append({"t": "create_view", "name": name, "query": query,
                      "policy_kind": policy.kind,
                      "policy_threshold": policy.threshold,
                      "materialize": materialize})

    def log_drop_view(self, name: str) -> None:
        if self.replaying:
            return
        self._append({"t": "drop_view", "name": name})

    def _append(self, payload: dict) -> None:
        if self.closed:
            raise RuntimeError("durability manager is closed")
        if self._pending_meta is not None:
            payload = {**payload, "m": self._pending_meta}
        self.wal.append(payload)
        self._records_since_checkpoint += 1

    @contextlib.contextmanager
    def stamp(self, meta: dict):
        """Attach ``meta`` to every WAL record appended in this block.

        The meta rides inside the record itself, so it is durable
        exactly when the logged mutation is — the atomicity the serving
        layer's retry dedup ledger needs: an acknowledged-but-retried
        request can be answered from the recovered ledger instead of
        double-applying, and a crash before the record means neither
        the mutation nor its token survived.
        """
        previous = self._pending_meta
        self._pending_meta = meta
        try:
            yield
        finally:
            self._pending_meta = previous

    # -- checkpointing -----------------------------------------------------------------

    def maybe_checkpoint(self, registry) -> bool:
        """Called by the registry after each applied stream: complete the
        background checkpoint once its child has exited, and cut a new
        one — in a child — when enough records accumulated since the
        last cut.  Returns whether :meth:`checkpoint` ran."""
        if self.replaying:
            return False
        child = self._child
        if child is not None and not child.poll():
            return False            # at most one child: the cut waits
        due = self._records_since_checkpoint >= self.checkpoint_every
        if child is None and not due:
            return False
        self.checkpoint(registry, background=True, cut=due)
        return True

    def settle(self, registry) -> bool:
        """Wait for the background checkpoint in flight, if any, and
        complete it — the deterministic point for tests and crash drills
        that need it on disk.  Returns whether there was one."""
        if self._child is None:
            return False
        self.checkpoint(registry, cut=False)
        return True

    def checkpoint(self, registry, *, background: bool = False,
                   cut: bool = True) -> int | None:
        """All foreground checkpoint work.  First the background
        checkpoint in flight, if any, is completed (waiting for its
        child).  Then, with ``cut``, the registry's state at the current
        LSN is checkpointed: written here, or — with ``background`` in a
        process that may fork — handed to a child.  Returns the LSN of
        the new cut; without ``cut``, the LSN of the completed
        checkpoint (None when there was none or its child failed).

        Nothing is truncated until the new checkpoint has been re-read
        and verified against the bytes encoded, and the WAL keeps every
        segment the oldest *retained* generation needs — so a corrupt
        newest checkpoint can always fall back one generation with its
        replay tail intact.
        """
        started = time.perf_counter()
        lsn = None
        with registry.tracer.span("checkpoint") as span:
            if self._child is not None:
                lsn = self._complete(span)
            if cut:
                cut_started = time.perf_counter()
                # Quiesce before capturing: queued deferred forests are not
                # part of the snapshot, and their WAL records are about to
                # be truncated — flushing folds them into the extents.
                registry.flush()
                lsn = self.wal.last_lsn
                if not (background and fork_safe() and self._fork(
                        registry, lsn, span)):
                    self._write_inline(registry, lsn, cut_started, span)
                self._records_since_checkpoint = 0
                self._checkpoints_total += 1
        stall = time.perf_counter() - started
        self._checkpoint_seconds += stall
        registry.metrics.histogram(_STALL_METRIC, _STALL_HELP).observe(stall)
        return lsn

    def capture(self, registry, server: dict | None = None) -> dict:
        """The state a checkpoint cut now holds: :func:`capture_state`
        plus the serving layer's sections (``server``, when the caller
        took them already).  The caller quiesces the registry first."""
        state = capture_state(registry)
        if server is None:
            self._add_server_state(state)
        else:
            state.update(server)
        return state

    def _write_inline(self, registry, lsn: int, started: float,
                      span) -> None:
        state = self.capture(registry)
        captured = time.perf_counter()
        written = self.checkpoints.write(lsn, state)
        self.wal.start_segment(lsn + 1)
        self._retire(written)
        span.set(lsn=lsn, background=False, bytes=written.bytes,
                 capture_seconds=captured - started,
                 encode_seconds=written.encode_seconds,
                 write_seconds=written.write_seconds,
                 verify_seconds=written.verify_seconds)

    def _fork(self, registry, lsn: int, span) -> bool:
        """Hand the cut at ``lsn`` to a forked child and roll the WAL
        behind it; False when the fork itself failed."""
        server: dict = {}
        self._add_server_state(server)      # the parent's bookkeeping
        spool = tempfile.TemporaryFile(dir=self.path)
        try:
            pid = os.fork()
        except OSError:
            spool.close()
            return False
        if pid == 0:
            _run_child(spool.fileno(),
                       lambda: encode_state(self.capture(registry, server)))
        self._child = _Child(pid, lsn, spool)
        self._background_total += 1
        self.wal.start_segment(lsn + 1)
        span.set(lsn=lsn, background=True, pid=pid)
        return True

    def _complete(self, span) -> int | None:
        """Reap the child in flight (waiting for it) and write its
        payload; a failed child is counted and leaves the disk as is."""
        child, self._child = self._child, None
        try:
            child.poll(block=True)
            if child.rusage is not None:
                self._child_cpu_seconds += (child.rusage.ru_utime
                                            + child.rusage.ru_stime)
                self._child_max_rss = child.rusage.ru_maxrss * (
                    1 if sys.platform == "darwin" else 1024)
            span.set(background=True, pid=child.pid,
                     child_seconds=child.seconds)
            failure, payload = child.payload()
            if failure is not None:
                self._failures[failure] += 1
                span.set(failure=failure)
                return None
            written = self.checkpoints.write_payload(child.lsn, payload)
            self._retire(written)
            span.set(lsn=child.lsn, bytes=written.bytes,
                     write_seconds=written.write_seconds,
                     verify_seconds=written.verify_seconds)
            return child.lsn
        finally:
            child.spool.close()

    def _retire(self, written) -> None:
        """After a verified write: drop the generations and WAL segments
        no retained checkpoint needs."""
        oldest_retained = self.checkpoints.prune()
        self.wal.drop_segments_before(oldest_retained + 1)
        self._checkpoint_bytes = written.bytes

    def _add_server_state(self, state: dict) -> None:
        if self.server_state_provider is not None:
            # The serving layer's durable sidecar state (applied_index
            # high-water mark + retry dedup ledger) checkpoints with the
            # registry so WAL truncation cannot orphan it.
            state["server"] = self._last_server_state = \
                self.server_state_provider()
        else:
            # A provider-less checkpoint (Database.checkpoint()/close()
            # on a durable db whose server has stopped or never started
            # this run) must not orphan the sidecar either: carry the
            # last known blob forward, and keep any still-unclaimed
            # WAL-tail batch meta alive under a manager-owned key —
            # this checkpoint is about to truncate the records it rode
            # in on.
            if self._last_server_state is not None:
                state["server"] = self._last_server_state
            if self.recovered_batch_meta:
                state["server_meta"] = list(self.recovered_batch_meta)

    # -- recovery ----------------------------------------------------------------------

    def recover(self, registry) -> RecoveryReport:
        """Rebuild ``registry`` (fresh, empty) from the durable directory
        and position the WAL for appending.  Call :meth:`bind` after.
        A recovery that raises closes the manager (no checkpoint), so
        the WAL segment it opened for appending is not left open."""
        try:
            return self._recover(registry)
        except BaseException:
            self.close()
            raise

    def _recover(self, registry) -> RecoveryReport:
        report = RecoveryReport()
        started = time.perf_counter()
        self.recovered_server_state = None
        self.recovered_batch_meta = []
        with registry.tracer.span("recovery", path=self.path) as span:
            loaded = self.checkpoints.load_latest()
            base_lsn = 0
            if loaded is not None:
                base_lsn, state, generation = loaded
                self.recovered_server_state = state.pop("server", None)
                self._last_server_state = self.recovered_server_state
                self.recovered_batch_meta.extend(
                    state.pop("server_meta", ()))
                restore_state(registry, state)
                del loaded, state   # freed before the WAL tail replays
                report.checkpoint_lsn = base_lsn
                report.checkpoint_generation = generation
            self.replaying = True
            try:
                tail = self.wal.recover(base_lsn)
                for _lsn, payload in tail.records:
                    if not self._replay(registry, payload):
                        report.replay_errors += 1
            finally:
                self.replaying = False
            report.wal_records_replayed = len(tail.records)
            report.wal_bytes = tail.bytes_scanned
            report.torn_records_discarded = tail.torn_records_discarded
            report.documents = len(registry.storage.document_names)
            report.views = len(registry)
            report.recovery_seconds = time.perf_counter() - started
            span.set(checkpoint_lsn=report.checkpoint_lsn,
                     generation=report.checkpoint_generation,
                     records_replayed=report.wal_records_replayed,
                     torn_discarded=report.torn_records_discarded,
                     views=report.views,
                     seconds=report.recovery_seconds)
        self._records_replayed += report.wal_records_replayed
        self._bytes_replayed += report.wal_bytes
        self._torn_discarded += report.torn_records_discarded
        self._recovery_seconds += report.recovery_seconds
        self._records_since_checkpoint = report.wal_records_replayed
        self.last_recovery = report
        return report

    def _replay(self, registry, payload: dict) -> bool:
        """Apply one WAL record through the normal code paths; returns
        False when a batch re-raised (reproducing a pre-crash partial
        application, which is the converged state, not an error)."""
        kind = payload["t"]
        if kind == "load":
            storage = registry.storage
            document = XmlDocument.from_string(payload["name"],
                                               payload["xml"])
            _require_scheme(payload, [document.root],   # and its root atom
                            wide=len(storage.document_names) >= 12)
            storage.register(document)
        elif kind == "create_view":
            policy = MaintenancePolicy(payload["policy_kind"],
                                       payload["policy_threshold"])
            registry.register(payload["name"], payload["query"],
                              policy=policy,
                              materialize=payload.get("materialize", True))
        elif kind == "drop_view":
            registry.unregister(payload["name"])
        elif kind == "batch":
            requests = [_decode_request(u) for u in payload["u"]]
            _require_scheme(payload, [r.fragment for r in requests
                                      if r.fragment is not None])
            try:
                registry.apply_updates(requests)
            except Exception:
                return False
        else:
            raise ValueError(f"unknown WAL record type {kind!r}")
        # Surface the serving layer's stamped meta only for records
        # that (re)applied — a re-failed batch was never acknowledged,
        # so its token must not answer a retry with a phantom success.
        if "m" in payload:
            self.recovered_batch_meta.append(payload["m"])
        return True

    # -- lifecycle ---------------------------------------------------------------------

    def close(self, registry=None) -> None:
        """Flush durable state and release the log (idempotent).  With a
        registry, a final checkpoint is cut first (after completing the
        background one) so the next open restores instead of replaying;
        without, a background child is killed — the WAL covers its cut.
        No child outlives this call."""
        if self.closed:
            return
        if registry is not None:
            self.checkpoint(registry)
        elif self._child is not None:
            child, self._child = self._child, None
            with contextlib.suppress(ProcessLookupError):
                os.kill(child.pid, signal.SIGKILL)
            child.poll(block=True)
            child.spool.close()
        self.wal.close()
        self.closed = True
