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
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass

from ..flexkeys import ATOM_SCHEME, FlexKey
from ..multiview.policies import MaintenancePolicy
from ..updates.primitives import UpdateRequest
from ..xmlmodel import XmlDocument, parse_fragment, serialize
from .checkpoint import CheckpointStore
from .files import FileSystem, RealFileSystem
from .snapshot import capture_state, restore_state
from .wal import FSYNC_POLICIES, WriteAheadLog

__all__ = ["DurabilityManager", "RecoveryError", "RecoveryReport"]


class RecoveryError(Exception):
    """The durable directory cannot be replayed faithfully by this build."""


_STALL_METRIC = "checkpoint_stall_seconds"
_STALL_HELP = "Foreground wall-clock stall of one checkpoint"


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

    def as_dict(self) -> dict:
        return dict(self.__dict__)


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
        metrics.counter("checkpoints_total", "Checkpoints written"
                        ).set(self._checkpoints_total)
        metrics.gauge("checkpoint_bytes",
                      "Size on disk of the newest checkpoint"
                      ).set(self._checkpoint_bytes)
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
        """Cut a checkpoint when enough records accumulated since the
        last one (called by the registry after each applied stream)."""
        if self.replaying \
                or self._records_since_checkpoint < self.checkpoint_every:
            return False
        self.checkpoint(registry)
        return True

    def checkpoint(self, registry) -> int:
        """Serialize the registry's full state at the current LSN, roll
        the WAL, and prune old generations; returns the checkpoint LSN.

        Nothing is truncated until the new checkpoint has been re-read
        and verified against the bytes just encoded, and the WAL keeps
        every segment the oldest *retained* generation needs — so a
        corrupt newest checkpoint can always fall back one generation
        with its replay tail intact.
        """
        started = time.perf_counter()
        with registry.tracer.span("checkpoint") as span:
            # Quiesce before capturing: queued deferred trees are not part
            # of the snapshot, and their WAL records are about to be
            # truncated — flushing folds them into the extents (and leaves
            # operator-state entries clean enough to checkpoint).
            registry.flush()
            state = capture_state(registry)
            self._add_server_state(state)
            captured = time.perf_counter()
            lsn = self.wal.last_lsn
            written = self.checkpoints.write(lsn, state)
            self.wal.start_segment(lsn + 1)
            oldest_retained = self.checkpoints.prune()
            self.wal.drop_segments_before(oldest_retained + 1)
            span.set(lsn=lsn, bytes=written.bytes,
                     capture_seconds=captured - started,
                     encode_seconds=written.encode_seconds,
                     write_seconds=written.write_seconds,
                     verify_seconds=written.verify_seconds)
        self._records_since_checkpoint = 0
        self._checkpoints_total += 1
        self._checkpoint_bytes = written.bytes
        stall = time.perf_counter() - started
        self._checkpoint_seconds += stall
        registry.metrics.histogram(_STALL_METRIC, _STALL_HELP).observe(stall)
        return lsn

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
        registry, a final checkpoint is cut first so the next open
        restores instead of replaying."""
        if self.closed:
            return
        if registry is not None:
            self.checkpoint(registry)
        self.wal.close()
        self.closed = True
