"""Atomic, CRC-verified checkpoints of the whole engine state.

A checkpoint file ``checkpoint-<lsn>.ckpt`` holds one state dict — the
plain-builtin columns of :mod:`repro.durability.snapshot`, serialized
with :mod:`pickle` — behind a fixed header::

    magic "RPCK" | format:u32 | lsn:u64 | crc32:u32 | length:u64

:func:`encode_state` is the one encoder.  :meth:`CheckpointStore.write`
runs it here; a background checkpoint runs it in a forked child (see
:mod:`repro.durability.manager`) and hands the bytes it produced to
:meth:`CheckpointStore.write_payload`, which writes them exactly like
``write`` does.

Writes are crash-atomic: the bytes go to a ``.tmp`` sibling, are
fsynced, atomically renamed over the final name, and the directory entry
is fsynced — a reader sees either the complete new checkpoint or none
of it.  Every write is re-read, checked (header, CRC) and compared with
the bytes just encoded before the caller is allowed to truncate the WAL
behind it.  The re-read is *not* decoded: that the file holds exactly
the bytes this process produced is everything the disk can get wrong,
and decoding would build a second copy of the database in memory just
to drop it.  (Should those bytes ever fail to decode at recovery, the
previous generation and its WAL tail are still there — see below.)

The store retains the newest ``keep`` generations (default 2): recovery
falls back to the previous checkpoint when the newest fails its CRC,
and the WAL keeps every segment the *oldest retained* generation would
need, so the fallback always has its replay tail.
"""

from __future__ import annotations

import io
import pickle
import struct
import time
import types
import zlib
from typing import NamedTuple

from .files import FileSystem

__all__ = ["CheckpointError", "CheckpointStore", "encode_state"]

_MAGIC = b"RPCK"
_FORMAT = 1
_HEADER = struct.Struct(">4sIQIQ")

_PREFIX = "checkpoint-"
_SUFFIX = ".ckpt"


class CheckpointError(Exception):
    """A checkpoint file is missing, truncated, or fails verification."""


class WrittenCheckpoint(NamedTuple):
    """One verified :meth:`CheckpointStore.write`: where it went, its
    size on disk and what each phase of the write cost."""

    path: str
    bytes: int
    encode_seconds: float    # pickle (``write`` only) + CRC
    write_seconds: float     # tmp write, fsync, rename, directory fsync
    verify_seconds: float    # re-read, header + CRC check, compare


def encode_state(state: dict) -> bytes:
    """A checkpoint payload: the state dict, pickled.  Inline and
    background checkpoints both encode through here."""
    return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)


class _CheckpointUnpickler(pickle.Unpickler):
    """Format-3 checkpoints pickled ``repro.storage.skeleton`` objects in
    the operator-state section, which restore ignores: that one retired
    module's classes load as inert namespaces, every other name as
    :mod:`pickle` resolves it."""

    def find_class(self, module: str, name: str):
        if module == "repro.storage.skeleton":
            return types.SimpleNamespace
        return super().find_class(module, name)


def _checkpoint_name(lsn: int) -> str:
    return f"{_PREFIX}{lsn:020d}{_SUFFIX}"


def parse_checkpoint_name(name: str) -> int | None:
    if not (name.startswith(_PREFIX) and name.endswith(_SUFFIX)):
        return None
    digits = name[len(_PREFIX):-len(_SUFFIX)]
    return int(digits) if digits.isdigit() else None


class CheckpointStore:
    """Numbered checkpoint generations inside one durable directory."""

    def __init__(self, fs: FileSystem, directory: str, keep: int = 2):
        self._fs = fs
        self.directory = directory
        self.keep = max(1, keep)

    def list(self) -> list[tuple[int, str]]:
        """``(lsn, path)`` of every checkpoint, newest first."""
        out = []
        for name in self._fs.listdir(self.directory):
            lsn = parse_checkpoint_name(name)
            if lsn is not None:
                out.append((lsn, f"{self.directory}/{name}"))
        out.sort(reverse=True)
        return out

    # -- writing -----------------------------------------------------------------------

    def write(self, lsn: int, state: dict) -> WrittenCheckpoint:
        """Atomically persist ``state`` as the checkpoint at ``lsn``:
        :func:`encode_state`, then :meth:`write_payload`."""
        started = time.perf_counter()
        payload = encode_state(state)
        pickled = time.perf_counter() - started
        written = self.write_payload(lsn, payload)
        return written._replace(encode_seconds=written.encode_seconds
                                + pickled)

    def write_payload(self, lsn: int, payload: bytes) -> WrittenCheckpoint:
        """Atomically persist an encoded state as the checkpoint at
        ``lsn``; verified by re-read (header, CRC, same bytes — no
        decode) before returning."""
        started = time.perf_counter()
        crc = zlib.crc32(payload)
        header = _HEADER.pack(_MAGIC, _FORMAT, lsn, crc, len(payload))
        encoded = time.perf_counter()
        path = f"{self.directory}/{_checkpoint_name(lsn)}"
        tmp = path + ".tmp"
        fh = self._fs.open(tmp, "wb")
        try:
            fh.write(header)
            fh.write(payload)
            self._fs.fsync(fh)
        finally:
            fh.close()
        self._fs.replace(tmp, path)
        self._fs.fsync_dir(self.directory)
        written = time.perf_counter()
        # never truncate the WAL behind a bad write
        if self._read_verified(path) != (lsn, payload):
            raise CheckpointError(
                f"checkpoint re-read differs from what was written: {path}")
        return WrittenCheckpoint(path, _HEADER.size + len(payload),
                                 encoded - started, written - encoded,
                                 time.perf_counter() - written)

    # -- reading -----------------------------------------------------------------------

    def _read_verified(self, path: str) -> tuple[int, bytes]:
        """One checkpoint file's ``(lsn, payload)`` after the header and
        CRC checks — the payload is not decoded."""
        with self._fs.open(path, "rb") as fh:
            header = fh.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise CheckpointError(f"truncated checkpoint header: {path}")
            magic, fmt, lsn, crc, length = _HEADER.unpack(header)
            if magic != _MAGIC:
                raise CheckpointError(f"bad checkpoint magic in {path}")
            if fmt != _FORMAT:
                raise CheckpointError(
                    f"unsupported checkpoint format {fmt} in {path}")
            payload = fh.read(length)
        if len(payload) < length:
            raise CheckpointError(f"truncated checkpoint payload: {path}")
        if zlib.crc32(payload) != crc:
            raise CheckpointError(f"checkpoint CRC mismatch: {path}")
        return lsn, payload

    def load_one(self, path: str) -> tuple[int, dict]:
        """Decode and verify one checkpoint file → ``(lsn, state)``."""
        lsn, payload = self._read_verified(path)
        try:
            state = _CheckpointUnpickler(io.BytesIO(payload)).load()
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint unpickle failed: {path}: {exc}") from exc
        return lsn, state

    def load_latest(self) -> tuple[int, dict, int] | None:
        """The newest checkpoint that verifies, as ``(lsn, state,
        generation)`` where generation 0 is the newest on disk — a
        nonzero generation means corruption fallback kicked in.  None
        when no checkpoint verifies (cold start)."""
        for generation, (_lsn, path) in enumerate(self.list()):
            try:
                lsn, state = self.load_one(path)
            except (CheckpointError, OSError):
                continue
            return lsn, state, generation
        return None

    # -- retention ---------------------------------------------------------------------

    def prune(self) -> int:
        """Drop all but the newest ``keep`` generations; returns the
        oldest *retained* LSN (the WAL must keep its replay tail)."""
        checkpoints = self.list()
        for _lsn, path in checkpoints[self.keep:]:
            self._fs.remove(path)
        retained = checkpoints[:self.keep]
        return retained[-1][0] if retained else 0
