"""Fault-injection harness for the durability subsystem.

Wraps the :class:`repro.durability.FileSystem` seam to inject the
classic storage-engine failure modes:

* **torn writes** — the Nth write persists only a prefix, then the
  process "dies" (:class:`SimulatedCrash`);
* **short reads** — ``read(n)`` returns fewer bytes than asked (the
  reader must loop, not treat it as EOF);
* **fsync failures** — ``fsync`` raises ``OSError`` (an EIO-style
  device error), which must abort the batch *before* any mutation;
* **kill-at-LSN crash points** — the process "dies" immediately after
  (or torn-mid-way-through) appending the WAL record with a given LSN;
* **silent corruption** — one byte of a file flips right after it is
  renamed into place (what a checkpoint's re-read verification is for).

:class:`SimulatedCrash` deliberately derives from ``BaseException`` so
no ``except Exception`` recovery path in the engine can swallow it —
the closest in-process analogue of ``kill -9``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.durability import RealFileSystem

__all__ = ["FaultPlan", "FaultyFile", "FaultyFileSystem", "SimulatedCrash"]


class SimulatedCrash(BaseException):
    """The injected process death (BaseException: nothing catches it)."""


@dataclass
class FaultPlan:
    """What to inject, counted across the whole filesystem instance.

    ``torn_write_at`` / ``short_read_at`` are 1-based global operation
    ordinals; ``torn_write_keep`` is how many bytes of that write
    persist.  ``fail_fsync`` fails every fsync; ``fail_fsync_at`` only
    the Nth.  ``crash_after_lsn`` kills the process right after the WAL
    record with that LSN is fully written (set ``torn`` to die mid-write
    with only ``torn_write_keep`` bytes of it on disk).
    ``flip_byte_after_replace`` is the offset of one byte to invert in
    the destination of the next ``replace`` — after the data was fsynced
    and renamed, before anyone re-reads it.
    """

    torn_write_at: int | None = None
    torn_write_keep: int = 5
    short_read_at: int | None = None
    short_read_keep: int = 3
    fail_fsync: bool = False
    fail_fsync_at: int | None = None
    crash_after_lsn: int | None = None
    torn: bool = False
    flip_byte_after_replace: int | None = None

    writes: int = field(default=0, init=False)
    reads: int = field(default=0, init=False)
    fsyncs: int = field(default=0, init=False)


class FaultyFile:
    """A file proxy routing read/write/flush through the fault plan."""

    def __init__(self, fileobj, plan: FaultPlan, fs: "FaultyFileSystem"):
        self._file = fileobj
        self._plan = plan
        self._fs = fs

    def write(self, data: bytes) -> int:
        plan = self._plan
        plan.writes += 1
        if plan.torn_write_at is not None \
                and plan.writes == plan.torn_write_at:
            self._file.write(data[:plan.torn_write_keep])
            self._file.flush()
            raise SimulatedCrash(
                f"torn write #{plan.writes}: kept "
                f"{min(plan.torn_write_keep, len(data))}/{len(data)} bytes")
        written = self._file.write(data)
        if plan.crash_after_lsn is not None \
                and self._fs.lsn_of(data) == plan.crash_after_lsn:
            if plan.torn:
                # Rewind: only a prefix of this record reaches disk.
                self._file.flush()
                self._file.truncate(self._file.tell() - len(data)
                                    + plan.torn_write_keep)
            self._file.flush()
            raise SimulatedCrash(f"kill at LSN {plan.crash_after_lsn}")
        return written

    def read(self, count: int = -1) -> bytes:
        plan = self._plan
        plan.reads += 1
        if plan.short_read_at is not None \
                and plan.reads == plan.short_read_at and count > 0:
            return self._file.read(min(count, plan.short_read_keep))
        return self._file.read(count)

    def flush(self) -> None:
        self._file.flush()

    def truncate(self, size=None):
        return self._file.truncate(size)

    def tell(self) -> int:
        return self._file.tell()

    def seek(self, *args) -> int:
        return self._file.seek(*args)

    def fileno(self) -> int:
        return self._file.fileno()

    def close(self) -> None:
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


class FaultyFileSystem(RealFileSystem):
    """A :class:`RealFileSystem` whose files and fsyncs obey a
    :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan | None = None):
        self.plan = plan if plan is not None else FaultPlan()

    @staticmethod
    def lsn_of(data: bytes) -> int | None:
        """The LSN of a WAL record write (None for non-record writes)."""
        if len(data) < 16:
            return None
        return int.from_bytes(data[:8], "big")

    def open(self, path: str, mode: str):
        return FaultyFile(open(path, mode), self.plan, self)

    def replace(self, src: str, dst: str) -> None:
        super().replace(src, dst)
        offset = self.plan.flip_byte_after_replace
        if offset is not None:
            self.plan.flip_byte_after_replace = None
            with open(dst, "r+b") as fh:
                fh.seek(offset)
                byte = fh.read(1)
                fh.seek(offset)
                fh.write(bytes([byte[0] ^ 0xFF]))

    def fsync(self, fileobj) -> None:
        self.plan.fsyncs += 1
        if self.plan.fail_fsync or (
                self.plan.fail_fsync_at is not None
                and self.plan.fsyncs == self.plan.fail_fsync_at):
            raise OSError(5, "injected fsync failure")
        fileobj.flush()
        os.fsync(fileobj.fileno())
