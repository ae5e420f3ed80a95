"""Durability subsystem: write-ahead log, checkpoints, crash recovery.

``Database(durable_path=...)`` is the user-facing entry point; the
pieces compose bottom-up:

* :mod:`~repro.durability.files` — the injectable file layer (the
  fault-injection seam);
* :mod:`~repro.durability.wal` — length-prefixed CRC32 records with
  monotone LSNs in checkpoint-rolled segments;
* :mod:`~repro.durability.checkpoint` — atomic, verified, generational
  snapshots;
* :mod:`~repro.durability.snapshot` — snapshot format 3: how engine
  state (documents with their FlexKeys, the StructuralIndex, view
  extents, operator-state tables) is laid out as flat columns, and how
  restore rebuilds the trees from them;
* :mod:`~repro.durability.manager` — the orchestrator a
  :class:`~repro.multiview.ViewRegistry` binds to, which also runs the
  automatic checkpoint's encoder in a forked child.
"""

from .checkpoint import CheckpointError, CheckpointStore
from .files import FileSystem, RealFileSystem
from .manager import DurabilityManager, RecoveryError, RecoveryReport
from .wal import FSYNC_POLICIES, WriteAheadLog, read_segment

__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "DurabilityManager",
    "FSYNC_POLICIES",
    "FileSystem",
    "RealFileSystem",
    "RecoveryError",
    "RecoveryReport",
    "WriteAheadLog",
    "read_segment",
]
