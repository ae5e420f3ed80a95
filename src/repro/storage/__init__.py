"""FlexKey-addressed storage manager and structural index."""

from .index import StructuralIndex
from .manager import StorageError, StorageManager

__all__ = [
    "StorageError",
    "StorageManager",
    "StructuralIndex",
]
