"""FlexKey-addressed storage manager, structural index and skeletons."""

from .index import StructuralIndex
from .manager import StorageError, StorageManager
from .skeleton import REF, VALUE, ContentItem, Skeleton

__all__ = [
    "REF",
    "VALUE",
    "ContentItem",
    "Skeleton",
    "StorageError",
    "StorageManager",
    "StructuralIndex",
]
