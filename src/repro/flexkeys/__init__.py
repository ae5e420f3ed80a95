"""FlexKey order/identity encoding (Chapter 3 of the paper)."""

from .key import (
    COMPOSE_SEP,
    LEVEL_SEP,
    FlexKey,
    FlexKeyError,
    atom_after,
    atom_before,
    atom_between,
    compare,
    compose,
    compose_values,
    order_of,
)
from .generator import (
    ATOM_SCHEME,
    SiblingKeyAllocator,
    atom_for_insert,
    sibling_atom,
    sibling_atoms,
)

__all__ = [
    "ATOM_SCHEME",
    "COMPOSE_SEP",
    "LEVEL_SEP",
    "FlexKey",
    "FlexKeyError",
    "SiblingKeyAllocator",
    "atom_after",
    "atom_before",
    "atom_between",
    "atom_for_insert",
    "compare",
    "compose",
    "compose_values",
    "order_of",
    "sibling_atom",
    "sibling_atoms",
]
