"""Sibling-key generation leaving gaps for future inserts.

Initial key assignment (Fig 3.1 of the paper) leaves gaps between sibling
keys — the first twelve siblings get every second letter ``b, d, f, … x``;
beyond that an atom is ``z``, one *length-class* letter (``b`` = one digit,
``c`` = two, …) and that many base-12 digits from the same gapped letters:

    b < d < … < x < zbb < zbd < … < zbx < zcbb < zcbd < … < zcxx < zdbbb < …

The sequence is strictly increasing as strings (a longer class sorts after
every shorter one), never produces an atom ending in ``a``, keeps a free
letter between neighbours, and grows with the *logarithm* of the sibling
index (the 8000th child's atom is 6 characters), so keys under a wide node
stay short.  ``atom_between/after/before`` accept any atoms: keys handed out
under an older enumeration stay valid.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .key import FlexKey, atom_after, atom_before, atom_between

#: Letters used for initial assignment (gaps of one letter between each).
_GAPPED = "bdfhjlnprtvx"
#: Names :func:`sibling_atom`'s enumeration.  WAL records that key nodes
#: from text carry it: only the scheme that wrote them replays the same keys.
ATOM_SCHEME = 2


def sibling_atom(index: int) -> str:
    """The atom assigned to the ``index``-th sibling (0-based) at load time."""
    base = len(_GAPPED)
    if index < base:
        if index < 0:
            raise ValueError("sibling index must be >= 0")
        return _GAPPED[index]
    index -= base
    width = 1
    while index >= base ** width:    # skip the shorter length classes
        index -= base ** width
        width += 1
    digits = "".join(_GAPPED[index // base ** place % base]
                     for place in reversed(range(width)))
    return "z" + chr(ord("a") + width) + digits    # b = one digit, c = two, …


def sibling_atoms(count: int) -> Iterator[str]:
    """The first ``count`` initial sibling atoms, in order."""
    return (sibling_atom(i) for i in range(count))


def atom_for_insert(before: Optional[str], after: Optional[str]) -> str:
    """An atom for a node inserted between siblings ``before`` and ``after``.

    Either bound may be ``None`` (insert at the front / at the end).  The
    result is strictly between the bounds and never collides, so the
    surrounding siblings keep their keys (no relabeling on updates).
    """
    if before is None and after is None:
        return sibling_atom(0)
    if before is None:
        return atom_before(after)  # type: ignore[arg-type]
    if after is None:
        return atom_after(before)
    return atom_between(before, after)


class SiblingKeyAllocator:
    """Allocates child keys under one parent, tracking used sibling atoms.

    Used by the storage manager both at document load (sequential, gapped)
    and at update time (between two existing atoms).
    """

    def __init__(self, parent: Optional[FlexKey] = None,
                 existing: Sequence[str] = ()):
        self._parent = parent
        self._atoms = sorted(existing)

    @property
    def atoms(self) -> tuple[str, ...]:
        return tuple(self._atoms)

    def _register(self, atom: str) -> FlexKey:
        # Insert keeping sorted order; duplicates are a logic error upstream.
        import bisect

        idx = bisect.bisect_left(self._atoms, atom)
        if idx < len(self._atoms) and self._atoms[idx] == atom:
            raise ValueError(f"sibling atom {atom!r} already allocated")
        self._atoms.insert(idx, atom)
        if self._parent is None:
            return FlexKey(atom)
        return self._parent.child(atom)

    def append(self) -> FlexKey:
        """Key for a new last child."""
        if not self._atoms:
            return self._register(sibling_atom(0))
        return self._register(atom_after(self._atoms[-1]))

    def prepend(self) -> FlexKey:
        """Key for a new first child."""
        if not self._atoms:
            return self._register(sibling_atom(0))
        return self._register(atom_before(self._atoms[0]))

    def between(self, before_atom: str, after_atom: Optional[str]) -> FlexKey:
        """Key for a child inserted right after the sibling ``before_atom``."""
        return self._register(atom_for_insert(before_atom, after_atom))

    def release(self, atom: str) -> None:
        """Forget an atom after its node is deleted (key is never reused)."""
        try:
            self._atoms.remove(atom)
        except ValueError:
            pass
