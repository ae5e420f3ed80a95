"""FlexKey: lexicographic, update-stable order/identity encoding for XML.

A FlexKey (Section 3.3.1 of the paper, after the MASS keys of [DR03]) is a
dot-separated sequence of variable-length lowercase strings.  The key of a
node is the concatenation of the keys of all its ancestors plus the node's
own sibling key, so

* the key identifies the unique root-to-node path,
* lexicographic comparison of keys yields document order at any level, and
* a key strictly between any two keys always exists (``key_between``), so
  inserts never force relabeling.

Keys may carry an *overriding order* — another FlexKey attached to the node
identity that represents a query-imposed order different from the one the
identity encodes (Section 3.3.2).  All comparisons go through
:func:`order_of`, which prefers the overriding order when present.

Composed keys (``compose``) join several FlexKeys with the ``..`` delimiter
and are used to encode mixed major/minor orders (e.g. by the Combine
operator) and lineage bodies of semantic identifiers.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Optional

#: Separator between hierarchy levels inside one key.
LEVEL_SEP = "."
#: Separator between whole keys inside a composed key.
COMPOSE_SEP = ".."

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
_FIRST = _ALPHABET[0]
_LAST = _ALPHABET[-1]


class FlexKeyError(ValueError):
    """Raised for malformed FlexKey strings or impossible key requests."""


def _validate_atom(atom: str) -> None:
    if not atom:
        raise FlexKeyError("empty FlexKey component")
    for ch in atom:
        if ch not in _ALPHABET:
            raise FlexKeyError(f"invalid FlexKey character {ch!r} in {atom!r}")


@total_ordering
class FlexKey:
    """An immutable FlexKey, optionally carrying an overriding order key.

    Equality and hashing are by the identity string only; ordering compares
    ``order_of(self)`` with ``order_of(other)`` so overriding orders take
    effect transparently (Section 3.3.2: ``k1 < k2 <=> order(k1) < order(k2)``).
    """

    __slots__ = ("value", "override", "_atoms", "_order")

    def __init__(self, value: str, override: Optional["FlexKey"] = None):
        if not value:
            raise FlexKeyError("FlexKey value must be non-empty")
        # plain slots, not properties: read on every hash and compare
        self.value = value
        self.override = override
        # Lazily-memoized derived forms: the parsed atom tuple and the
        # effective order token.  Keys are immutable, so both are computed
        # at most once per instance — comparisons and sorts stop
        # re-splitting / re-chasing override chains on every call.
        self._atoms: Optional[tuple[str, ...]] = None
        self._order: Optional[str] = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "FlexKey":
        """Parse ``"b.f[a.c]"`` style text (override in square brackets)."""
        override = None
        if text.endswith("]"):
            open_idx = text.index("[")
            override = cls.parse(text[open_idx + 1:-1])
            text = text[:open_idx]
        for atom in _split_atoms(text):
            _validate_atom(atom)
        return cls(text, override)

    @classmethod
    def root(cls, atom: str = "b") -> "FlexKey":
        _validate_atom(atom)
        return cls(atom)

    def child(self, atom: str) -> "FlexKey":
        """Key for a child whose sibling key is ``atom``."""
        _validate_atom(atom)
        return FlexKey(self.value + LEVEL_SEP + atom)

    def with_override(self, override: Optional["FlexKey"]) -> "FlexKey":
        """Return a copy of this key carrying ``override`` as its order."""
        return FlexKey(self.value, override)

    def without_override(self) -> "FlexKey":
        if self.override is None:
            return self
        return FlexKey(self.value)

    # -- accessors -------------------------------------------------------------

    @property
    def atoms(self) -> tuple[str, ...]:
        """The per-level components of this key (composed keys flattened)."""
        atoms = self._atoms
        if atoms is None:
            atoms = self._atoms = tuple(_split_atoms(self.value))
        return atoms

    def order_token(self) -> str:
        """The memoized effective order string (override chain resolved)."""
        token = self._order
        if token is None:
            if self.override is not None:
                token = self.override.order_token()
            else:
                token = self.value
            self._order = token
        return token

    @property
    def depth(self) -> int:
        return len(self.atoms)

    @property
    def is_composed(self) -> bool:
        return COMPOSE_SEP in self.value

    def parent(self) -> Optional["FlexKey"]:
        """The key of this node's parent, or None for a root key."""
        if self.is_composed:
            raise FlexKeyError("composed keys have no parent")
        idx = self.value.rfind(LEVEL_SEP)
        if idx < 0:
            return None
        return FlexKey(self.value[:idx])

    def local(self) -> str:
        """The last (own) component of this key."""
        return self.atoms[-1]

    # -- relationships ----------------------------------------------------------

    def is_ancestor_of(self, other: "FlexKey") -> bool:
        """True when this key is a *proper* ancestor of ``other``.

        Containment is determined purely from the key strings — a frequent
        operation in XML query execution that must not touch the data.
        """
        prefix = self.value + LEVEL_SEP
        return other.value.startswith(prefix)

    # -- dunder plumbing ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlexKey):
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __reduce__(self):
        # the memoized forms are not state: rebuilt on first use
        return FlexKey, (self.value, self.override)

    def __setstate__(self, state) -> None:
        # slot state of a key pickled while its slots were _value/_override
        slots = state[1]
        self.value, self.override = slots["_value"], slots.get("_override")
        self._atoms = self._order = None

    def __lt__(self, other: "FlexKey") -> bool:
        return self.order_token() < other.order_token()

    def __repr__(self) -> str:
        if self.override is not None:
            return f"{self.value}[{self.override!r}]"
        return self.value

    def __str__(self) -> str:
        return repr(self)


def _split_atoms(value: str) -> list[str]:
    # Composed keys flatten naturally: "a.b..c.d" -> a, b, c, d with an empty
    # atom marking the compose boundary; filter it but keep ordering exact by
    # treating the boundary as a level separator (".." sorts before any
    # letter, matching the intent that a composed key extends its prefix).
    return [atom for atom in value.split(LEVEL_SEP) if atom]


def order_of(key: FlexKey) -> str:
    """The effective order string for ``key`` (override wins, memoized)."""
    return key.order_token()


def compare(k1: FlexKey, k2: FlexKey) -> int:
    """Three-way comparison of effective orders."""
    o1, o2 = k1.order_token(), k2.order_token()
    if o1 < o2:
        return -1
    if o1 > o2:
        return 1
    return 0


def compose(*keys: FlexKey) -> FlexKey:
    """Compose several keys into one (order reflects the argument order).

    ``compose(b.b, e.f) == "b.b..e.f"`` — used for mixed major/minor orders.
    """
    if not keys:
        raise FlexKeyError("compose() requires at least one key")
    return FlexKey(COMPOSE_SEP.join(k.value for k in keys))


def compose_values(values: Iterable[str]) -> str:
    """Compose raw strings (values or keys) into one lineage string."""
    parts = list(values)
    if not parts:
        raise FlexKeyError("compose_values() requires at least one part")
    return COMPOSE_SEP.join(parts)


def atom_between(low: str, high: str) -> str:
    """A sibling atom strictly between ``low`` and ``high`` (low < high).

    Works over the variable-length string space: when the two atoms are
    adjacent, the result extends ``low`` — "we can always create new gaps"
    (Section 3.4.4).  Maintains the invariant that atoms never end in ``a``
    (the smallest digit), which guarantees a key *before* any atom exists too.
    """
    if low >= high:
        raise FlexKeyError(
            f"atom_between requires low < high, got {low!r} >= {high!r}"
        )
    candidate = _midpoint(low, high)
    if not (low < candidate < high):  # pragma: no cover - defensive
        raise FlexKeyError(f"failed to find atom between {low!r} and {high!r}")
    return candidate


def _midpoint(low: str, high: Optional[str]) -> str:
    """A string strictly between ``low`` and ``high`` (``None`` = +infinity).

    Port of the fractional-indexing midpoint over digits ``a..z``.  Inputs
    must not end in ``a`` (unless empty); the output never ends in ``a``.
    """
    if high is not None:
        # Strip the longest common prefix, treating `low` as padded with 'a's.
        i = 0
        while i < len(high) and (low[i] if i < len(low) else _FIRST) == high[i]:
            i += 1
        if i > 0:
            return high[:i] + _midpoint(low[i:], high[i:])
    digit_low = _ALPHABET.index(low[0]) if low else 0
    digit_high = _ALPHABET.index(high[0]) if high is not None else len(_ALPHABET)
    if digit_high - digit_low > 1:
        return _ALPHABET[(digit_low + digit_high) // 2]
    # First digits are consecutive.
    if high is not None and len(high) > 1:
        # `high` truncated to its first digit sits strictly between.
        return high[:1]
    # `high` is a single digit (or +inf): keep low's first digit, recurse on
    # low's tail against +infinity.
    return _ALPHABET[digit_low] + _midpoint(low[1:] if low else "", None)


def atom_after(atom: str) -> str:
    """An atom strictly greater than ``atom``."""
    return _midpoint(atom, None)


def atom_before(atom: str) -> str:
    """An atom strictly smaller than ``atom``."""
    if atom <= _FIRST:
        raise FlexKeyError(f"no atom exists before {atom!r}")
    return _midpoint("", atom)
