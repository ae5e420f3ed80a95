"""Location paths used by navigation operators, SAPT and update targets.

A :class:`Path` is a sequence of steps over the paper's supported axes —
child ``/`` and descendant ``//`` — with element name tests plus the two
value tests ``@name`` and ``text()`` (which may only appear at the end).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

CHILD = "child"
DESCENDANT = "descendant"


@dataclass(frozen=True)
class Step:
    axis: str           # CHILD or DESCENDANT
    test: str           # element name, "@attr", or "text()"

    @property
    def is_attribute(self) -> bool:
        return self.test.startswith("@")

    @property
    def is_text(self) -> bool:
        return self.test == "text()"

    @property
    def is_value(self) -> bool:
        return self.is_attribute or self.is_text

    @property
    def attribute_name(self) -> str:
        return self.test[1:]

    def __str__(self) -> str:
        prefix = "/" if self.axis == CHILD else "//"
        return prefix + self.test


class PathError(ValueError):
    """Raised for malformed path strings."""


@dataclass(frozen=True)
class Path:
    """An axis/test sequence; value steps only in the final position(s).

    ``@attr/text()`` is allowed (attribute then its text) — the text step is
    a no-op on an attribute value.
    """

    steps: tuple[Step, ...]

    @classmethod
    def parse(cls, text: str) -> "Path":
        """Parse ``"bib/book//title/text()"`` or ``"/bib/book"`` style.

        Memoized: paths are frozen and parsing is a pure function, and
        the same path strings recur constantly (SAPT checks, update
        resolution, the session API)."""
        return _parse_path(text)

    @classmethod
    def _parse(cls, text: str) -> "Path":
        text = text.strip()
        if not text:
            return cls(())
        steps: list[Step] = []
        i = 0
        if text.startswith("/"):
            pass  # leading slash is implicit
        while i < len(text):
            if text.startswith("//", i):
                axis = DESCENDANT
                i += 2
            elif text.startswith("/", i):
                axis = CHILD
                i += 1
            else:
                axis = CHILD
            j = i
            while j < len(text) and text[j] != "/":
                j += 1
            test = text[i:j]
            if not test:
                raise PathError(f"empty step in path {text!r}")
            steps.append(Step(axis, test))
            i = j
        path = cls(tuple(steps))
        path._validate()
        return path

    def _validate(self) -> None:
        seen_value = False
        for step in self.steps:
            if seen_value and not step.is_text:
                raise PathError(
                    f"value step must be last in path {self}")
            if step.is_value:
                seen_value = True

    @property
    def ends_in_value(self) -> bool:
        return bool(self.steps) and self.steps[-1].is_value

    def element_steps(self) -> tuple[Step, ...]:
        return tuple(s for s in self.steps if not s.is_value)

    def value_steps(self) -> tuple[Step, ...]:
        return tuple(s for s in self.steps if s.is_value)

    def as_pairs(self) -> list[tuple[str, str]]:
        """(axis, test) pairs for :meth:`StorageManager.find_by_path`."""
        return [(s.axis, s.test) for s in self.steps]

    def __str__(self) -> str:
        return "".join(str(s) for s in self.steps) or "."

    def __len__(self) -> int:
        return len(self.steps)


@lru_cache(maxsize=4096)
def _parse_path(text: str) -> Path:
    return Path._parse(text)
