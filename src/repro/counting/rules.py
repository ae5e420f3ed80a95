"""The counting rules of Chapter 6 (Tables 6.1 and 6.2) as checkable data.

One deliberate deviation: the paper's ``Distinct`` sums duplicate counts
into its output count; here that sum is only the value's *support*, the
output is set-semantic, and maintenance emits a delta only when support
crosses zero (the counting algorithm of Gupta, Mumick & Subrahmanian,
SIGMOD '93) — otherwise every duplicate gained or lost re-emits, through
the join above, the whole group.  Group By and the joins are unchanged.

Count annotations record the number of derivations of every node/tuple so
that delete updates remove exactly the derivations they cancel.  The rules
are *implemented inside the operators* (tuple counts ride along with
execution); this module states them declaratively so tests can assert the
implementation matches the specification, and users can inspect them.
"""

from __future__ import annotations

from dataclasses import dataclass

QUERY_TIME = "query-execution time"
MAINTENANCE_TIME = "view-maintenance time"


@dataclass(frozen=True)
class CountRule:
    operator: str
    rule: str


#: Table 6.1 — count computation during normal query execution.
QUERY_TIME_RULES: tuple[CountRule, ...] = (
    CountRule("Source", "the document root tuple has count 1"),
    CountRule("Navigate Unnest",
              "output tuple count = input tuple count (every source node "
              "carries one derivation)"),
    CountRule("Navigate Collection",
              "output tuple count = input tuple count"),
    CountRule("Select", "tuple counts pass through unchanged"),
    CountRule("Join / Cartesian Product",
              "output tuple count = left count x right count"),
    CountRule("Left Outer Join",
              "joined tuples multiply counts; a null-padded tuple carries "
              "its left tuple's count"),
    CountRule("Distinct",
              "a value's support = SUM of its duplicate input counts; "
              "every value with positive support is one output tuple of "
              "count 1"),
    CountRule("Group By",
              "group tuple count = SUM of member counts; combined items "
              "carry (item count x member tuple count)"),
    CountRule("Tagger",
              "the constructed node's count is its tuple's count (stored "
              "relative to the tuple; absolute at consumption)"),
    CountRule("Combine / XML Union",
              "items keep their absolute derivation counts"),
)

#: Table 6.2 — count computation during view maintenance.
MAINTENANCE_TIME_RULES: tuple[CountRule, ...] = (
    CountRule("Navigate Unnest",
              "crossing into an insert root multiplies +1, into a delete "
              "root -1, into a modify root marks the tuple refresh "
              "(count-neutral); the sign applies exactly once per chain"),
    CountRule("Navigate (final ancestor)",
              "stopping at a proper ancestor of a root marks the tuple "
              "refresh: the exposed fragment's content changed"),
    CountRule("Join family",
              "Δ(A x B) = ΔA x B_new + A_old x ΔB, counts multiplying as "
              "at query time; B_new/A_old are realized by full/anti "
              "evaluation depending on the update phase"),
    CountRule("Distinct",
              "the delta's signed counts net per value against the "
              "value's support in the input's persistent state; a "
              "(value, +1 / -1) tuple is emitted only when support "
              "crosses zero"),
    CountRule("Group By",
              "linear in Z-semantics: evaluated over the delta, counts "
              "summed (negative counts cancel positive ones)"),
    CountRule("Deep Union (apply)",
              "node counts add; a node reaching count <= 0 is disconnected "
              "at its root; refresh nodes merge count-neutrally"),
)


def rules(phase: str) -> tuple[CountRule, ...]:
    if phase == QUERY_TIME:
        return QUERY_TIME_RULES
    if phase == MAINTENANCE_TIME:
        return MAINTENANCE_TIME_RULES
    raise ValueError(f"unknown phase {phase!r}")
