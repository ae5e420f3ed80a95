"""Tests for first-class Incremental Maintenance Plans and counting rules."""

import pytest

from repro.counting import (MAINTENANCE_TIME, QUERY_TIME, rules)
from repro.propagate import IncrementalMaintenancePlan, derive_imp
from repro.translate import translate_query
from repro.updates import UpdateRequest
from repro.xat import DeltaSpec, INSERT, DELETE
from repro.xat.base import DeltaRoot
from repro.workloads import xmark

from .helpers import persons_of, site_view


class TestDeriveImp:
    def _setup(self):
        storage, view = site_view(xmark.JOIN_QUERY, num_persons=10)
        return storage, view

    def test_imp_executes_to_delta_forest(self):
        storage, view = self._setup()
        anchor = persons_of(storage)[-1]
        view.apply_updates([])  # no-op, keeps extent
        # insert a person manually, then run the IMP by hand
        key = storage.insert_fragment(
            storage.parent_key(anchor),
            __import__("repro").parse_fragment(
                xmark.new_person_xml(7))[0], after=anchor)
        spec = DeltaSpec("site.xml", (DeltaRoot(key, INSERT),), INSERT)
        imp = derive_imp(view.plan, spec)
        forest = imp.execute(storage)
        assert isinstance(imp, IncrementalMaintenancePlan)
        assert forest, "insert joining an auction should produce deltas"

    def test_describe_marks_delta_operators(self):
        storage, view = self._setup()
        person = persons_of(storage)[0]
        spec = DeltaSpec("site.xml", (DeltaRoot(person, DELETE),), DELETE)
        text = derive_imp(view.plan, spec).describe()
        assert "IMP for batch" in text
        # both join sides read site.xml: the two-term expansion is shown
        assert "ΔA ⋈ B_new" in text
        assert "Δ " in text

    def test_single_side_expansion_label(self):
        plan = translate_query(
            '<r>{for $a in doc("x.xml")/x/a, $b in doc("y.xml")/y/b '
            'where $a/k = $b/k return $a}</r>')
        spec = DeltaSpec("x.xml", (DeltaRoot(
            __import__("repro").FlexKey("b.b"), INSERT),), INSERT)
        text = derive_imp(plan, spec).describe()
        assert "[ΔA ⋈ B]" in text

    def test_unrelated_document_rejected(self):
        storage, view = self._setup()
        spec = DeltaSpec("other.xml", (DeltaRoot(
            __import__("repro").FlexKey("b.b"), INSERT),), INSERT)
        with pytest.raises(ValueError):
            derive_imp(view.plan, spec)


class TestCountingRules:
    def test_rule_tables_nonempty(self):
        assert len(rules(QUERY_TIME)) >= 8
        assert len(rules(MAINTENANCE_TIME)) >= 5

    def test_unknown_phase(self):
        with pytest.raises(ValueError):
            rules("compile time")

    def test_distinct_rule_matches_implementation(self):
        """The stated Distinct rules (count 1 per supported value; a
        delta only when support crosses zero) are what the operator does
        — cross-checked against test_counting's behaviour."""
        for phase, phrase in ((QUERY_TIME, "count 1"),
                              (MAINTENANCE_TIME, "crosses zero")):
            text = next(r.rule for r in rules(phase)
                        if r.operator == "Distinct")
            assert phrase in text
