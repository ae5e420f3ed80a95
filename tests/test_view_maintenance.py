"""Integration tests: V-P-A maintenance across view classes (Chapters 7-9).

Every test uses the paper's correctness criterion: after maintenance the
extent must serialize identically (content and order) to recomputation.
"""

import pytest

from repro import Database, StorageManager, UpdateRequest, ViewRegistry
from repro.multiview import RegisteredView
from repro.workloads import xmark
from repro.xat.base import DeltaSpec

from .helpers import (assert_consistent, closed_auctions_of, persons_of,
                      site_view)

ALL_QUERIES = [
    ("doc-order", xmark.ORDER_QUERY_1),
    ("order-by", xmark.ORDER_QUERY_2),
    ("join", xmark.ORDER_QUERY_3),
    ("construction", xmark.ORDER_QUERY_4),
    ("group-by-city", xmark.PERSONS_BY_CITY_QUERY),
    ("selection", xmark.SELECTION_QUERY),
    ("join-names", xmark.JOIN_QUERY),
]


@pytest.mark.parametrize("label,query", ALL_QUERIES)
class TestInsertAcrossViewClasses:
    def test_insert_person(self, label, query):
        storage, view = site_view(query, num_persons=20)
        persons = persons_of(storage)
        view.apply_updates([UpdateRequest.insert(
            "site.xml", persons[-1], xmark.new_person_xml(1, city="Cairo"),
            "after")])
        assert_consistent(view)

    def test_insert_auction(self, label, query):
        storage, view = site_view(query, num_persons=20)
        auctions = closed_auctions_of(storage)
        view.apply_updates([UpdateRequest.insert(
            "site.xml", auctions[0],
            xmark.new_closed_auction_xml(2, "person3"), "before")])
        assert_consistent(view)


@pytest.mark.parametrize("label,query", ALL_QUERIES)
class TestDeleteAcrossViewClasses:
    def test_delete_person(self, label, query):
        storage, view = site_view(query, num_persons=20)
        persons = persons_of(storage)
        view.apply_updates([UpdateRequest.delete("site.xml", persons[3])])
        assert_consistent(view)

    def test_delete_several_persons_one_batch(self, label, query):
        storage, view = site_view(query, num_persons=20)
        persons = persons_of(storage)
        view.apply_updates([UpdateRequest.delete("site.xml", p)
                            for p in persons[2:7]])
        assert_consistent(view)

    def test_delete_auction(self, label, query):
        storage, view = site_view(query, num_persons=20)
        auctions = closed_auctions_of(storage)
        view.apply_updates([UpdateRequest.delete("site.xml", auctions[1])])
        assert_consistent(view)


@pytest.mark.parametrize("label,query", ALL_QUERIES)
class TestMixedSequences:
    def test_heterogeneous_sequence(self, label, query):
        storage, view = site_view(query, num_persons=20)
        persons = persons_of(storage)
        auctions = closed_auctions_of(storage)
        updates = [
            UpdateRequest.insert("site.xml", persons[-1],
                                 xmark.new_person_xml(9, city="Oslo"),
                                 "after"),
            UpdateRequest.delete("site.xml", persons[0]),
            UpdateRequest.insert("site.xml", auctions[-1],
                                 xmark.new_closed_auction_xml(9, "person7"),
                                 "after"),
            UpdateRequest.delete("site.xml", auctions[2]),
        ]
        view.apply_updates(updates)
        assert_consistent(view)


class TestGroupMaintenance:
    """Grouped view specifics (Chapter 7.3): group shells appear/vanish."""

    def test_new_city_creates_group(self):
        storage, view = site_view(xmark.PERSONS_BY_CITY_QUERY,
                                  num_persons=12, seed=5)
        persons = persons_of(storage)
        assert "Zanzibar" not in view.to_xml()
        view.apply_updates([UpdateRequest.insert(
            "site.xml", persons[-1],
            xmark.new_person_xml(5, city="Zanzibar"), "after")])
        assert 'name="Zanzibar"' in view.to_xml()
        assert_consistent(view)

    def test_last_member_delete_removes_group(self):
        storage, view = site_view(xmark.PERSONS_BY_CITY_QUERY,
                                  num_persons=12, seed=5)
        persons = persons_of(storage)
        view.apply_updates([UpdateRequest.insert(
            "site.xml", persons[-1],
            xmark.new_person_xml(6, city="Zanzibar"), "after")])
        new_person = persons_of(storage)[-1]
        view.apply_updates([UpdateRequest.delete("site.xml", new_person)])
        assert 'name="Zanzibar"' not in view.to_xml()
        assert view.registered.report.fusion.removed_roots >= 1
        assert_consistent(view)

    def test_group_grows_in_place(self):
        storage, view = site_view(xmark.PERSONS_BY_CITY_QUERY,
                                  num_persons=12, seed=5)
        persons = persons_of(storage)
        before = view.to_xml().count("<entry>")
        view.apply_updates([UpdateRequest.insert(
            "site.xml", persons[-1],
            xmark.new_person_xml(7, city="Worcester"), "after")])
        assert view.to_xml().count("<entry>") == before + 1
        assert_consistent(view)


class TestLojDanglingFlips:
    """Chapter 7.4: dangling status flips under right-side updates."""

    QUERY = """<result>{
    for $y in distinct-values(doc("site.xml")/site/people/person/address/city)
    order by $y
    return <g C="{$y}">{
      for $c in doc("site.xml")/site/closed_auctions/closed_auction,
          $p in doc("site.xml")/site/people/person
      where $p/@id = $c/seller/@person and $y = $p/address/city
      return $c/date
    }</g>
    }</result>"""

    def test_insert_fills_dangling_group(self):
        storage, view = site_view(self.QUERY, num_persons=6, seed=9)
        # add a person in a fresh city, then an auction sold by them:
        persons = persons_of(storage)
        view.apply_updates([UpdateRequest.insert(
            "site.xml", persons[-1],
            xmark.new_person_xml(11, city="Atlantis"), "after")])
        assert_consistent(view)
        auctions = closed_auctions_of(storage)
        view.apply_updates([UpdateRequest.insert(
            "site.xml", auctions[-1],
            xmark.new_closed_auction_xml(11, "newperson11"), "after")])
        assert_consistent(view)

    def test_delete_restores_dangling_group(self):
        storage, view = site_view(self.QUERY, num_persons=6, seed=9)
        auctions = closed_auctions_of(storage)
        # delete every auction: all groups must become empty shells
        view.apply_updates([UpdateRequest.delete("site.xml", a)
                            for a in auctions])
        assert_consistent(view)
        assert "<date>" not in view.to_xml()
        assert "<g " in view.to_xml()  # shells survive


class TestModifySemantics:
    def test_modify_exposed_value(self):
        storage, view = site_view(xmark.JOIN_QUERY, num_persons=10)
        persons = persons_of(storage)
        name = storage.children(persons[2], "name")[0]
        report = view.apply_updates(
            [UpdateRequest.modify("site.xml", name, "Renamed Person")])
        assert_consistent(view)
        if "Renamed Person" in view.to_xml():
            assert report.routed == 1

    def test_modify_join_key_first_class(self):
        """A join-key modify propagates as one retract/assert pair — the
        group moves, nothing is decomposed into delete+reinsert."""
        storage, view = site_view(xmark.PERSONS_BY_CITY_QUERY,
                                  num_persons=10)
        persons = persons_of(storage)
        address = storage.children(persons[0], "address")[0]
        city = storage.children(address, "city")[0]
        report = view.apply_updates(
            [UpdateRequest.modify("site.xml", city, "Montevideo")])
        assert report.routed == 1
        assert view.registered.report.batches == 1
        assert 'name="Montevideo"' in view.to_xml()
        assert_consistent(view)

    def test_legacy_decomposition_flag_removed(self):
        """The Section 5.2.2 delete+reinsert escape hatch is gone; the
        old keyword fails loudly instead of silently changing paths."""
        storage = StorageManager()
        xmark.register_site(storage, 10, seed=42)
        with ViewRegistry(storage) as registry:
            with pytest.raises(TypeError, match="modify_decomposition"):
                registry.register("v", xmark.PERSONS_BY_CITY_QUERY,
                                  modify_decomposition=True)

    def test_modify_deep_inside_exposed_fragment(self):
        storage, view = site_view(xmark.ORDER_QUERY_1, num_persons=10)
        persons = persons_of(storage)
        profile = storage.children(persons[4], "profile")[0]
        education = storage.children(profile, "education")[0]
        view.apply_updates([UpdateRequest.modify(
            "site.xml", education, "Doctorate")])
        assert "Doctorate" in view.to_xml()
        assert_consistent(view)


class TestInsertIntoExposedFragment:
    def test_new_child_appears_in_extent(self):
        storage, view = site_view(xmark.ORDER_QUERY_1, num_persons=8)
        persons = persons_of(storage)
        profile = storage.children(persons[1], "profile")[0]
        view.apply_updates([UpdateRequest.insert(
            "site.xml", profile, '<interest category="categoryX"/>',
            position="into")])
        assert "categoryX" in view.to_xml()
        assert_consistent(view)

    def test_delete_child_of_exposed_fragment(self):
        storage, view = site_view(xmark.ORDER_QUERY_1, num_persons=8)
        persons = persons_of(storage)
        profile = storage.children(persons[0], "profile")[0]
        education = storage.children(profile, "education")[0]
        view.apply_updates([UpdateRequest.delete("site.xml", education)])
        assert_consistent(view)


class TestValidatePhaseEffects:
    def test_irrelevant_updates_skip_propagation(self):
        storage, view = site_view(xmark.ORDER_QUERY_2, num_persons=10)
        persons = persons_of(storage)
        # ORDER_QUERY_2 reads only cities; deleting a profile is irrelevant
        profile = storage.children(persons[0], "profile")[0]
        report = view.apply_updates(
            [UpdateRequest.delete("site.xml", profile)])
        assert report.irrelevant_everywhere == 1 and report.routed == 0
        assert view.registered.report.batches == 0
        assert_consistent(view)

    def test_update_before_materialize_rejected(self):
        storage = StorageManager()
        xmark.register_site(storage, 5)
        with ViewRegistry(storage) as registry:
            registry.register("v", xmark.ORDER_QUERY_2, materialize=False)
            with pytest.raises(RuntimeError, match="materialize view"):
                registry.apply_updates([UpdateRequest.delete(
                    "site.xml", persons_of(storage)[0])])


def test_theta_join_maintained_from_both_sides(monkeypatch):
    """A non-equi condition has no hash keys: each Δ term runs the
    nested-loop match against the other side's whole table."""
    # On documents this small one batch reaches the work bound, and a
    # recomputed flush exercises no delta rule.
    monkeypatch.setattr(RegisteredView, "over_work_bound",
                        lambda self: False)
    with Database() as db:
        db.load("a.xml", "<as><a><v>1</v></a><a><v>5</v></a></as>")
        db.load("b.xml", "<bs><b><w>3</w></b><b><w>9</w></b></bs>")
        view = db.create_view(
            "below", """<r>{for $a in doc("a.xml")/as/a,
                             $b in doc("b.xml")/bs/b
                         where $a/v < $b/w return <p>{$a/v}{$b/w}</p>}</r>""")
        reasons = []
        view.subscribe(lambda event: reasons.append(event.reason))
        a, b = db.update("a.xml"), db.update("b.xml")
        for step, update in enumerate((
                lambda: a.at("/as/a[1]").insert("<a><v>4</v></a>",
                                                position="after"),
                lambda: a.at("/as/a[1]/v").replace_with("7"),
                lambda: a.at("/as/a[2]").delete(),
                lambda: b.at("/bs/b[2]").insert("<b><w>6</w></b>",
                                                position="after"),
                lambda: b.at("/bs/b[1]/w").replace_with("8"),
                lambda: b.at("/bs/b[2]").delete())):
            before = view.read()
            update()
            assert view.read() == view.recompute() != before, step
            assert reasons == ["propagate"] * (step + 1)


def test_delta_unnest_below_an_inserted_root_classifies_nothing(monkeypatch):
    """Below a frontier key at or below an update root every target is
    itself at or below it: the grouped view's delta unnest of
    ``$p/address/city`` under an inserted person hands its targets that
    status and asks ``DeltaSpec.classify`` about none of them."""
    storage, view = site_view(xmark.PERSONS_BY_CITY_QUERY, num_persons=20)
    persons = persons_of(storage)
    asked = []
    classify = DeltaSpec.classify

    def recording(spec, key):
        asked.append(key.value)
        return classify(spec, key)

    monkeypatch.setattr(DeltaSpec, "classify", recording)
    view.apply_updates([UpdateRequest.insert(
        "site.xml", persons[-1], xmark.new_person_xml(1, city="Cairo"),
        "after")])
    person = persons_of(storage)[-1]
    assert person.value in asked                   # the crossing
    assert not [value for value in asked
                if value.startswith(person.value + ".")]
    assert view.registered.stats.recomputes == 0
    assert_consistent(view)
