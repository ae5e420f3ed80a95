"""Aggregate views and their incremental maintenance (Section 7.6)."""

import pytest

from repro import StorageManager, UpdateRequest, XmlDocument

from .helpers import MaintainedView

SALES = ("<sales>"
         "<sale region='east'><amount>10</amount></sale>"
         "<sale region='east'><amount>30</amount></sale>"
         "<sale region='west'><amount>5</amount></sale>"
         "</sales>")


def setup(agg):
    sm = StorageManager()
    sm.register(XmlDocument.from_string("sales.xml", SALES))
    query = f"""<totals>{{
    for $r in distinct-values(doc("sales.xml")/sales/sale/@region)
    order by $r
    return <region name="{{$r}}">{{
      {agg}(for $s in doc("sales.xml")/sales/sale
            where $r = $s/@region return $s/amount)
    }}</region>}}</totals>"""
    return sm, MaintainedView(sm, query)


def sale(amount, region="east"):
    return f"<sale region='{region}'><amount>{amount}</amount></sale>"


class TestAggregateMaterialization:
    def test_sum(self):
        _sm, view = setup("sum")
        xml = view.to_xml()
        assert '<region name="east">40</region>' in xml
        assert '<region name="west">5</region>' in xml

    def test_count(self):
        _sm, view = setup("count")
        xml = view.to_xml()
        assert '<region name="east">2</region>' in xml

    def test_avg(self):
        _sm, view = setup("avg")
        assert '<region name="east">20</region>' in view.to_xml()

    @pytest.mark.parametrize("agg,expected", [("min", "10"), ("max", "30")])
    def test_min_max(self, agg, expected):
        _sm, view = setup(agg)
        assert f'<region name="east">{expected}</region>' in view.to_xml()


class TestAggregateMaintenance:
    def _sales_root(self, sm):
        return sm.root_key("sales.xml")

    def test_sum_insert_incremental(self):
        sm, view = setup("sum")
        view.apply_updates([UpdateRequest.insert(
            "sales.xml", self._sales_root(sm), sale(60), "into")])
        assert '<region name="east">100</region>' in view.to_xml()
        assert view.registered.stats.recomputes == 0
        assert view.to_xml() == view.recompute_xml()

    def test_sum_delete_incremental(self):
        sm, view = setup("sum")
        first = sm.children(self._sales_root(sm), "sale")[0]
        view.apply_updates([UpdateRequest.delete("sales.xml", first)])
        assert '<region name="east">30</region>' in view.to_xml()
        assert view.registered.stats.recomputes == 0
        assert view.to_xml() == view.recompute_xml()

    def test_count_maintenance(self):
        sm, view = setup("count")
        view.apply_updates([UpdateRequest.insert(
            "sales.xml", self._sales_root(sm), sale(1, "west"), "into")])
        assert '<region name="west">2</region>' in view.to_xml()
        assert view.to_xml() == view.recompute_xml()

    def test_avg_maintenance(self):
        sm, view = setup("avg")
        view.apply_updates([UpdateRequest.insert(
            "sales.xml", self._sales_root(sm), sale(50), "into")])
        assert '<region name="east">30</region>' in view.to_xml()
        assert view.to_xml() == view.recompute_xml()

    def test_max_insert_of_new_extremum(self):
        sm, view = setup("max")
        view.apply_updates([UpdateRequest.insert(
            "sales.xml", self._sales_root(sm), sale(99), "into")])
        assert '<region name="east">99</region>' in view.to_xml()
        assert view.to_xml() == view.recompute_xml()

    def test_min_delete_of_extremum_is_incremental(self):
        """Per-member contribution state re-evaluates min over the alive
        members — no global recomputation (improves on the classic
        counting-algorithm fallback)."""
        sm, view = setup("min")
        first = sm.children(self._sales_root(sm), "sale")[0]  # amount 10
        view.apply_updates([UpdateRequest.delete("sales.xml", first)])
        assert view.registered.stats.recomputes == 0
        assert '<region name="east">30</region>' in view.to_xml()
        assert view.to_xml() == view.recompute_xml()

    def test_new_region_group_appears(self):
        sm, view = setup("sum")
        view.apply_updates([UpdateRequest.insert(
            "sales.xml", self._sales_root(sm), sale(7, "north"), "into")])
        assert '<region name="north">7</region>' in view.to_xml()
        assert view.to_xml() == view.recompute_xml()
