"""The observability layer: metrics registry, tracing spans, EXPLAIN,
and the differential guarantee that none of it changes maintenance.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import (Database, StorageManager, UpdateRequest,
                   ViewRegistry)
from repro.obs import (CollectingSink, Counter, Gauge, Histogram,
                       MetricsRegistry, Span, TraceSink, Tracer)
from repro.workloads import xmark

from .helpers import random_batch

SITE = """<site><people>
<person id="person0"><name>Ada</name>
 <address><city>Oslo</city></address></person>
<person id="person1"><name>Grace</name>
 <address><city>Paris</city></address></person>
<person id="person2"><name>Alan</name>
 <address><city>Oslo</city></address></person>
</people></site>"""


def _city_db() -> Database:
    db = Database()
    db.load("site.xml", SITE)
    db.create_view("by-city", xmark.CITY_HEADCOUNT_QUERY)
    return db


class TestMetricPrimitives:
    def test_counter_and_gauge(self):
        counter, gauge = Counter(), Gauge()
        counter.inc()
        counter.inc(4)
        gauge.set(7)
        gauge.dec(2)
        assert counter.export() == 5
        assert gauge.export() == 5

    def test_histogram_exact_aggregates(self):
        histogram = Histogram()
        for value in [2.0, 8.0, 4.0, 6.0]:
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == 20.0
        assert histogram.min == 2.0
        assert histogram.max == 8.0

    def test_histogram_quantiles_interpolate(self):
        histogram = Histogram()
        for value in range(101):          # 0..100, fits the reservoir
            histogram.observe(float(value))
        assert histogram.quantile(0.0) == 0.0
        assert histogram.quantile(1.0) == 100.0
        assert histogram.quantile(0.5) == pytest.approx(50.0)
        assert histogram.quantile(0.9) == pytest.approx(90.0)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_histogram_reservoir_is_deterministic(self):
        def fill():
            histogram = Histogram(capacity=32)
            for value in range(1000):
                histogram.observe(float(value))
            return histogram

        first, second = fill(), fill()
        assert first.samples == second.samples          # same LCG stream
        assert first.count == 1000
        assert len(first.samples) == 32
        # the reservoir keeps a spread, not just the first 32
        assert max(first.samples) > 100

    def test_registry_get_or_create_by_labels(self):
        metrics = MetricsRegistry()
        a = metrics.counter("hits", view="x")
        b = metrics.counter("hits", view="x")
        c = metrics.counter("hits", view="y")
        assert a is b and a is not c
        with pytest.raises(ValueError):
            metrics.gauge("hits")                       # kind mismatch

    def test_remove_drops_every_series_carrying_the_labels(self):
        metrics = MetricsRegistry()
        metrics.counter("hits", view="x").inc()
        metrics.counter("hits", view="y").inc()
        metrics.histogram("flush", view="x", decision="p").observe(1.0)
        metrics.gauge("size").set(3)
        metrics.remove(view="x")
        snap = metrics.snapshot()
        assert snap["hits"]["values"] == {"view=y": 1}
        assert snap["flush"]["values"] == {}
        assert snap["size"]["values"] == {"": 3}

    def test_snapshot_runs_sync_hooks(self):
        metrics = MetricsRegistry()
        external = {"count": 3}
        metrics.add_sync_hook(
            lambda m: m.counter("external").set(external["count"]))
        snap = metrics.snapshot()
        assert snap["external"]["values"][""] == 3
        external["count"] = 9
        assert metrics.snapshot()["external"]["values"][""] == 9


class TestEngineMetrics:
    def test_database_metrics_snapshot_shape(self):
        with _city_db() as db:
            db.update("site.xml").at("/site/people/person[1]/name") \
                .replace_with("Renamed")
            snapshot = db.metrics()
            json.dumps(snapshot)                # JSON-serializable
            assert snapshot["router_classifications"]["values"][""] == 1
            assert snapshot["db_statements"]["values"][""] == 1
            assert snapshot["db_apply_seconds"]["kind"] == "histogram"
            view_flushes = snapshot["view_flushes"]["values"]
            assert view_flushes["view=by-city"] >= 1
            assert snapshot["view_extent_nodes"]["values"][
                "view=by-city"] > 0
            phase = snapshot["view_phase_seconds"]["values"]
            assert set(phase) == {"phase=propagate,view=by-city",
                                  "phase=apply,view=by-city"}
            assert snapshot["storage_mutations"]["values"][""] > 0
            # index and operator-state mirrors are present
            assert "index_range_scans" in snapshot
            assert "opstate_hits" in snapshot

    def test_a_dropped_view_takes_its_series_along(self):
        """Flush histograms exist from registration and leave with the
        view: a re-created view of the same name starts from zero."""
        with _city_db() as db:
            def series(snapshot):
                return {(name, label) for name, family in snapshot.items()
                        for label in family["values"]
                        if "view=by-city" in label}

            def counts(snapshot):
                return (snapshot["flush_seconds"]["values"][
                            "decision=propagate,view=by-city"]["count"],
                        snapshot["flush_trees"]["values"][
                            "view=by-city"]["count"],
                        snapshot["view_flushes"]["values"]["view=by-city"])

            registered = db.metrics()
            assert counts(registered) == (0, 0, 0)
            db.view("by-city").subscribe(lambda event: None)
            db.update("site.xml").at("/site/people/person[1]/address/city") \
                .replace_with("Rome")
            flushed = db.metrics()
            assert counts(flushed) == (1, 1, 1)
            assert ("subscriber_callbacks", "view=by-city") \
                in series(flushed)
            db.drop_view("by-city")
            assert series(db.metrics()) == set()
            db.create_view("by-city", xmark.CITY_HEADCOUNT_QUERY)
            recreated = db.metrics()
            assert counts(recreated) == (0, 0, 0)
            assert series(recreated) == series(registered)

    def test_subscriber_fanout_metrics(self):
        with _city_db() as db:
            events = []
            db.view("by-city").subscribe(events.append)
            db.update("site.xml").at("/site/people/person[1]/name") \
                .replace_with("Renamed")
            snapshot = db.metrics()
            assert events
            assert snapshot["subscriber_callbacks"]["values"][
                "view=by-city"] == len(events)
            assert snapshot["subscriber_callback_seconds"]["values"][
                "view=by-city"]["count"] == len(events)

    def test_render_prometheus_text_format(self):
        with _city_db() as db:
            db.update("site.xml").at("/site/people/person[1]/name") \
                .replace_with("Renamed")
            text = db.render_prometheus()
        assert "# TYPE repro_router_classifications counter" in text
        assert "repro_router_classifications 1" in text
        assert 'repro_view_flushes{view="by-city"}' in text
        # histograms render as summaries with quantile labels
        assert 'repro_db_apply_seconds{quantile="0.5"}' in text
        assert "repro_db_apply_seconds_count 1" in text
        for line in text.splitlines():
            assert line.startswith("#") or " " in line


class TestCheckpointMetrics:
    FAMILIES = ("checkpoint_background_total", "checkpoint_failures_total",
                "checkpoint_child_cpu_seconds_total",
                "checkpoint_child_max_rss_bytes", "checkpoint_inflight")

    def test_background_checkpoint_metrics_and_spans(self, tmp_path,
                                                     may_fork):
        db = Database(durable_path=tmp_path, checkpoint_every=1000)
        db.load("site.xml", SITE)
        db.create_view("by-city", xmark.CITY_HEADCOUNT_QUERY)
        sink = CollectingSink()
        db.add_trace_sink(sink)
        manager = db.durability

        def values(snapshot, name):
            return snapshot[name]["values"]

        snapshot = db.metrics()
        assert all(name in snapshot for name in self.FAMILIES)
        assert values(snapshot, "checkpoint_failures_total") == {
            "reason=exit": 0, "reason=signal": 0, "reason=spool": 0}
        lsn = manager.checkpoint(db.registry, background=True)
        snapshot = db.metrics()
        assert values(snapshot, "checkpoint_inflight") == {"": 1}
        assert values(snapshot, "checkpoint_background_total") == {"": 1}
        assert values(snapshot, "checkpoint_child_cpu_seconds_total") == {
            "": 0}
        assert manager.settle(db.registry)
        snapshot = db.metrics()
        assert values(snapshot, "checkpoint_inflight") == {"": 0}
        assert values(snapshot, "checkpoint_child_cpu_seconds_total")[""] > 0
        assert values(snapshot, "checkpoint_child_max_rss_bytes")[""] > 0
        # the fork and the completion are each one foreground stall
        assert values(snapshot, "checkpoint_stall_seconds")[""]["count"] == 2
        forked, completed = sink.by_name("checkpoint")
        assert forked.attrs["background"] is True
        assert forked.attrs["lsn"] == completed.attrs["lsn"] == lsn
        assert forked.attrs["pid"] == completed.attrs["pid"] > 0
        assert completed.attrs["child_seconds"] > 0
        assert completed.attrs["bytes"] == values(
            snapshot, "checkpoint_bytes")[""] > 0
        text = db.render_prometheus()
        assert 'repro_checkpoint_failures_total{reason="spool"} 0' in text
        assert "repro_checkpoint_inflight 0" in text
        db.close()


class TestTracing:
    def test_span_nesting_under_multiview_batch(self):
        storage = StorageManager()
        xmark.register_site(storage, 12, seed=7)
        with ViewRegistry(storage) as registry:
            registry.register("seniors", xmark.SELECTION_QUERY)
            registry.register("sales", xmark.JOIN_QUERY)
            sink = CollectingSink()
            registry.add_trace_sink(sink)
            persons = storage.find_by_path(
                "site.xml", [("child", "site"), ("child", "people"),
                             ("child", "person")])
            registry.apply_updates([
                UpdateRequest.insert(
                    "site.xml", persons[-1],
                    xmark.new_person_xml(900, age=70), "after"),
                UpdateRequest.delete("site.xml", persons[0]),
            ])

            roots = sink.by_name("registry.apply_updates")
            assert len(roots) == 1
            root = roots[0]
            assert root.attrs["updates"] == 2
            assert root.parent_id is None

            flushes = sink.by_name("view.flush")
            assert {s.attrs["view"] for s in flushes} == {"seniors",
                                                          "sales"}
            for flush in flushes:
                assert flush.parent_id == root.span_id
                assert flush.depth == root.depth + 1
                assert flush.attrs["decision"] in ("propagate",
                                                   "recompute")
                assert flush.attrs["observed_seconds"] <= root.duration
                # the decision's two sides, in rows: pending trees x
                # instructions against the last materialization's reads
                assert flush.attrs["work_rows"] > 0
                assert flush.attrs["bound_rows"] > 0

            # every Δ pass runs in the dispatch, under the batch span;
            # a flush fuses what the passes queued
            phases = sink.by_name("phase.propagate")
            assert {p.attrs["view"] for p in phases} == {"seniors", "sales"}
            assert all(p.parent_id == root.span_id for p in phases)
            applies = sink.by_name("phase.apply")
            flush_ids = {s.span_id for s in flushes}
            assert applies and all(a.parent_id in flush_ids
                                   for a in applies)
            # children complete (and are delivered) before their parents
            order = [s.span_id for s in sink.spans]
            assert order.index(root.span_id) == len(order) - 1

    def test_tracer_inactive_without_sink(self):
        tracer = Tracer()
        assert not tracer.active
        span = tracer.span("noop")
        with span as inner:
            inner.set(ignored=True)       # no-op, no state accumulated
        sink = CollectingSink()
        tracer.add_sink(sink)
        assert tracer.active
        with tracer.span("real", tag="x"):
            pass
        assert [s.name for s in sink.spans] == ["real"]
        assert isinstance(sink, TraceSink)  # protocol conformance
        assert isinstance(sink.spans[0], Span)


class TestExplain:
    def test_explain_join_aggregate_view(self):
        storage = StorageManager()
        xmark.register_site(storage, 10, seed=3)
        with Database(storage=storage) as db:
            db.create_view("headcount", xmark.CITY_HEADCOUNT_QUERY)
            db.update("site.xml") \
                .at("/site/people/person[1]/address/city") \
                .replace_with("Montevideo")
            text = db.explain("headcount")
            view = db.registry.view("headcount")
            bound = (f"work bound: rows_read={view.rows_read} "
                     f"instructions={view.instructions}")

        lines = text.splitlines()
        assert lines[0].startswith("view 'headcount'")
        assert "policy=immediate" in lines[0]
        assert "extent_nodes=" in lines[0]
        assert any(line.startswith("query:") for line in lines)
        assert any(line.startswith("maintenance: flushes=1")
                   for line in lines)
        assert any(line.startswith("timings: propagate=")
                   for line in lines)
        assert "validate=" not in text
        assert bound in lines and view.rows_read > 0
        # the plan tree is annotated with live full/delta counters; the
        # compiled instruction listings follow the operator tree
        tail = lines[lines.index("plan:") + 1:]
        first_listing = next(i for i, line in enumerate(tail)
                             if line.startswith("compiled plan ["))
        plan_lines, listing_lines = tail[:first_listing], \
            tail[first_listing:]
        assert len(plan_lines) > 3
        assert all("full: runs=" in line and "Δ: runs=" in line
                   for line in plan_lines)
        assert any("├─" in line or "└─" in line for line in plan_lines)
        # materialization ran every operator at least once in full mode
        assert "runs=0" not in plan_lines[0].split("Δ:")[0]
        # the join+aggregate plan keeps persistent operator state
        assert any("state: served=" in line for line in plan_lines)
        # one listing per compiled mode, instructions carrying counters
        headers = [line for line in listing_lines
                   if line.startswith("compiled plan [")]
        assert [h.split("]")[0] for h in headers] == \
            ["compiled plan [full", "compiled plan [delta"]
        assert any(" <- " in line and "runs=" in line
                   for line in listing_lines)

    def test_explain_tagger_side_served_via_input(self):
        """``bycity``'s ``<entry>`` Tagger side keeps no table of its own:
        EXPLAIN says it reads through its input, and the
        NavigateCollection beneath it carries the served entry."""
        storage = StorageManager()
        xmark.register_site(storage, 10, seed=3)
        with Database(storage=storage) as db:
            db.create_view("bycity", xmark.PERSONS_BY_CITY_QUERY)
            db.create_view("headcount", xmark.CITY_HEADCOUNT_QUERY)
            db.update("site.xml") \
                .at("/site/people/person[1]/address/city") \
                .replace_with("Montevideo")
            lines = db.explain("bycity").splitlines()
        [entry_line] = [line for line in lines
                        if "Tagger[<entry>" in line]
        assert entry_line.endswith(" · state: via input")
        below = lines[lines.index(entry_line) + 1]
        assert "NavigateCollection[" in below and "state: served=" in below

    def test_explain_unknown_view_raises(self):
        with Database() as db:
            with pytest.raises(KeyError):
                db.explain("nope")


class TestReadWork:
    """A read writes only the elements Deep Union changed since the view
    was last written; every other element reuses its cached XML.  The
    per-view ``view_serialized_elements_total`` counter (EXPLAIN's
    ``serialized_elements=``) counts the rebuilt ones."""

    AGES = ('<result>{for $a in doc("site.xml")/site/people/person/profile'
            '/age return <a>{$a}</a>}</result>')

    def test_a_read_rebuilds_the_changed_path_only(self):
        storage = StorageManager()
        xmark.register_site(storage, 1000, seed=1)
        with Database(storage=storage) as db:
            for name, query in (("ages", self.AGES),
                                ("bycity", xmark.PERSONS_BY_CITY_QUERY)):
                db.create_view(name, query)

            def rebuilt_by_read(name):
                before = db.metrics()["view_serialized_elements_total"][
                    "values"].get(f"view={name}", 0)
                assert db.read(name) == db.registry.recompute_xml(name)
                return db.metrics()["view_serialized_elements_total"][
                    "values"][f"view={name}"] - before

            # first reads write everything: <result>, 1000 <a>, 1000 <age>
            assert rebuilt_by_read("ages") == 2001
            assert rebuilt_by_read("bycity") == 2021
            assert rebuilt_by_read("ages") == 0
            db.update("site.xml").at(
                "/site/people/person[5]/profile/age").replace_with("99")
            db.update("site.xml").at(
                "/site/people/person[7]/address/city").replace_with(
                    "Montevideo")
            # <result>, its <a>, its <age>
            assert rebuilt_by_read("ages") == 3
            assert rebuilt_by_read("bycity") <= 7
            assert "serialized_elements=2004" in \
                db.explain("ages").splitlines()[0]
            assert db.registry.view("bycity").stats.recomputes == 0


class TestQueryCache:
    """``db.query``'s kept entries: registry-wide counters with no
    per-query label, and a ``view.flush`` span labelled ``query``."""

    OSLO = ('<r>{for $p in doc("site.xml")/site/people/person '
            'where $p/address/city = "Oslo" return $p/name}</r>')

    def test_counters_and_gauge_carry_no_query_label(self):
        with _city_db() as db:
            db.query(self.OSLO)
            db.update("site.xml").at("/site/people/person[1]/name") \
                .replace_with("Renamed")
            assert "Renamed" in db.query(self.OSLO)
            db.query(xmark.CITY_HEADCOUNT_QUERY)    # grouped: fresh
            snapshot = db.metrics()
            assert snapshot["query_cache_hits"]["values"] == {"": 1}
            assert snapshot["query_cache_misses"]["values"] == {"": 2}
            assert snapshot["query_cache_evictions"]["values"] == {
                "reason=work": 0, "reason=capacity": 0}
            assert snapshot["query_cache_entries"]["kind"] == "gauge"
            assert snapshot["query_cache_entries"]["values"] == {"": 2}
            labels = {label for family in snapshot.values()
                      for key in family["values"]
                      for label in key.split(",") if key}
            assert {label for label in labels
                    if label.startswith("view=")} == {"view=by-city"}
            text = db.render_prometheus()
            assert "repro_query_cache_hits 1" in text
            assert 'repro_query_cache_evictions{reason="work"} 0' in text
            assert "Oslo" not in text

    def test_an_entry_flush_emits_a_view_flush_span(self):
        with _city_db() as db:
            db.query(self.OSLO)
            sink = CollectingSink()
            db.add_trace_sink(sink)
            db.update("site.xml").at("/site/people/person[3]/name") \
                .replace_with("Renamed")
            assert not [s for s in sink.by_name("view.flush")
                        if s.attrs["view"] == "query"]   # queued
            # the entry's Δ pass ran in the update's dispatch
            [propagated] = [s for s in sink.by_name("phase.propagate")
                            if s.attrs["view"] == "query"]
            assert propagated.attrs["trees"] == 1
            db.query(self.OSLO)
            [flush] = [s for s in sink.by_name("view.flush")
                       if s.attrs["view"] == "query"]
            assert flush.attrs["trees"] == 1
            assert flush.attrs["decision"] == "propagate"
            assert sink.by_name("phase.apply")[-1].parent_id == \
                flush.span_id


class TestSinkDifferential:
    def test_an_attached_sink_leaves_extents_identical(self):
        """The paranoia check: a run with a trace sink attached and one
        without must produce byte-identical view extents over a mixed
        random stream (observability reads the engine, never steers it)
        — and the sink must really have been listening."""

        def run(sink) -> list[str]:
            storage = StorageManager()
            xmark.register_site(storage, 15, seed=6)
            with ViewRegistry(storage) as registry:
                if sink is not None:
                    registry.add_trace_sink(sink)
                registry.register("by-city", xmark.PERSONS_BY_CITY_QUERY)
                registry.register("sales", xmark.JOIN_QUERY, policy=3)
                rng = random.Random(11)
                extents = []
                for step in range(12):
                    batch = random_batch(
                        rng, storage, step,
                        ("insert_person", "delete_person",
                         "modify_city", "modify_name"))
                    registry.apply_updates(batch)
                    extents.append(registry.query("by-city"))
                    extents.append(registry.query("sales"))
                return extents

        sink = CollectingSink()
        assert run(sink) == run(None)
        assert {span.attrs["view"] for span in sink.by_name("view.flush")} \
            == {"by-city", "sales"}
