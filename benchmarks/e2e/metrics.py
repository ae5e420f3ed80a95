"""The metric catalogue and how each number is derived.

End-to-end metrics come from an **untraced** run; per-layer metrics from
a second, **traced** run of the same op sequence (plus the few
user-visible numbers only one workload has, measured on that run's
untraced reference leg).  Every workload reports every name; a layer a
workload never enters reads 0.
"""

from __future__ import annotations

from harness import (Segment, counter_total, exact, histogram_total,
                     latency_metrics, percentile, ratio, series_of,
                     summary)

#: name -> unit; what a user of the system sees (bounds: BENCHMARK.json)
END_TO_END = {
    "setup_s": "s",
    "updates_per_s": "1/s",
    "cpu_ms_per_update": "ms",
    "batch_p50_ms": "ms",
    "batch_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

#: per-layer self time per timed batch: metric -> tracer layer
LAYER_MS = {
    "api.resolve_ms": "api.resolve",
    "api.facade_ms": "api.facade",
    "xquery.parse_ms": "xquery.parse",
    "registry.self_ms": "registry.self",
    "router.route_ms": "router.route",
    "storage.mutate_ms": "storage.mutate",
    "storage.find_ms": "storage.find",
    "engine.propagate_ms": "engine.propagate",
    "engine.recompute_ms": "engine.recompute",
    "opstate.reconcile_ms": "opstate.reconcile",
    "plan.vm_ms": "plan.vm",
    "apply.fuse_ms": "apply.fuse",
    "xmlmodel.serialize_ms": "xmlmodel.serialize",
    "xmlmodel.parse_fragment_ms": "xmlmodel.parse_fragment",
    "wal.append_ms": "wal.append",
    "server.decode_ms": "server.decode",
    "server.queue_wait_ms": "server.queue_wait",
    "server.encode_ms": "server.encode",
}

#: name -> unit.  ``count`` metrics are exact integers (they repeat run
#: to run under ``--batches``); ``1/batch`` and ``B/update`` are exact
#: ratios of such counts.
PER_LAYER = {
    **{name: "ms" for name in LAYER_MS},
    "registry.recompute_share": "share",
    "router.irrelevant_share": "share",
    "opstate.hit_share": "share",
    "plan.instructions_per_batch": "1/batch",
    "plan.fallback_runs": "count",
    "apply.mutations_per_batch": "1/batch",
    "wal.bytes_per_update": "B/update",
    "wal.fsyncs": "count",
    "checkpoint.stall_ms": "ms",
    "checkpoint.wall_share": "share",
    "checkpoint.count": "count",
    "recovery.restore_ms": "ms",
    "recovery.replayed_records": "count",
    "server.push_encodes_per_batch": "1/batch",
    "server.bytes_out_per_batch": "B/batch",
    "server.push_lag_ms": "ms",
    "server.coalesced": "count",
    "loadgen.lag_p95_ms": "ms",
    "loadgen.decode_ms": "ms",
    "trace.unattributed_share": "share",
    "trace.overhead_share": "share",
    # the machine, not the program: median harness.calibration_sample, raw
    "calibration.unit_ms": "ms",
    # user-visible, but only one workload has them, so they cannot carry
    # a bound (BENCHMARK.json wants every end-to-end metric from every
    # workload); measured untraced
    "read_p50_ms": "ms",
    "recover_s": "s",
    "push_p50_ms": "ms",
    "push_p95_ms": "ms",
    "open_loop.batch_p50_ms": "ms",
    "open_loop.batch_p95_ms": "ms",
}

#: root spans the benchmark itself opens around each operation
ROOT_LAYERS = ("bench.batch", "bench.read", "bench.query")


def zeros() -> dict:
    return {name: exact(0, unit) if unit == "count" else exact(0.0, unit)
            for name, unit in PER_LAYER.items()}


def layer_ms(totals: list[dict], batches: list[int]) -> dict:
    """Self time per batch of every traced layer: per segment, the
    layer's self seconds over the segment's batches; median across
    segments.  ``samples`` is the number of spans."""
    out = {}
    for name, layer in LAYER_MS.items():
        calls = sum(total.get(layer, (0, 0, 0))[1] for total in totals)
        out[name] = summary(
            [total.get(layer, (0.0, 0, 0))[0] * 1e3 / count
             for total, count in zip(totals, batches)], "ms", calls)
    return out


def counter_metrics(before: dict, after: dict, batches: int,
                    statements: int) -> dict:
    """Ratios and counts out of two ``db.metrics()`` snapshots."""
    def delta(family: str) -> float:
        return counter_total(after, family) - counter_total(before, family)

    hits, misses = delta("opstate_hits"), delta("opstate_misses")
    return {
        "registry.recompute_share": exact(
            ratio(delta("view_recomputes"), delta("view_flushes")), "share"),
        "router.irrelevant_share": exact(
            ratio(delta("router_irrelevant_everywhere"),
                  delta("router_classifications")), "share"),
        "opstate.hit_share": exact(ratio(hits, hits + misses), "share"),
        "plan.instructions_per_batch": exact(
            ratio(delta("vm_instructions_executed"), batches), "1/batch"),
        "plan.fallback_runs": exact(int(delta("vm_fallback_runs"))),
        "apply.mutations_per_batch": exact(
            ratio(delta("view_delta_tuples"), batches), "1/batch"),
        "wal.bytes_per_update": exact(
            ratio(delta("wal_bytes"), statements), "B/update"),
        "wal.fsyncs": exact(int(delta("wal_fsyncs_total"))),
        "checkpoint.count": exact(int(delta("checkpoints_total"))),
    }


def checkpoint_metrics(totals: list[dict], segments: list[Segment]) -> dict:
    stalls = [total["checkpoint"][0] * 1e3 / total["checkpoint"][1]
              for total in totals if total.get("checkpoint", (0, 0))[1]]
    return {
        "checkpoint.stall_ms": summary(stalls, "ms"),
        "checkpoint.wall_share": summary(
            [total.get("checkpoint", (0.0,))[0] / segment.wall
             for total, segment in zip(totals, segments)], "share"),
    }


def trace_validity(totals: list[dict], roots: tuple, root_seconds: float,
                   traced_rate: float, untraced_rate: float) -> dict:
    """How much of the traced wall no boundary covers, and what tracing
    cost (traced vs untraced ``updates_per_s``)."""
    uncovered = sum(total.get(layer, (0.0,))[0]
                    for total in totals for layer in roots)
    return {
        "trace.unattributed_share": exact(ratio(uncovered, root_seconds),
                                          "share"),
        "trace.overhead_share": exact(
            1.0 - ratio(traced_rate, untraced_rate), "share"),
    }


def server_metrics(totals: list[dict], batches: list[int], before: dict,
                   after: dict, lag: list, decode_ms_per_batch: float) -> dict:
    """Server-side counts over the open loop, out of the span sizes and the
    ``metrics`` wire op."""
    all_batches = sum(batches)
    pushes = (histogram_total(after, "server_push_lag_seconds")[0]
              - histogram_total(before, "server_push_lag_seconds")[0])
    lag_seconds = (histogram_total(after, "server_push_lag_seconds")[1]
                   - histogram_total(before, "server_push_lag_seconds")[1])
    return {
        "server.push_encodes_per_batch": exact(
            ratio(pushes, all_batches), "1/batch"),
        "server.bytes_out_per_batch": exact(
            ratio(sum(total.get("server.encode", (0, 0, 0))[2]
                      for total in totals), all_batches), "B/batch"),
        "server.push_lag_ms": exact(ratio(lag_seconds * 1e3, pushes), "ms"),
        "server.coalesced": exact(int(
            counter_total(after, "server_pushes_coalesced")
            - counter_total(before, "server_pushes_coalesced"))),
        "loadgen.lag_p95_ms": exact(percentile(lag, 0.95) * 1e3, "ms"),
        "loadgen.decode_ms": exact(decode_ms_per_batch, "ms"),
    }


def read_metric(segments: list[Segment]) -> dict:
    return {"read_p50_ms": latency_metrics(
        series_of(segments, "read"), "read")["read_p50_ms"]}


def open_loop_metrics(segments: list[Segment]) -> dict:
    """The open loop of ``served_push``, from each batch's due time: to the
    reply frame, and to the last of its 16 pushed delta frames."""
    return {**latency_metrics(series_of(segments), "open_loop.batch"),
            **latency_metrics(series_of(segments, "push"), "push")}
