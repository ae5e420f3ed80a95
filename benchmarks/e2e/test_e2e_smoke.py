"""Smoke test of the end-to-end benchmark (tiny scale, whole file < 10 s).

``python -m pytest`` from the repo root collects it with the tier-1
suite; alone::

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_e2e_smoke.py
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics as M     # noqa: E402
import run              # noqa: E402
import tracer           # noqa: E402


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """All four workloads, untraced + traced, at 40 persons / 20 batches."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    code = run.main(["--smoke", "--out", str(out)])
    with open(out, "r", encoding="utf-8") as handle:
        return code, json.load(handle)


def test_every_workload_passes_the_oracle(smoke):
    code, data = smoke
    assert code == 0
    assert list(data["workloads"]) == run.WORKLOADS
    for name, result in data["workloads"].items():
        assert result["correct"] and result["failed"] == 0, \
            (name, result["failures"])
        assert result["attempted"] >= 20


def test_every_metric_is_reported_with_its_unit(smoke):
    _code, data = smoke
    for name, result in data["workloads"].items():
        for group, catalogue in (("end_to_end", M.END_TO_END),
                                 ("per_layer", M.PER_LAYER)):
            assert list(result[group]) == list(catalogue), (name, group)
            for metric, unit in catalogue.items():
                reported = result[group][metric]
                assert reported["unit"] == unit, (name, metric)
                assert reported["samples"] >= 0 and "segments" in reported
                if unit == "count":
                    assert isinstance(reported["value"], int), (name, metric)
        # (20 batches of server CPU can read 0 where only 10 ms ticks exist)
        assert all(m["value"] > 0 for metric, m in result["end_to_end"].items()
                   if metric != "cpu_ms_per_update"), name
    for key in ("commit", "python", "nproc", "seed"):
        assert key in data["provenance"]


def test_the_layers_each_workload_exists_for_are_exercised(smoke):
    _code, data = smoke
    layers = {name: result["per_layer"]
              for name, result in data["workloads"].items()}

    def positive(workload, *metrics):
        for metric in metrics:
            assert layers[workload][metric]["value"] > 0, (workload, metric)

    positive("join_churn", "api.resolve_ms", "storage.mutate_ms",
             "plan.vm_ms", "apply.fuse_ms", "xmlmodel.parse_fragment_ms")
    # at 40 persons the CostModel may latch into recomputing every flush
    positive("group_modify", "plan.vm_ms", "apply.fuse_ms")
    assert layers["group_modify"]["engine.propagate_ms"]["max"] \
        + layers["group_modify"]["engine.recompute_ms"]["max"] > 0
    positive("multiview_durable_mixed", "router.route_ms", "wal.append_ms",
             "read_p50_ms", "recover_s", "recovery.replayed_records",
             "wal.bytes_per_update")
    # reads come every 10th batch: at 4-batch segments the median is 0
    assert layers["multiview_durable_mixed"]["xmlmodel.serialize_ms"]["max"] > 0
    assert layers["multiview_durable_mixed"][
        "router.irrelevant_share"]["value"] == 0.5
    positive("served_push", "server.decode_ms", "server.queue_wait_ms",
             "server.encode_ms", "xquery.parse_ms", "push_p50_ms",
             "server.bytes_out_per_batch")
    assert layers["served_push"]["server.push_encodes_per_batch"][
        "value"] == 16
    assert layers["served_push"]["server.coalesced"]["value"] == 0
    assert layers["join_churn"]["trace.unattributed_share"]["value"] \
        <= run.MAX_UNATTRIBUTED


def test_benchmark_json_declares_what_the_command_reports():
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} \
        == M.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} \
        == M.PER_LAYER


def test_compare_a_file_with_itself(smoke, tmp_path, capsys):
    _code, data = smoke
    path = tmp_path / "a.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    # a 4-batch segment is all noise: only the table's shape is checked
    run.main(["--compare", str(path), str(path)])
    table = capsys.readouterr().out
    for workload in run.WORKLOADS:
        for metric in M.END_TO_END:
            assert any(line.startswith(workload) and metric in line
                       for line in table.splitlines()), (workload, metric)


def test_a_renamed_boundary_breaks_the_traced_run(monkeypatch):
    monkeypatch.setattr(tracer, "LAYER_BOUNDARIES", [
        ("repro.engine.executor", "Engine.propagate_renamed", "engine")])
    with pytest.raises(RuntimeError, match="Engine.propagate_renamed"):
        tracer.Tracer().install()
