"""The repo's benchmark: four workloads through the shipping path.

::

    PYTHONPATH=src python benchmarks/e2e/run.py \\
        [--workload W] [--seed N] [--seconds S | --batches B] \\
        [--trace [0|1]] [--smoke] [--out FILE] [--spans-out FILE]
    python benchmarks/e2e/run.py --compare A.json B.json

Every run generates its inputs from ``--seed``, drives the public API
only (``repro.api.Database``, ``python -m repro.server``, the wire
protocol), checks every view against the recompute oracle, prints every
metric by name with its unit and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of an untraced run, ``--trace 1`` the per-layer
metrics of a traced run; without ``--trace`` both are run and reported.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import (CALIBRATION_REFERENCE, REPO_ROOT,  # noqa: E402
                     SRC_DIR, Budget, Scratch, calibrate, calibration_log,
                     end_to_end_metrics, exact, op_counts,
                     process_peak_rss_mb, provenance, summary,
                     throughput_metrics)

if SRC_DIR not in sys.path:
    sys.path.insert(1, SRC_DIR)

import metrics as M                                   # noqa: E402
import served                                         # noqa: E402
import workloads                                      # noqa: E402
from compare import compare_files                     # noqa: E402
from tracer import JOB_LAYER, Tracer, load_dump, self_times  # noqa: E402

#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3
#: ``--trace 1`` splits its seconds: an untraced reference leg (tracing
#: overhead, the single-workload user-visible numbers), then the traced leg
REFERENCE_SHARE = 0.4
#: the traced run fails if more of ``join_churn``'s wall is uncovered
MAX_UNATTRIBUTED = 0.15

WORKLOADS = [w.name for w in workloads.IN_PROCESS] + ["served_push"]


class Outcome:
    """Failure accounting across every session of one workload run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def absorb(self, session) -> None:
        self.attempted += session.attempted
        self.failures.extend(session.failures)


# -- in-process workloads -----------------------------------------------------------------


def set_up(make_session, setups: int, outcome: Outcome) -> tuple:
    """Set up ``setups`` times (``setup_s`` is the median); every session
    but the last is closed again.  Returns ``(session, setup_s)``, the
    latter a metric at reference speed."""
    raw, scaled = [], []
    for remaining in reversed(range(setups)):
        before = calibrate()
        session = make_session()
        raw.append(session.setup_seconds)
        scaled.append(raw[-1] * CALIBRATION_REFERENCE
                      / ((before + calibrate()) / 2))
        if remaining:
            session.close()
            outcome.absorb(session)
            del session
            gc.collect()
    return session, summary(scaled, "s", raw=raw)


def in_process_untraced(workload, seed, budget, scratch, outcome,
                        setups: int, tail: int) -> dict:
    """Set-ups, one timed phase, the oracle before and after it, the
    crash-copy recovery for durable sessions."""
    session, setup_s = set_up(
        lambda: workloads.Session(workload, seed, scratch), setups, outcome)
    try:
        session.check_oracle()
        segments = session.run_phase(budget)
        session.check_oracle()
        extras = M.read_metric(segments)
        if workload.durable:
            recovery = session.recover_copy(tail)
            extras.update({
                "recover_s": exact(recovery["recover_s"], "s"),
                "recovery.restore_ms": exact(recovery["restore_ms"], "ms"),
                "recovery.replayed_records": exact(
                    recovery["replayed_records"])})
    finally:
        session.close()
        outcome.absorb(session)
    end_to_end = {
        "setup_s": setup_s,
        **end_to_end_metrics(segments),
        "peak_rss_mb": exact(process_peak_rss_mb(os.getpid()), "MB"),
    }
    return {"end_to_end": end_to_end, "extras": extras,
            "raw_rate": raw_rate(segments),
            "op_counts": op_counts(segments)}


def in_process_traced(workload, seed, budget, scratch, outcome,
                      untraced_rate: float, spans_out) -> dict:
    """The same op sequence again with every layer boundary wrapped."""
    session = workloads.Session(workload, seed, scratch)
    try:
        before = session.db.metrics()
        with Tracer() as tracer:
            segments = session.run_phase(budget, tracer)
        after = session.db.metrics()
        session.check_oracle()
    finally:
        session.close()
        outcome.absorb(session)
    if spans_out:
        tracer.dump(spans_out)
    totals = self_times(tracer.layers, tracer.spans,
                        [(s.started, s.ended) for s in segments])
    batches = [s.batches for s in segments]
    root_seconds = sum(sum(series) for s in segments
                       for series in s.series.values())
    layers = M.zeros()
    layers.update(M.layer_ms(totals, batches))
    layers.update(M.counter_metrics(
        before, after, sum(batches), sum(s.statements for s in segments)))
    layers.update(M.checkpoint_metrics(totals, segments))
    layers.update(M.trace_validity(
        totals, M.ROOT_LAYERS, root_seconds,
        raw_rate(segments), untraced_rate))
    return {"per_layer": layers, "op_counts": op_counts(segments)}


def run_in_process(workload, args, scratch) -> dict:
    outcome = Outcome()
    budget = Budget(args.seconds, workload.segment_batches, args.batches)
    tail = 4 if args.smoke else workloads.WAL_TAIL_BATCHES
    result = {"workload": workload.name, "end_to_end": {}, "per_layer": {},
              "op_counts": {}}
    if args.trace != 1:
        untraced = in_process_untraced(
            workload, args.seed, budget, scratch, outcome,
            1 if args.smoke else SETUPS, tail)
        result["end_to_end"] = untraced["end_to_end"]
        result["op_counts"]["untraced"] = untraced["op_counts"]
    if args.trace != 0:
        reference = in_process_untraced(
            workload, args.seed, budget.scaled(REFERENCE_SHARE), scratch,
            outcome, 1, tail)
        traced = in_process_traced(
            workload, args.seed, budget.scaled(1 - REFERENCE_SHARE), scratch,
            outcome, reference["raw_rate"], args.spans_out)
        result["per_layer"] = {**traced["per_layer"], **reference["extras"],
                               **calibration_metric()}
        result["op_counts"]["reference"] = reference["op_counts"]
        result["op_counts"]["traced"] = traced["op_counts"]
        share = result["per_layer"]["trace.unattributed_share"]["value"]
        if workload.name == "join_churn" and share > MAX_UNATTRIBUTED:
            outcome.failures.append(
                f"trace: {share:.3f} of join_churn's wall is covered by no "
                f"span (limit {MAX_UNATTRIBUTED})")
    return finish(result, outcome)


# -- served_push --------------------------------------------------------------------------


def served_leg(args, scratch, outcome, seconds: float, setups: int, *,
               open_loop: bool, traced: bool = False) -> dict:
    """One served run: set-ups, the open loop (when asked for), the
    closed loop, the oracle; returns the segments, the server's counters
    around the open loop and — traced — where its spans were dumped."""
    persons = 40 if args.smoke else served.PERSONS
    warmup = 12 if args.smoke else served.WARMUP_BATCHES
    spans_path = os.path.join(scratch, "server-spans.json") if traced \
        else None
    session, setup_s = set_up(
        lambda: served.ServedSession(
            args.seed, scratch, persons=persons, warmup_batches=warmup,
            spans_path=spans_path), setups, outcome)
    leg = {"setup_s": setup_s, "spans_path": spans_path, "op_counts": {}}
    try:
        if open_loop:
            decode_before = session.decode_seconds
            leg["before"] = session.server_metrics()
            leg["open"] = session.open_loop(
                seconds * served.OPEN_LOOP_SHARE, args.batches)
            leg["after"] = session.server_metrics()
            leg["lag"] = session.lag[-sum(s.batches for s in leg["open"]):]
            leg["decode_ms"] = ((session.decode_seconds - decode_before)
                                * 1e3 / len(leg["lag"]))
            leg["op_counts"]["open_loop"] = op_counts(leg["open"])
            seconds *= 1 - served.OPEN_LOOP_SHARE
        leg["closed"] = session.closed_loop(Budget(
            seconds, served.CLOSED_LOOP_SEGMENT_BATCHES, args.batches))
        leg["op_counts"]["closed_loop"] = op_counts(leg["closed"])
        session.check_oracle()
        leg["peak_rss"] = session.peak_rss_mb()
    finally:
        session.close()
        outcome.absorb(session)
    return leg


def served_layers(traced: dict, untraced_rate: float, spans_out) -> dict:
    """Per-layer numbers of the open loop out of the server's span dump."""
    names, spans = load_dump(traced["spans_path"])
    if spans_out:
        os.replace(traced["spans_path"], spans_out)
    segments = traced["open"]
    totals = self_times(names, spans,
                        [(s.started, s.ended) for s in segments])
    batches = [s.batches for s in segments]
    layers = M.layer_ms(totals, batches)
    layers.update(M.counter_metrics(
        traced["before"], traced["after"], sum(batches),
        sum(s.statements for s in segments)))
    layers.update(M.server_metrics(
        totals, batches, traced["before"], traced["after"], traced["lag"],
        traced["decode_ms"]))
    job = names.index(JOB_LAYER)
    job_seconds = sum(
        span[2] - span[1] for span in spans
        if span is not None and span[0] == job
        and segments[0].started <= span[1] < segments[-1].ended)
    layers.update(M.trace_validity(
        totals, (JOB_LAYER,), job_seconds, raw_rate(traced["closed"]),
        untraced_rate))
    return layers


def run_served(args, scratch) -> dict:
    outcome = Outcome()
    result = {"workload": "served_push", "end_to_end": {}, "per_layer": {},
              "op_counts": {}}
    if args.trace != 1:
        # The bounded numbers come from the closed loop, where a batch's
        # latency is its service time; see README for why not the open loop.
        untraced = served_leg(args, scratch, outcome, args.seconds,
                              1 if args.smoke else SETUPS, open_loop=False)
        result["end_to_end"] = {
            "setup_s": untraced["setup_s"],
            **end_to_end_metrics(untraced["closed"]),
            "peak_rss_mb": exact(untraced["peak_rss"], "MB"),
        }
        result["op_counts"]["untraced"] = untraced["op_counts"]
    if args.trace != 0:
        reference = served_leg(args, scratch, outcome,
                               args.seconds * REFERENCE_SHARE, 1,
                               open_loop=True)
        traced = served_leg(args, scratch, outcome,
                            args.seconds * (1 - REFERENCE_SHARE), 1,
                            open_loop=True, traced=True)
        result["per_layer"] = {
            **M.zeros(),
            **M.open_loop_metrics(reference["open"]),
            **served_layers(traced, raw_rate(reference["closed"]),
                            args.spans_out),
            **calibration_metric()}
        result["op_counts"]["reference"] = reference["op_counts"]
        result["op_counts"]["traced"] = traced["op_counts"]
    return finish(result, outcome)


# -- reporting ----------------------------------------------------------------------------


def raw_rate(segments: list) -> float:
    """``updates_per_s`` as measured: tracing overhead compares two legs
    of one run, both on the machine's own clock."""
    return throughput_metrics(segments)["updates_per_s"]["raw"]


def calibration_metric() -> dict:
    """How fast the machine ran: the median of this run's calibrations."""
    return {"calibration.unit_ms": summary(
        [seconds * 1e3 for seconds in calibration_log], "ms")}


def finish(result: dict, outcome: Outcome) -> dict:
    result["attempted"] = max(1, outcome.attempted)
    result["failed"] = len(outcome.failures)
    result["failures"] = outcome.failures[:20]
    result["correct"] = not outcome.failures
    return result


def print_metrics(result: dict) -> None:
    print(f"== {result['workload']}: attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    for group in ("end_to_end", "per_layer"):
        for name, metric in result[group].items():
            raw = f" raw {metric['raw']:.6g}" if "raw" in metric else ""
            print(f"   {name:32s} {metric['value']:>14.6g} {metric['unit']:9s}"
                  f" min {metric['min']:.6g} max {metric['max']:.6g}"
                  f" n={metric['samples']}{raw}")


def contract_line(results: list[dict]) -> str:
    """The last stdout line: exactly ``correct``, ``attempted``,
    ``failed`` and ``metrics`` (``{name: {value, unit}}``)."""
    merged = {}
    for result in results:
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        for group in ("end_to_end", "per_layer"):
            for name, metric in result[group].items():
                merged[prefix + name] = {"value": metric["value"],
                                         "unit": metric["unit"]}
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": merged})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="wall seconds of timed phase per workload")
    parser.add_argument("--batches", type=int, default=None,
                        help="fixed op count instead of --seconds: this many "
                             "timed batches per phase, in 5 equal segments "
                             "(count metrics then repeat exactly)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=None,
                        help="0: untraced end-to-end run only; 1: traced "
                             "per-layer run only; omitted: both")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale: 40 persons, 20 timed batches")
    parser.add_argument("--out", help="write the full result (provenance, "
                                      "per-segment raw values) as JSON")
    parser.add_argument("--spans-out", help="dump the traced run's spans")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out files metric by metric")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.compare:
        return compare_files(*args.compare,
                             os.path.join(REPO_ROOT, "BENCHMARK.json"))
    if args.smoke:
        args.batches = 20
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    with Scratch() as scratch:
        for name in names:
            calibration_log.clear()
            if name == "served_push":
                result = run_served(args, scratch)
            else:
                spec = next(w for w in workloads.IN_PROCESS if w.name == name)
                result = run_in_process(spec.smoke() if args.smoke else spec,
                                        args, scratch)
            print_metrics(result)
            results.append(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"provenance": provenance(args.seed),
                       "seconds": args.seconds, "batches": args.batches,
                       "workloads": {r["workload"]: r for r in results}},
                      handle, indent=1)
    print(contract_line(results))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
