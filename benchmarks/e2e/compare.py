"""``--compare A.json B.json``: one row per end-to-end metric x workload.

Each side is a ``--out`` file.  A row shows both medians (across
segments), both spreads, how much worse B is than A against the
metric's bound from BENCHMARK.json, and a verdict: ``ok``,
``regressed``, or ``unresolved`` when either side's spread is wider
than the bound (the difference cannot be told from noise).  The spread
is how far a median of ``n`` segments can be trusted: the segments'
interquartile range over their median, over ``sqrt(n)``.
"""

from __future__ import annotations

import json
import math
import statistics


def spread(segments: list) -> float:
    if len(segments) < 2:
        return 0.0
    first, _median, third = statistics.quantiles(segments, n=4)
    middle = statistics.median(segments)
    return (third - first) / (middle * math.sqrt(len(segments))) \
        if middle else 0.0


def compare_files(path_a: str, path_b: str, benchmark_json: str) -> int:
    with open(benchmark_json, "r", encoding="utf-8") as handle:
        declared = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    sides = []
    for path in (path_a, path_b):
        with open(path, "r", encoding="utf-8") as handle:
            sides.append(json.load(handle)["workloads"])
    verdicts = {"ok": 0, "regressed": 0, "unresolved": 0}
    print(f"{'workload':24s} {'metric':18s} {'A':>11s} {'B':>11s} "
          f"{'spreadA':>8s} {'spreadB':>8s} {'worse':>8s} {'bound':>6s} verdict")
    for workload in sides[0]:
        if workload not in sides[1]:
            continue
        for name, spec in declared.items():
            a = sides[0][workload]["end_to_end"].get(name)
            b = sides[1][workload]["end_to_end"].get(name)
            if a is None or b is None:
                continue
            change = (b["value"] - a["value"]) / a["value"] if a["value"] \
                else 0.0
            worse = change if spec["better"] == "lower" else -change
            spreads = spread(a["segments"]), spread(b["segments"])
            if max(spreads) > spec["bound"]:
                verdict = "unresolved"
            elif worse > spec["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            verdicts[verdict] += 1
            print(f"{workload:24s} {name:18s} {a['value']:11.5g} "
                  f"{b['value']:11.5g} {spreads[0]:8.1%} {spreads[1]:8.1%} "
                  f"{worse:+8.1%} {spec['bound']:6.0%} {verdict}")
    print(", ".join(f"{count} {verdict}"
                    for verdict, count in verdicts.items()))
    return 1 if verdicts["regressed"] or verdicts["unresolved"] else 0
