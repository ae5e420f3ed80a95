"""Measurement plumbing shared by the four workloads.

A timed phase is cut into **segments** of a fixed batch count; every
timing metric is computed per segment and reported as the median across
segments (min, max and the sample count ride along) — no best-of-N.
Latency percentiles use finer chunks (:data:`LATENCY_CHUNK`).
Time-bounded runs (``--seconds``) keep adding whole segments until the
budget is spent; fixed-count runs (``--batches``) run exactly five.

The sandbox is a few cores of a shared host whose speed moves by 20-30%
for seconds at a time (wall *and* CPU time of the same pure-Python loop),
so the bounded end-to-end times are reported **at reference speed**: a
fixed pure-Python unit (:func:`calibration_sample`) is timed after every
few batches and each segment's times are scaled by
``CALIBRATION_REFERENCE / median sample``.  Per-layer numbers stay raw;
``calibration.unit_ms`` says how fast the machine ran.
"""

from __future__ import annotations

import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

E2E_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(E2E_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")

#: fixed-count runs cut the timed phase into this many equal segments
FIXED_SEGMENTS = 5


@dataclass
class Budget:
    """How long a timed phase runs: ``seconds`` of wall time in whole
    segments of ``segment_batches``, or — when ``batches`` is set —
    exactly ``FIXED_SEGMENTS`` segments of ``batches // FIXED_SEGMENTS``."""

    seconds: float
    segment_batches: int
    batches: int | None = None

    def __post_init__(self):
        if self.batches is not None:
            self.segment_batches = max(1, self.batches // FIXED_SEGMENTS)

    def scaled(self, share: float) -> "Budget":
        """The same budget with ``share`` of the wall time (fixed-count
        budgets are not split: both legs run the same op sequence)."""
        return Budget(self.seconds * share, self.segment_batches, self.batches)

    def spent(self, segments_done: int, elapsed: float) -> bool:
        if self.batches is not None:
            return segments_done >= FIXED_SEGMENTS
        return elapsed >= self.seconds


@dataclass
class Segment:
    """Raw samples of one segment of a timed phase."""

    started: float = 0.0
    ended: float = 0.0
    cpu_seconds: float = 0.0
    statements: int = 0
    #: wall and own-CPU seconds between ``started`` and ``ended`` spent
    #: calibrating
    paused: float = 0.0
    cpu_paused: float = 0.0
    #: calibration samples taken during this segment (none: raw times)
    speed: list = field(default_factory=list)
    #: latency samples in execution order: "batch" plus, per workload,
    #: "read" / "query" / "push"
    series: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.ended - self.started - self.paused

    @property
    def batches(self) -> int:
        return len(self.series["batch"])

    @property
    def scale(self) -> float:
        """What to multiply this segment's times by to get them at
        reference speed."""
        if not self.speed:
            return 1.0
        return CALIBRATION_REFERENCE / statistics.median(self.speed)

    def calibrate(self) -> None:
        """Take one calibration sample inside the segment."""
        wall, cpu = time.perf_counter(), time.process_time()
        self.speed.append(calibration_sample())
        self.paused += time.perf_counter() - wall
        self.cpu_paused += time.process_time() - cpu


# -- speed calibration --------------------------------------------------------------------

#: seconds one :func:`calibration_sample` reads at reference speed: its
#: usual value on the 2-core sandbox this benchmark was written on.
#: Frozen; it only fixes the absolute scale of the reported times.
CALIBRATION_REFERENCE = 0.00060
#: a timed phase takes one sample after every this many batches
CALIBRATE_EVERY = 4

#: every sample of this process, raw seconds (``calibration.unit_ms``)
calibration_log: list[float] = []


class _Node:
    __slots__ = ("key", "children", "text")

    def __init__(self, key: int):
        self.key = key
        self.children = []
        self.text = str(key)


def _tree(size: int) -> list:
    nodes = [_Node(key) for key in range(size)]
    for node in nodes[1:]:
        nodes[node.key // 2].children.append(node)
    return nodes


_NODES = _tree(300)
_BY_TEXT = {node.text: node for node in _NODES}
#: a random cycle over 2**18 slots (~10 MB with its ints): larger than a
#: core's L2, so following it waits on the cache the neighbours share
_CYCLE = list(range(1 << 18))
random.Random(0).shuffle(_CYCLE)
_position = 0


def _walk() -> int:
    """Interpreter work out of the core's own caches: attribute and dict
    look-ups over a small prebuilt tree, a keyed sort, a join."""
    total = 0
    for _ in range(6):
        for node in _NODES:
            for child in node.children:
                total += len(child.text) + _BY_TEXT[child.text].key
        total += len("/".join(sorted(_BY_TEXT, key=lambda text: text[::-1])))
    return total


def _chase() -> None:
    """Dependent loads from the shared cache."""
    global _position
    position, cycle = _position, _CYCLE
    for _ in range(2000):
        position = cycle[position]
    _position = position


def calibration_sample() -> float:
    """How slow the machine is right now: the geometric mean of the
    seconds the two fixed pure-Python parts take.  The host's noise is of
    two kinds — the core runs slower, or the shared cache is contended —
    and the program under test feels both; each part feels mostly one."""
    started = time.perf_counter()
    _walk()
    between = time.perf_counter()
    _chase()
    seconds = math.sqrt((between - started)
                        * (time.perf_counter() - between))
    calibration_log.append(seconds)
    return seconds


def calibrate() -> float:
    """A burst of samples where no timed phase interleaves them (around
    a set-up): the median of five after two on cold caches."""
    return statistics.median([calibration_sample() for _ in range(7)][2:])


def percentile(values: list, share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))]


def summary(per_segment: list, unit: str, samples: int | None = None,
            raw: list | None = None) -> dict:
    """One reported metric: the median across segments, plus the
    per-segment values, their min/max and the sample count; ``raw`` are
    the same per-segment values before scaling to reference speed."""
    out = {"value": statistics.median(per_segment) if per_segment else 0.0,
           "unit": unit,
           "min": min(per_segment, default=0.0),
           "max": max(per_segment, default=0.0),
           "segments": per_segment,
           "samples": samples if samples is not None else len(per_segment)}
    if raw is not None:
        out["raw"] = statistics.median(raw) if raw else 0.0
    return out


def exact(value, unit: str = "count") -> dict:
    """A metric that is one number, not a per-segment series."""
    return {"value": value, "unit": unit, "min": value, "max": value,
            "segments": [value], "samples": 1}


#: latency percentiles are taken per chunk of this many consecutive
#: batches and reported as the median across chunks: a stall (a full gc,
#: a noisy neighbour) then moves the few chunks it lands in, not the
#: reported tail
LATENCY_CHUNK = 50


def chunk_percentiles(seconds: list, share: float) -> list:
    size = LATENCY_CHUNK if len(seconds) >= 2 * LATENCY_CHUNK \
        else max(1, len(seconds))
    return [percentile(seconds[i:i + size], share) * 1e3
            for i in range(0, len(seconds) - size + 1, size)]


def latency_metrics(seconds: list, prefix: str = "batch",
                    raw: list | None = None) -> dict:
    """``<prefix>_p50_ms`` / ``<prefix>_p95_ms`` of an ordered latency
    series (chunked; one chunk when the series is shorter than two)."""
    return {
        f"{prefix}_p{round(share * 100)}_ms": summary(
            chunk_percentiles(seconds, share), "ms", len(seconds),
            chunk_percentiles(raw, share) if raw is not None else None)
        for share in (0.50, 0.95)}


def series_of(segments: list, name: str = "batch",
              scaled: bool = False) -> list:
    """One latency series of a timed phase, in execution order; as
    measured, or ``scaled`` to reference speed."""
    return [value * segment.scale if scaled else value
            for segment in segments
            for value in segment.series.get(name, ())]


def op_counts(segments: list) -> dict:
    return {"segments": len(segments),
            "timed_batches": sum(s.batches for s in segments),
            "statements": sum(s.statements for s in segments)}


def throughput_metrics(segments: list[Segment]) -> dict:
    """``updates_per_s`` and ``cpu_ms_per_update`` per segment, at
    reference speed, the raw medians alongside."""
    statements = sum(s.statements for s in segments)
    rate = [s.statements / s.wall for s in segments]
    cpu = [s.cpu_seconds * 1e3 / s.statements for s in segments]
    scales = [s.scale for s in segments]
    return {
        "updates_per_s": summary(
            [r / k for r, k in zip(rate, scales)], "1/s", statements, rate),
        "cpu_ms_per_update": summary(
            [c * k for c, k in zip(cpu, scales)], "ms", statements, cpu),
    }


def end_to_end_metrics(segments: list[Segment]) -> dict:
    """The bounded timing metrics of a timed phase, at reference speed."""
    return {**throughput_metrics(segments),
            **latency_metrics(series_of(segments, scaled=True),
                              raw=series_of(segments))}


# -- counters out of ``db.metrics()`` / the ``metrics`` wire op ---------------------------


def counter_total(snapshot: dict, family: str) -> float:
    """Sum of one counter family over all its label sets (0 if absent)."""
    values = snapshot.get(family, {}).get("values", {})
    return sum(v for v in values.values() if isinstance(v, (int, float)))


def histogram_total(snapshot: dict, family: str) -> tuple[int, float]:
    """``(count, sum)`` of one histogram family over all label sets."""
    values = snapshot.get(family, {}).get("values", {}).values()
    return (sum(v["count"] for v in values), sum(v["sum"] for v in values))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- process accounting -------------------------------------------------------------------


_CLOCK_TICK = os.sysconf("SC_CLK_TCK")


def process_cpu_seconds(pid: int) -> float:
    """CPU time of another (single-threaded) process: the scheduler's
    nanosecond on-CPU counter, or — on kernels without schedstats —
    user+sys from ``/proc/<pid>/stat`` in 10 ms ticks."""
    try:
        with open(f"/proc/{pid}/schedstat", "r", encoding="ascii") as handle:
            return int(handle.read().split()[0]) / 1e9
    except (OSError, ValueError, IndexError):
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICK


def process_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


# -- scratch space and provenance ---------------------------------------------------------


class Scratch:
    """A temp directory *inside the checkout* (``.bench_tmp/``), removed
    on exit — the benchmark never writes outside its working tree."""

    def __enter__(self) -> str:
        base = os.path.join(os.getcwd(), ".bench_tmp")
        os.makedirs(base, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="e2e-", dir=base)
        return self.path

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass    # another run still has a scratch directory there


def provenance(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"      # the driver's checkout is not a repository
    return {"commit": commit,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": seed,
            "argv": sys.argv[1:],
            "unix_time": time.time()}
