"""Helpers every workload shares: percentiles, digests, memory, results."""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

#: Samples a reported percentile must leave beyond it.
MIN_TAIL_SAMPLES = 10

#: Latency samples a run collects at least, so that p95 leaves
#: ``MIN_TAIL_SAMPLES`` beyond it; serve-zipf's phase A sends at least
#: this many requests whatever its rate and ``--seconds``.
MIN_LATENCY_SAMPLES = 20 * MIN_TAIL_SAMPLES

#: Seed of the corpus and the network every workload runs on.  The system
#: under test stays the same across runs; ``--seed`` varies the workload
#: (search strings, initiators, request order and schedule, write batches).
CORPUS_SEED = 0

#: Times each run builds its system; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Passes over identical work each run makes at least.  The host's CPU
#: speed drifts in bursts: a fixed pure-Python loop runs up to 1.6x slower
#: for seconds at a time, with no steal time and CPU time slowing as much
#: as wall time.  So time metrics come from the fastest pass of each
#: operation (see :func:`fastest`), not from one pass or the wall clock.
MIN_PASSES = 3


#: Seconds one :func:`work_slice` took at the fastest on the host where
#: the benchmark was defined (2-vCPU Xeon VM).  Time metrics are scaled to
#: that host speed; see :class:`HostSpeed`.
REFERENCE_SLICE_S = 0.0050

#: Seconds between host-speed slices.
SLICE_INTERVAL = 0.2

#: Host-speed slices timed after each build, for ``setup_s``'s own scale.
SLICES_PER_BUILD = 8

class TailTooThin(ValueError):
    """A percentile was asked of too few samples to leave a tail."""


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile of ``values`` (0 < q < 1).

    Raises :class:`TailTooThin` when fewer than ``MIN_TAIL_SAMPLES``
    samples lie beyond the rank, because such a figure is one or two
    unlucky samples, not a percentile.
    """
    ordered = sorted(values)
    if not ordered:
        raise TailTooThin(f"p{q * 100:g} of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if q > 0.5 and beyond < MIN_TAIL_SAMPLES:
        raise TailTooThin(
            f"p{q * 100:g} of {len(ordered)} samples leaves {beyond} beyond "
            f"it; need {MIN_TAIL_SAMPLES}"
        )
    return ordered[rank - 1]


def fastest(passes: list[list[float]], scales=None) -> list[float]:
    """Per-operation minimum over passes that repeat the same operations.

    ``passes[p][i]`` is operation ``i``'s time in pass ``p``; every pass
    holds the same operations in the same order.  Each pass's times are
    first multiplied by its entry in ``scales`` (see :class:`HostSpeed`),
    when given.  A slow burst of the host rarely hits an operation in
    every pass, so the minimum is the operation's own cost.
    """
    if not passes or any(len(times) != len(passes[0]) for times in passes):
        raise ValueError("passes must be non-empty and of equal length")
    if scales is not None:
        passes = [[t * scale for t in times] for times, scale in zip(passes, scales)]
    return [min(times) for times in zip(*passes)]


def digest(payload) -> str:
    """Short stable digest of JSON-able generated inputs."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def edit_distance(a: str, b: str) -> int:
    """Plain Levenshtein distance: the benchmark's own reference."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, 1):
        current = [i]
        for j, char_b in enumerate(b, 1):
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + (char_a != char_b),
                )
            )
        previous = current
    return previous[-1]


def stratified(words: list[str], count: int, rng) -> list[str]:
    """``count`` words, one from each of ``count`` equal length strata.

    The corpus is ordered by length (ties keep corpus order) and cut into
    ``count`` equal slices; one word is drawn from each, and the picks
    are returned in random order.
    """
    by_length = sorted(words, key=len)
    picks = [
        by_length[rng.randrange(i * len(by_length) // count,
                                (i + 1) * len(by_length) // count)]
        for i in range(count)
    ]
    rng.shuffle(picks)
    return picks


def bounded_distances(search: str, strings, d: int) -> dict[int, int]:
    """``{index: distance}`` of every string within edit distance ``d``."""
    found = {}
    for index, candidate in enumerate(strings):
        if abs(len(candidate) - len(search)) <= d:
            distance = edit_distance(search, candidate)
            if distance <= d:
                found[index] = distance
    return found


def median_setup(build, speed: HostSpeed, repeats: int = SETUP_REPEATS):
    """Run ``build()`` ``repeats`` times; (median seconds, last result).

    Earlier results are released (and collected) before the next build so
    their memory does not pile up into the peak RSS.  ``speed`` times a
    burst of host-speed slices after each build.
    """
    import gc

    seconds = []
    result = None
    for __ in range(repeats):
        result = None
        gc.collect()
        started = time.perf_counter()
        result = build()
        seconds.append(time.perf_counter() - started)
        speed.burst()
    return statistics.median(seconds), result


def work_slice() -> int:
    """Fixed interpreter work (string keys, a dict, a sort) timing the host."""
    table: dict[str, int] = {}
    for i in range(6000):
        key = "k%07d" % (i * 7919 % 100003)
        table[key] = table.get(key, 0) + i
    return len(sorted(table.items(), key=lambda item: (item[1] % 977, item[0])))


class HostSpeed:
    """How fast the host ran while a workload ran, from timed work slices.

    The host's speed moves under the benchmark: a fixed pure-Python loop
    ran 1.0-1.7x its fastest time within seconds, and whole periods of
    minutes were up to 2x slower, with no steal time and CPU time slowing
    as much as wall time.  Fastest passes remove the bursts but not the
    periods.  So a workload times one :func:`work_slice` at the start of
    each pass and about every ``SLICE_INTERVAL`` seconds after, between
    its operations and on the thread that runs them: over 6-second
    windows the lower quartile of such slices tracked the lower quartile
    of the program's own operation times within a few percent, while
    slices timed on the other processor did not (slowdowns there
    differed by up to 1.5x).

    :meth:`scale` is the reference slice time over the lower quartile of
    the slices (of one pass, or of the builds).  A time multiplied by it
    is the time at the reference host's speed; each pass is scaled by its
    own slices before the fastest pass is taken.  The program never runs
    the slice, so a change to the program moves the scaled metrics as
    much as the measured ones.
    """

    def __init__(self):
        self.slices: list[float] = []
        self._due = 0.0

    def slice(self) -> None:
        started = time.perf_counter()
        work_slice()
        self.slices.append(time.perf_counter() - started)

    def burst(self, count: int = SLICES_PER_BUILD) -> None:
        for __ in range(count):
            self.slice()

    def between_operations(self) -> None:
        """Time a slice if one is due; call between timed operations."""
        now = time.perf_counter()
        if now >= self._due:
            self.slice()
            self._due = now + SLICE_INTERVAL

    def scale(self, since: int = 0) -> float:
        """Reference slice time over the lower quartile of the slices from
        index ``since`` on."""
        slices = sorted(self.slices[since:])
        if not slices:
            raise RuntimeError("no host-speed slices were timed")
        return REFERENCE_SLICE_S / slices[len(slices) // 4]


def scale_setup(result: "RunResult", setup_speed: HostSpeed) -> None:
    """Scale ``setup_s`` by the slices timed after the builds; the measured
    value stays in ``result.extra``."""
    raw, scale = result.metrics["setup_s"], setup_speed.scale()
    result.metrics["setup_s"] = raw * scale
    result.extra["setup_s.raw"] = (raw, "s")
    result.extra["host.setup_scale"] = (scale, "ratio")


def record_scales(result: "RunResult", speed: HostSpeed, scales: list[float],
                  raw_throughput: float) -> None:
    """Figures that show how the passes were scaled (not registered)."""
    result.extra["throughput_ops_s.raw"] = (raw_throughput, "ops/s")
    result.extra["host.scale"] = (statistics.median(scales), "ratio")
    result.extra["host.slices"] = (len(speed.slices), "count")


@dataclass
class RunResult:
    """What one workload run measured and checked."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: End-to-end metrics: name -> value (units live in run.py).
    metrics: dict[str, float] = field(default_factory=dict)
    #: Figures printed for reading but not registered as metrics:
    #: name -> (value, unit).
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Per-layer figures the workload measures itself (memo and pool
    #: counters, generator lateness); the tracer adds the span figures.
    layer: dict[str, float] = field(default_factory=dict)
    #: Digest of the generated inputs.
    inputs_digest: str = ""

    def fail(self, message: str) -> None:
        self.failures.append(message)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def memo_delta(before: dict, after: dict) -> dict[str, dict[str, int]]:
    """Per-memo counter differences between two ``memo_stats()`` reads."""
    return {
        name: {
            key: after[name][key] - before.get(name, {}).get(key, 0)
            for key in ("hits", "misses", "invalidations")
        }
        for name in after
    }


def memo_layer_figures(delta: dict[str, dict[str, int]]) -> dict[str, float]:
    figures = {}
    for name in ("fetch", "naive", "gram_scan"):
        counts = delta.get(name, {"hits": 0, "misses": 0, "invalidations": 0})
        figures[f"memo.{name}.hit_rate"] = ratio(
            counts["hits"], counts["hits"] + counts["misses"]
        )
        figures[f"memo.{name}.invalidations"] = counts["invalidations"]
    return figures


def pool_layer_figures(before: dict, after: dict) -> dict[str, float]:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {
        "similarity.verify.pool_hit_rate": ratio(hits, hits + misses),
        "similarity.verify.pool_evictions": after["evictions"] - before["evictions"],
    }
