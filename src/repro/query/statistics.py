"""Attribute statistics and selectivity estimation.

The paper defers cost-based optimization ("which of these two approaches,
or any other, more sophisticated, strategy, is used is a choice depending
on cost optimizations, which is part of our ongoing work").  This module
implements that ongoing work in its natural P-Grid form:

* :class:`AttributeStatistics` — per-attribute summaries: row count,
  distinct values, numeric min/max and an equi-width histogram, mean
  string length;
* :class:`StatisticsCatalog` — collected by *sampling the overlay*: the
  collector routes into an attribute's key region, asks a few partitions
  for their local summaries (cheap, charged messages), and extrapolates
  by the sampled fraction — the same local-density idea Algorithm 4 uses
  for its first range estimate, generalized;
* selectivity estimators used by the cost-based planner: expected rows
  for exact lookups, ranges, and similarity predicates.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.errors import QueryError
from repro.query.operators.base import OperatorContext
from repro.storage.indexing import EntryKind
from repro.storage.triple import is_numeric

#: Histogram buckets for numeric attributes.
HISTOGRAM_BUCKETS = 16


@dataclass
class AttributeStatistics:
    """Summary of one attribute's stored values."""

    attribute: str
    row_count: int = 0
    distinct_estimate: int = 0
    numeric_min: float | None = None
    numeric_max: float | None = None
    histogram: list[int] = field(default_factory=list)
    mean_string_length: float = 0.0
    string_rows: int = 0
    numeric_rows: int = 0
    #: Stored instance-gram entries for this attribute (extrapolated like
    #: ``row_count``) and the distinct gram texts seen — the cost model's
    #: handle on q-gram posting-list lengths.
    gram_rows: int = 0
    distinct_gram_estimate: int = 0

    @property
    def is_numeric(self) -> bool:
        return self.numeric_rows >= self.string_rows

    # -- selectivity estimators ---------------------------------------------------

    def estimate_equality_rows(self) -> float:
        """Expected rows for ``attribute = v`` (uniform over distinct)."""
        if self.distinct_estimate <= 0:
            return 0.0
        return self.row_count / self.distinct_estimate

    def estimate_range_rows(self, lo: float, hi: float) -> float:
        """Expected rows for ``lo <= attribute <= hi`` via the histogram."""
        if (
            self.numeric_min is None
            or self.numeric_max is None
            or not self.histogram
        ):
            return float(self.row_count)
        if hi < self.numeric_min or lo > self.numeric_max:
            return 0.0
        span = self.numeric_max - self.numeric_min
        if span <= 0:
            return float(self.numeric_rows)
        width = span / len(self.histogram)
        rows = 0.0
        for index, bucket in enumerate(self.histogram):
            b_lo = self.numeric_min + index * width
            b_hi = b_lo + width
            overlap = min(hi, b_hi) - max(lo, b_lo)
            if overlap <= 0:
                continue
            rows += bucket * min(1.0, overlap / width)
        return rows

    def estimate_gram_postings(self) -> float:
        """Expected posting-list length of one instance-gram key.

        Gram entries spread over the distinct gram texts of the
        attribute's values; with no gram statistics the estimate falls
        back to zero, which keeps the cost model purely structural.
        """
        if self.distinct_gram_estimate <= 0:
            return 0.0
        return self.gram_rows / self.distinct_gram_estimate

    # -- delta maintenance --------------------------------------------------------

    def apply_value_delta(self, value, sign: int, q: int, count_grams: bool) -> None:
        """Patch this summary for one inserted (``sign=+1``) or deleted
        (``sign=-1``) triple value.

        Counts (rows, numeric/string split, gram rows, the string-length
        mean) are maintained exactly for the applied delta; the *sampled*
        parts of the summary degrade gracefully instead of being
        recomputed: the distinct estimates stay put (a single write
        rarely moves them, and they only feed orderings), inserts expand
        numeric min/max and the matching histogram bucket, and deletes
        leave min/max alone (shrinking them would need a rescan) while
        decrementing the bucket.  The result is a catalog that tracks
        mutation direction without re-sampling the overlay — the
        wholesale alternative the delta-maintenance arc replaces.
        """
        self.row_count = max(0, self.row_count + sign)
        if is_numeric(value):
            v = float(value)
            self.numeric_rows = max(0, self.numeric_rows + sign)
            if sign > 0:
                if self.numeric_min is None or v < self.numeric_min:
                    self.numeric_min = v
                if self.numeric_max is None or v > self.numeric_max:
                    self.numeric_max = v
            if (
                self.histogram
                and self.numeric_min is not None
                and self.numeric_max is not None
            ):
                span = self.numeric_max - self.numeric_min
                if span > 0 and self.numeric_min <= v <= self.numeric_max:
                    index = min(
                        len(self.histogram) - 1,
                        int((v - self.numeric_min) / span * len(self.histogram)),
                    )
                    self.histogram[index] = max(0, self.histogram[index] + sign)
        else:
            text = str(value)
            previous_rows = self.string_rows
            self.string_rows = max(0, self.string_rows + sign)
            if self.string_rows > 0:
                self.mean_string_length = max(
                    0.0,
                    (self.mean_string_length * previous_rows + sign * len(text))
                    / self.string_rows,
                )
            else:
                self.mean_string_length = 0.0
            if count_grams:
                # ``len + q - 1`` extended grams per string value (see
                # ``repro.storage.qgrams.positional_qgrams``).
                self.gram_rows = max(0, self.gram_rows + sign * (len(text) + q - 1))

    def estimate_similarity_rows(self, d: int) -> float:
        """Expected rows within edit distance ``d`` of a random string.

        A crude but monotone model: a ball of radius ``d`` in edit space
        over strings of mean length ``L`` covers roughly ``(c·L)^d``
        strings out of ``Σ^L`` — which collapses, for estimation purposes,
        to ``equality_rows · growth^d`` with an empirical per-edit growth
        factor.  What the planner needs is the *ordering* (d=1 before
        d=3, similarity before scan), which this provides.
        """
        growth = max(4.0, 1.5 * max(self.mean_string_length, 1.0))
        return min(
            float(self.row_count), self.estimate_equality_rows() * growth**d
        )


@dataclass
class StatisticsCatalog:
    """Per-attribute statistics, keyed by qualified attribute name."""

    by_attribute: dict[str, AttributeStatistics] = field(default_factory=dict)

    def get(self, attribute: str) -> AttributeStatistics | None:
        return self.by_attribute.get(attribute)

    def attributes(self) -> list[str]:
        return sorted(self.by_attribute)

    def apply_triples_delta(self, triples, sign: int, config) -> int:
        """Patch per-attribute summaries for an applied write.

        Called by the engine's explicit write path with the exact triples
        it inserted (``sign=+1``) or deleted (``sign=-1``); only
        attributes that have been ``analyze``-d carry summaries and are
        patched — writes to never-analyzed attributes cost nothing here.
        Returns the number of triples that patched a summary.
        """
        if sign not in (-1, 1):
            raise QueryError(f"delta sign must be +1 or -1, got {sign}")
        patched = 0
        count_grams = config.index_instance_grams
        for triple in triples:
            stats = self.by_attribute.get(triple.attribute)
            if stats is None:
                continue
            stats.apply_value_delta(triple.value, sign, config.q, count_grams)
            patched += 1
        return patched


def collect_statistics(
    ctx: OperatorContext,
    attributes: Sequence[str],
    sample_partitions: int = 4,
    initiator_id: int | None = None,
) -> StatisticsCatalog:
    """Sample the overlay and build a catalog for ``attributes``.

    For each attribute the collector contacts up to ``sample_partitions``
    evenly spaced partitions of the attribute's key region (one routed
    walk plus forwards, plus one summary-sized result message each) and
    extrapolates counts by the sampled fraction of the region.
    """
    if sample_partitions < 1:
        raise QueryError("need at least one sampled partition")
    if initiator_id is None:
        initiator_id = ctx.random_initiator()
    catalog = StatisticsCatalog()
    for attribute in attributes:
        catalog.by_attribute[attribute] = _collect_one(
            ctx, attribute, sample_partitions, initiator_id
        )
    return catalog


def _collect_one(
    ctx: OperatorContext,
    attribute: str,
    sample_partitions: int,
    initiator_id: int,
) -> AttributeStatistics:
    network = ctx.network
    prefix = ctx.codec.attr_prefix(attribute)
    region = network.partitions_under(prefix)
    step = max(1, len(region) // sample_partitions)
    sampled = region[::step][:sample_partitions]
    fraction = len(sampled) / len(region) if region else 1.0

    stats = AttributeStatistics(attribute=attribute)
    values_numeric: list[float] = []
    lengths: list[int] = []
    distinct: set = set()
    distinct_grams: set = set()
    gram_rows = 0
    entry_peer = ctx.router.route(sampled[0].path, initiator_id, phase="stats")
    previous = entry_peer
    for partition in sampled:
        if partition.contains(previous.peer_id):
            peer = previous
        else:
            peer = network.peer(partition.peer_ids[0])
            from repro.overlay.messages import MessageType

            network.tracer.send(
                MessageType.FORWARD, previous.peer_id, peer.peer_id, phase="stats"
            )
            previous = peer
        local = 0
        for entry in peer.store.prefix_scan(prefix):
            if entry.triple.attribute != attribute:
                continue
            if entry.kind is EntryKind.INSTANCE_GRAM:
                gram_rows += 1
                distinct_grams.add(entry.gram)
                continue
            if entry.kind is not EntryKind.ATTR_VALUE:
                continue
            local += 1
            value = entry.triple.value
            distinct.add(value)
            if is_numeric(value):
                values_numeric.append(float(value))
            else:
                lengths.append(len(str(value)))
        # One fixed-size summary per sampled partition travels back.
        ctx.router.send_result(peer.peer_id, initiator_id, 64, phase="stats")
        stats.row_count += local

    scale = 1.0 / fraction if fraction > 0 else 1.0
    stats.row_count = int(round(stats.row_count * scale))
    stats.distinct_estimate = max(1, int(round(len(distinct) * scale)))
    stats.gram_rows = int(round(gram_rows * scale))
    # Gram entries are keyed by gram text, so disjoint partitions hold
    # disjoint gram sets and the distinct count extrapolates linearly —
    # exactly like ``gram_rows``.  Keeping the raw sampled count instead
    # would divide a region-wide numerator by a few-partitions
    # denominator and overstate posting lists by orders of magnitude
    # (pushing the cost model toward naive broadcasts).  The resulting
    # postings estimate is the within-sample rows-per-gram ratio, which
    # is frequency-weighted — the right weighting for grams of query
    # strings drawn from the stored corpus.
    stats.distinct_gram_estimate = max(1, int(round(len(distinct_grams) * scale)))
    stats.numeric_rows = int(round(len(values_numeric) * scale))
    stats.string_rows = int(round(len(lengths) * scale))
    if values_numeric:
        stats.numeric_min = min(values_numeric)
        stats.numeric_max = max(values_numeric)
        stats.histogram = _build_histogram(
            values_numeric, stats.numeric_min, stats.numeric_max, scale
        )
    if lengths:
        stats.mean_string_length = sum(lengths) / len(lengths)
    return stats


def _build_histogram(
    values: list[float], lo: float, hi: float, scale: float
) -> list[int]:
    buckets = [0.0] * HISTOGRAM_BUCKETS
    span = hi - lo
    if span <= 0:
        buckets[0] = len(values)
    else:
        for value in values:
            index = min(
                HISTOGRAM_BUCKETS - 1, int((value - lo) / span * HISTOGRAM_BUCKETS)
            )
            buckets[index] += 1
    return [int(math.ceil(b * scale)) for b in buckets]
