"""The naive string-similarity baseline (Section 4).

"A naive approach to process string similarity is to send a query to each
peer which is responsible for a part of the strings to be compared.  The
contacted peers then compare the queried string to the data available
locally and send matching results back to the peer having initiated the
query."

Instance level: the strings to be compared are the values of attribute
``a``, i.e. every peer whose partition intersects the ``key(a#·)`` region.
Schema level: attribute names live in *every* stored triple, so the whole
network has to be contacted.

The broadcast itself scales linearly with the number of peers (the region
is a constant fraction of a load-balanced network) — the behaviour
Figure 1 shows for the ``strings`` curves.  After local comparison, the
matching peers return ``(oid, value)`` pairs and the initiator batch-
fetches the complete objects, so the final result is identical in shape
to the q-gram strategies'.

:class:`NaiveWorkloadMemo` is the one acceleration here, cost-transparent
by construction.  A workload replays the same ``(s, a, d)`` query many
times (repeated search strings, iterative-deepening top-N rounds, join
probes over equal values); the *local comparison outcome* of such a query
depends only on the stored data, which is identical across a partition's
replicas and constant during a benchmark cell.  The memo caches that
outcome per partition and replays it, while the broadcast itself —
routed entry, shower forwards, per-peer query copies, result returns —
is still executed and charged for real, so the measured message and byte
series are bit-identical with the memo on or off (pinned by tests).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ExecutionError
from repro.overlay.messages import MessageType
from repro.query.operators.base import (
    QUERY_HEADER_BYTES,
    MatchedObject,
    OperatorContext,
)
from repro.query.operators.similar import SimilarResult
from repro.similarity.verify import BatchVerifier
from repro.storage.indexing import EntryKind


@dataclass(frozen=True)
class RegionComparison:
    """The data-dependent outcome of one naive region's local comparisons.

    Everything here is a function of ``(s, attribute)``, the band, and
    the stored data only — independent of the initiating peer, of which
    replica of a partition was contacted, and of every RNG draw — which
    is exactly what makes it safely memoizable across a workload.

    ``by_partition`` keeps every compared string whose edit distance to
    ``s`` is at most ``band``; the matches for any query distance
    ``d <= band`` are the entries with ``distance <= d``.  Banded DP
    distances are exact within the band, so the filtered view is
    bit-identical to a dedicated ``BatchVerifier(s, d)`` pass.
    """

    #: Largest distance the stored entries are complete and exact for.
    band: int
    #: partition index -> ((oid, value, distance <= band), ...) in store order.
    by_partition: dict[int, tuple[tuple[str, str, int], ...]]
    #: Total strings compared across the region (``candidates_verified``).
    local_comparisons: int
    #: Largest number of comparisons any single peer performed.
    max_peer_comparisons: int
    #: partition index -> store mutation counter of the scanned replica.
    #: Replayed only while the contacted replicas still report these
    #: versions; any mismatch invalidates the cache entry.
    store_versions: dict[int, int]

    def matched_at(self, partition_index: int, d: int) -> list[tuple[str, str, int]]:
        """One partition's matches for a query distance ``d <= band``."""
        entries = self.by_partition.get(partition_index)
        if not entries:
            return []
        if d >= self.band:
            return list(entries)
        return [entry for entry in entries if entry[2] <= d]


class NaiveWorkloadMemo:
    """Whole-workload memo of naive-broadcast comparison outcomes.

    Keyed by ``(s, attribute)``: one region comparison at ``band =
    max(d, band)`` serves *every* distance up to the band, so a top-N
    query's iterative-deepening rounds (``d = 0, 1, 2, ...`` over the
    same search string) and a join's repeated probes all reuse a single
    region scan.  The default band matches the workload's maximum top-N
    radius.

    Valid only while the network's stores are unchanged — benchmark
    cells satisfy this (bulk load, then a read-only workload) — and the
    contract is *enforced*: every cached outcome records the scanned
    stores' mutation counters (:attr:`LocalDataStore.version
    <repro.storage.datastore.LocalDataStore>`), and a replay whose
    contacted replicas report any other version recomputes instead of
    answering stale.  Replicas of a partition hold identical data, so
    outcomes are cached per *partition*, making hits independent of
    which replica a broadcast happens to contact.
    """

    #: Default distance band (the workload's ``TOP_N_MAX_DISTANCE``).
    DEFAULT_BAND = 5

    def __init__(self, network, band: int = DEFAULT_BAND):
        self.network = network
        self.band = band
        self._cache: dict[tuple, RegionComparison] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def lookup(self, key: tuple, d: int, contacted: list) -> RegionComparison | None:
        """A cached comparison valid for ``d`` and the contacted peers."""
        comparison = self._cache.get(key)
        if comparison is None or comparison.band < d:
            return None
        versions = comparison.store_versions
        for peer, partition_index in contacted:
            if versions.get(partition_index) != peer.store.version:
                del self._cache[key]
                self.invalidations += 1
                return None
        self.hits += 1
        return comparison

    def store(self, key: tuple, comparison: RegionComparison) -> None:
        self.misses += 1
        self._cache[key] = comparison

    def clear(self) -> None:
        """Drop all cached outcomes (call after any data mutation)."""
        self._cache.clear()

    def invalidate_partitions(self, partitions: set[int]) -> int:
        """Drop cached outcomes whose scanned region touches ``partitions``.

        A region comparison records the store version of every partition
        it scanned; a write mapped to its affected partitions invalidates
        exactly the comparisons that covered one of them — comparisons
        over other attributes' regions survive.  Returns the number of
        cached outcomes dropped.
        """
        stale = [
            key
            for key, comparison in self._cache.items()
            if not partitions.isdisjoint(comparison.store_versions)
        ]
        for key in stale:
            del self._cache[key]
        self.invalidations += len(stale)
        return len(stale)

    def __len__(self) -> int:
        return len(self._cache)


def naive_similar(
    ctx: OperatorContext,
    s: str,
    attribute: str,
    d: int,
    initiator_id: int | None = None,
    verifier: BatchVerifier | None = None,
) -> SimilarResult:
    """Run the naive broadcast variant of ``Similar(s, a, d)``."""
    if d < 0:
        raise ExecutionError(f"similarity distance must be >= 0, got {d}")
    if initiator_id is None:
        initiator_id = ctx.random_initiator()
    schema_level = attribute == ""

    # The region holding the compared strings.
    if schema_level:
        region_prefix = ""  # attribute names occur everywhere
    else:
        region_prefix = ctx.codec.attr_prefix(attribute)

    # Under an active fault injector every query copy is delivered
    # individually with retry/failover.
    faulty = ctx.router.faults_active()

    # Broadcast the query into the region (routed entry + shower forwards).
    peers = ctx.router.multicast_prefix(
        region_prefix, initiator_id, phase="broadcast"
    )
    # The query string travels with every broadcast message; charge its
    # size once per contacted peer on top of the multicast accounting.
    if faulty:
        reached = []
        for peer in peers:
            receiver = ctx.router.send_broadcast_failover(
                initiator_id, peer, QUERY_HEADER_BYTES + len(s),
                phase="broadcast",
            )
            if receiver is not None:
                reached.append(receiver)
        peers = reached
    else:
        ctx.router.tracer.send_bulk(
            MessageType.BROADCAST,
            len(peers),
            len(peers) * (QUERY_HEADER_BYTES + len(s)),
            phase="broadcast",
        )

    contacted = _with_partition_indices(ctx, peers, region_prefix)

    # Local comparison at every contacted peer — computed once per
    # (s, a) region when a workload memo is installed (at the memo's
    # band, so every later distance replays it), recomputed otherwise.
    # A partial (degraded) contact list must never seed the region-wide
    # memo, and replaying a healthy outcome would hide the darkness, so
    # the memo is bypassed entirely while faults are active.
    memo = None if faulty else ctx.naive_memo
    memo_key = (s, attribute)
    comparison = (
        memo.lookup(memo_key, d, contacted) if memo is not None else None
    )
    if comparison is None:
        band = max(d, memo.band) if memo is not None else d
        comparison = _compare_region(
            contacted, s, attribute, band, schema_level, region_prefix,
            _region_verifier(ctx, s, d, band, verifier),
        )
        if memo is not None:
            memo.store(memo_key, comparison)

    # Matching peers return their (oid, value) pairs to the initiator.
    hits: dict[str, tuple[int, str]] = {}
    for peer, partition_index in contacted:
        matched_here = comparison.matched_at(partition_index, d)
        if not matched_here:
            continue
        payload = sum(len(oid) + len(value) + 2 for oid, value, __ in matched_here)
        if not ctx.router.send_result(
            peer.peer_id, initiator_id, payload, phase="broadcast"
        ):
            # Result return lost beyond retries (degraded mode): this
            # peer's matches never reach the initiator.
            ctx.router.record_dropped_candidates(len(matched_here))
            continue
        for oid, value, distance in matched_here:
            previous = hits.get(oid)
            if previous is None or distance < previous[0]:
                hits[oid] = (distance, value)

    result = _assemble_result(ctx, hits, initiator_id, comparison)
    result.extras["region_peers"] = len(peers)
    return result


def _with_partition_indices(ctx, peers, region_prefix: str) -> list:
    """Pair each contacted peer with its partition's index.

    ``multicast_prefix`` contacts exactly one replica per partition, in
    partition order, so a complete contact list aligns with
    ``partitions_under(region_prefix)`` — an O(P) zip instead of one
    oracle bisection per peer.  A DEGRADED broadcast drops the dark
    partitions it could not reach, so its list is shorter and no longer
    aligns; each peer is then looked up with ``partition_for``.
    """
    partitions = ctx.network.partitions_under(region_prefix)
    if len(partitions) == len(peers):
        return [
            (peer, partition.index)
            for peer, partition in zip(peers, partitions)
        ]
    partition_for = ctx.network.partition_for
    return [(peer, partition_for(peer.path).index) for peer in peers]


def _region_verifier(
    ctx: OperatorContext,
    s: str,
    d: int,
    band: int,
    verifier: BatchVerifier | None,
) -> BatchVerifier | None:
    """The verifier a region comparison should use.

    A caller-supplied verifier is only valid at its own distance; banded
    memo computes draw a ``(s, band)`` verifier from the context's shared
    pool when one is installed, and build a fresh one (on the context's
    kernel) otherwise.
    """
    if band == d and verifier is not None:
        return verifier
    return ctx.make_verifier(s, band)


def _compare_region(
    contacted: list,
    s: str,
    attribute: str,
    band: int,
    schema_level: bool,
    region_prefix: str,
    verifier: BatchVerifier | None,
) -> RegionComparison:
    """Compare ``s`` against every contacted peer's local strings.

    The kind view narrows each scan to ``ATTR_VALUE`` entries (each value
    compared exactly once) — instance level additionally bisects to the
    attribute's key region — and one region-wide pass through the batched
    verifier shares DP work across every repeated value.  ``verifier``,
    when given, must have been built for ``(s, band)``.
    """
    if verifier is None:
        verifier = BatchVerifier(s, band)

    compared_by_partition: list[tuple[int, list[tuple[str, str]]]] = []
    store_versions: dict[int, int] = {}
    local_comparisons = 0
    max_peer_comparisons = 0
    for peer, partition_index in contacted:
        compared: list[tuple[str, str]] = []
        local_entries = (
            peer.store.entries_of_kind(EntryKind.ATTR_VALUE)
            if schema_level
            else peer.store.entries_of_kind_prefix(
                EntryKind.ATTR_VALUE, region_prefix
            )
        )
        for entry in local_entries:
            candidate = _comparable_string(entry, attribute, schema_level)
            if candidate is None:
                continue
            compared.append((entry.triple.oid, candidate))
        store_versions[partition_index] = peer.store.version
        local_comparisons += len(compared)
        max_peer_comparisons = max(max_peer_comparisons, len(compared))
        compared_by_partition.append((partition_index, compared))
    distances = verifier.distances(
        candidate
        for __, compared in compared_by_partition
        for __oid, candidate in compared
    )
    by_partition: dict[int, tuple[tuple[str, str, int], ...]] = {}
    for partition_index, compared in compared_by_partition:
        matched_here = tuple(
            (oid, candidate, distances[candidate])
            for oid, candidate in compared
            if distances[candidate] <= band
        )
        if matched_here:
            by_partition[partition_index] = matched_here
    return RegionComparison(
        band=band,
        by_partition=by_partition,
        local_comparisons=local_comparisons,
        max_peer_comparisons=max_peer_comparisons,
        store_versions=store_versions,
    )


def _assemble_result(
    ctx: OperatorContext,
    hits: dict[str, tuple[int, str]],
    initiator_id: int,
    comparison: RegionComparison,
) -> SimilarResult:
    """Batch-fetch complete objects and build the final result."""
    objects = ctx.fetch_objects(
        hits.keys(),
        delegating_peer_id=initiator_id,
        initiator_id=initiator_id,
        phase="oid_lookup",
    )
    matches = []
    for oid, (distance, value) in hits.items():
        triples = objects.get(oid)
        if triples is None:
            continue
        matches.append(
            MatchedObject(oid=oid, matched=value, distance=distance, triples=triples)
        )
    result = SimilarResult(matches=sorted(matches, key=lambda m: (m.distance, m.oid)))
    result.candidates_after_filters = len(hits)
    result.candidates_verified = comparison.local_comparisons
    result.extras["max_peer_comparisons"] = comparison.max_peer_comparisons
    return result


def _comparable_string(entry, attribute: str, schema_level: bool) -> str | None:
    """The string a naive region peer compares for one stored entry.

    Instance level compares each attribute value exactly once, via the
    ``ATTR_VALUE`` entry.  Schema level compares attribute names, also via
    ``ATTR_VALUE`` entries (every triple has one).
    """
    if entry.kind is not EntryKind.ATTR_VALUE:
        return None
    if schema_level:
        return entry.triple.attribute
    if entry.triple.attribute != attribute:
        return None
    value = entry.triple.value
    return value if isinstance(value, str) else None
