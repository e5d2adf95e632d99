"""``Similar(s, a, d, p)`` — Algorithm 2, the paper's core contribution.

Returns every object with an attribute-``a`` value (instance level) or an
attribute *name* (schema level, ``a = ""``) within edit distance ``d`` of
the search string ``s``.

Flow (with both optimizations the paper describes in Section 4):

1. the initiating peer decomposes ``s`` into q-grams — all overlapping
   grams (``QGRAM``) or a ``d+1`` non-overlapping q-sample (``QSAMPLE``);
2. the gram lookups are *batched*: every gram-owning partition is
   contacted once (shower-style ``route_many``), not once per gram;
3. each gram peer scans its gram entries, applies the position and length
   filters (line 8) locally, and *delegates* the surviving candidate oids
   to the oid-owning peers;
4. each oid peer rebuilds the complete object from its ``key(oid)``
   entries, runs the final edit-distance verification (line 23 — possible
   remotely because the delegated query carries ``s`` and ``d``), and
   sends true matches straight back to the initiator.

Completeness: a stored string within distance ``d`` always shares at least
one looked-up gram with compatible position/length (count bound for full
gram sets, the pigeonhole argument for q-samples), so no true match is
missed — property-tested against brute force in the test suite.
"""

from __future__ import annotations

import bisect
import threading
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.core.config import SimilarityStrategy
from repro.core.errors import ExecutionError
from repro.query.operators.base import (
    QUERY_HEADER_BYTES,
    MatchedObject,
    OperatorContext,
)
from repro.similarity.verify import BatchVerifier
from repro.storage.indexing import EntryKind, IndexEntry
from repro.storage.qgrams import (
    PositionalQGram,
    guaranteed_complete,
    positional_qgrams,
    qgram_sample,
)


@dataclass
class SimilarResult:
    """Matches plus the operator's internal tallies (for diagnostics)."""

    matches: list[MatchedObject]
    grams_looked_up: int = 0
    candidates_after_filters: int = 0
    candidates_verified: int = 0
    gram_partitions_contacted: int = 0
    duplicate_delegations: int = 0
    extras: dict[str, int] = field(default_factory=dict)


class GramScanMemo:
    """Whole-workload memo of gram-peer candidate scans.

    A gram peer's step-3 work — scan the posting list of one gram key,
    keep entries whose gram text/attribute match, admit those passing
    the position/length filters — is deterministic given the stored data
    and the query gram occurrences, and the filters are *threshold*
    tests: an entry is admitted at distance ``d`` iff ``d >=`` the
    entry's minimal admitting distance (the largest active position/
    length gap, minimized over the query gram's occurrences).  The memo
    therefore caches, per ``(partition, key, occurrences, filters)``
    signature, the posting entries sorted by that minimal distance;
    replaying any query distance is a bisect plus a slice, independent
    of how many postings the filters would have rejected.

    Like :class:`~repro.query.operators.naive.NaiveWorkloadMemo`, this
    is valid only while stores are unchanged (benchmark cells), is
    keyed per partition (replicas store identical data), and is
    *cost-transparent*: delegation/result messages do not depend on how
    candidates were computed, so measured series are bit-identical with
    the memo on or off.  The static-store contract is enforced: every
    cached scan records the store's mutation counter and is recomputed
    when the contacted replica reports any other version.

    Cache probes, inserts, invalidations and counters are guarded by a
    lock, so the memo stays consistent when one engine is driven from
    more than one thread (a service reads its counters on the event
    loop while the engine thread runs queries).  The posting scan runs
    outside the lock: it is pure, so a racing duplicate compute would
    be benign.
    """

    def __init__(self, network):
        self.network = network
        self._cache: dict[tuple, tuple[int, list[int], list[str]]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def candidate_oids(
        self,
        peer,
        partition_index: int,
        key: str,
        occurrences: list[PositionalQGram],
        attribute: str,
        schema_level: bool,
        d: int,
        filters,
    ) -> list[str]:
        """Oids this gram peer delegates for one looked-up key at ``d``."""
        signature = (
            partition_index,
            key,
            attribute,
            schema_level,
            tuple((g.gram, g.position, g.source_length) for g in occurrences),
            filters.use_position,
            filters.use_length,
        )
        with self._lock:
            scan = self._cache.get(signature)
            if scan is not None and scan[0] != peer.store.version:
                self.invalidations += 1
                scan = None
            if scan is not None:
                self.hits += 1
        if scan is None:
            scan = self._scan(
                peer, key, occurrences, attribute, schema_level, filters
            )
            with self._lock:
                self.misses += 1
                self._cache[signature] = scan
        __, min_distances, oids = scan
        return oids[: bisect.bisect_right(min_distances, d)]

    def _scan(self, peer, key, occurrences, attribute, schema_level, filters):
        """Postings of ``key`` as (store version, sorted minimal
        distances, aligned oids)."""
        use_position = filters.use_position
        use_length = filters.use_length
        admitted: list[tuple[int, str]] = []
        for entry in peer.store.lookup(key):
            if not _entry_matches(entry, attribute, occurrences[0], schema_level):
                continue
            stored = _entry_gram(entry)
            minimal: int | None = None
            for occurrence in occurrences:
                needed = 0
                if use_position:
                    needed = abs(occurrence.position - stored.position)
                if use_length:
                    gap = abs(occurrence.source_length - stored.source_length)
                    if gap > needed:
                        needed = gap
                if minimal is None or needed < minimal:
                    minimal = needed
            if minimal is not None:
                admitted.append((minimal, entry.triple.oid))
        admitted.sort(key=lambda pair: pair[0])
        return (
            peer.store.version,
            [pair[0] for pair in admitted],
            [pair[1] for pair in admitted],
        )

    def clear(self) -> None:
        """Drop all cached scans (call after any data mutation)."""
        with self._lock:
            self._cache.clear()

    def invalidate_partitions(self, partitions: set[int]) -> int:
        """Drop cached scans of the given partitions only.

        Cache signatures lead with the partition index, so a write mapped
        to its affected key partitions (the engine's delta-maintenance
        path) surgically removes exactly the scans that write could have
        changed.  Returns the number of entries dropped.
        """
        with self._lock:
            stale = [sig for sig in self._cache if sig[0] in partitions]
            for sig in stale:
                del self._cache[sig]
            self.invalidations += len(stale)
        return len(stale)

    def __len__(self) -> int:
        return len(self._cache)


def _gram_candidates(
    ctx: OperatorContext,
    peer,
    keys: list[str],
    gram_keys: dict[str, list[PositionalQGram]],
    attribute: str,
    schema_level: bool,
    d: int,
    scan_memo: GramScanMemo | None,
) -> set[str]:
    """One gram peer's step-3 scan: the oids it would delegate at ``d``.

    Pure per-peer work: read-only store scans, no tracer charges, no RNG
    draws.
    """
    candidate_oids: set[str] = set()
    partition_index = (
        ctx.network.partition_for(peer.path).index
        if scan_memo is not None
        else -1
    )
    for key in keys:
        occurrences = gram_keys[key]
        if scan_memo is not None:
            candidate_oids.update(
                scan_memo.candidate_oids(
                    peer, partition_index, key, occurrences,
                    attribute, schema_level, d, ctx.filters,
                )
            )
            continue
        for entry in peer.store.lookup(key):
            if not _entry_matches(entry, attribute, occurrences[0], schema_level):
                continue
            stored = _entry_gram(entry)
            if not any(
                ctx.filters.admits(occurrence, stored, d)
                for occurrence in occurrences
            ):
                continue
            candidate_oids.add(entry.triple.oid)
    return candidate_oids


def similar(
    ctx: OperatorContext,
    s: str,
    attribute: str,
    d: int,
    initiator_id: int | None = None,
    strategy: SimilarityStrategy | None = None,
    verifier: BatchVerifier | None = None,
) -> SimilarResult:
    """Run ``Similar(s, a, d)`` from ``initiator_id``.

    ``attribute = ""`` switches to the schema level (the paper's
    ``a == ""`` branch, line 2): candidates are attribute names instead of
    values.  The strategy defaults to the context's configured one; the
    ``NAIVE`` baseline lives in :mod:`repro.query.operators.naive` and is
    dispatched transparently.  Callers running many probes for the same
    query (joins, iterative deepening) can pass a shared ``verifier`` so
    its memo survives across probes; it must be built for ``(s, d)``.
    """
    if d < 0:
        raise ExecutionError(f"similarity distance must be >= 0, got {d}")
    chosen = strategy if strategy is not None else ctx.strategy
    if chosen is SimilarityStrategy.ADAPTIVE:
        # Cost-based resolution: predict each physical strategy's cost,
        # dispatch the cheapest, and record predicted-vs-actual on the
        # decision (picked up by the executor's / workload's CostReport).
        decision = ctx.decide_strategy(s, attribute, d)
        tracer = ctx.network.tracer
        before = tracer.snapshot()
        result = similar(
            ctx, s, attribute, d, initiator_id,
            strategy=decision.chosen, verifier=verifier,
        )
        delta = before.delta(tracer.snapshot())
        decision.record_actual(delta.messages, delta.payload_bytes)
        result.extras["adaptive"] = 1
        return result
    outside_guarantee = not guaranteed_complete(len(s), ctx.config.q, d)
    if chosen is SimilarityStrategy.NAIVE or (
        ctx.config.strict_completeness and outside_guarantee
    ):
        from repro.query.operators.naive import naive_similar

        return naive_similar(ctx, s, attribute, d, initiator_id, verifier=verifier)
    if initiator_id is None:
        initiator_id = ctx.random_initiator()
    if verifier is None:
        verifier = ctx.make_verifier(s, d)

    schema_level = attribute == ""
    query_grams = _decompose(s, ctx.config.q, d, chosen)
    gram_keys = _gram_keys(ctx, attribute, query_grams, schema_level)

    # Step 2: batched routing — each gram partition contacted once.
    answers = ctx.router.route_many(gram_keys.keys(), initiator_id, phase="gram_lookup")
    result = SimilarResult(matches=[])
    result.grams_looked_up = len(query_grams)
    contacted: dict[int, list[str]] = defaultdict(list)
    for key, peer in answers.items():
        contacted[peer.peer_id].append(key)
    result.gram_partitions_contacted = len(contacted)

    # Step 3: per gram peer — local filtering, then delegation.  With a
    # workload memo installed, each (partition, key, occurrences) posting
    # scan is computed once and every later distance replays a bisect.
    scan_memo = ctx.gram_scan_memo
    matches: dict[str, MatchedObject] = {}
    seen_partitions: set[tuple[int, str]] = set()
    all_delegated: set[str] = set()
    delegated_total = 0
    for peer_id, keys in sorted(contacted.items()):
        peer = ctx.network.peer(peer_id)
        if not ctx.router.send_delegate(
            initiator_id,
            peer_id,
            QUERY_HEADER_BYTES
            + sum(len(g.gram) for k in keys for g in gram_keys[k]),
            phase="gram_lookup",
        ):
            # Delegation lost beyond retries (degraded mode): this gram
            # peer never scans, so its keys contribute no candidates.
            ctx.router.record_dropped_candidates(len(keys))
            continue
        candidate_oids = _gram_candidates(
            ctx, peer, keys, gram_keys, attribute, schema_level, d, scan_memo
        )
        if not candidate_oids:
            continue
        result.candidates_after_filters += len(candidate_oids)
        delegated_total += len(candidate_oids)
        all_delegated.update(candidate_oids)
        objects = ctx.fetch_objects(
            candidate_oids,
            delegating_peer_id=peer_id,
            initiator_id=initiator_id,
            phase="oid_lookup",
            query_bytes=QUERY_HEADER_BYTES + len(s),
            seen_partitions=seen_partitions,
        )
        # Final verification (line 23), batched: every candidate string of
        # this delegation group goes through one shared-prefix DP pass.
        fresh = [
            (oid, triples)
            for oid, triples in objects.items()
            if oid not in matches
        ]
        verifier.distances(
            [
                candidate
                for __, triples in fresh
                for candidate in _candidate_strings(triples, attribute, schema_level)
            ]
        )
        for oid, triples in fresh:
            match = _verify(verifier, attribute, oid, triples, schema_level)
            result.candidates_verified += 1
            if match is not None:
                matches[oid] = match
    result.duplicate_delegations = delegated_total - len(all_delegated)
    result.matches = sorted(matches.values(), key=lambda m: (m.distance, m.oid))
    return result


def _decompose(
    s: str, q: int, d: int, strategy: SimilarityStrategy
) -> list[PositionalQGram]:
    if strategy is SimilarityStrategy.QGRAM:
        return positional_qgrams(s, q)
    if strategy is SimilarityStrategy.QSAMPLE:
        return qgram_sample(s, q, d)
    raise ExecutionError(f"unsupported gram strategy: {strategy}")


def _gram_keys(
    ctx: OperatorContext,
    attribute: str,
    grams: list[PositionalQGram],
    schema_level: bool,
) -> dict[str, list[PositionalQGram]]:
    """Map DHT keys to the query gram occurrence(s) they look up.

    A gram text occurring at several positions of ``s`` maps to a single
    key but keeps every position: the position filter admits a candidate
    if *any* occurrence is compatible — collapsing to one position could
    wrongly reject a true match and break the no-false-negative guarantee.
    """
    keys: dict[str, list[PositionalQGram]] = defaultdict(list)
    for gram in grams:
        if schema_level:
            key = ctx.codec.schema_gram_key(gram.gram)
        else:
            key = ctx.codec.attr_value_key(attribute, gram.gram)
        keys[key].append(gram)
    return dict(keys)


def _entry_matches(
    entry: IndexEntry,
    attribute: str,
    query_gram: PositionalQGram,
    schema_level: bool,
) -> bool:
    """Does a stored entry belong to this query's gram lookup?

    Composite keys can collide across attributes (the attribute prefix is
    truncated), so gram peers verify the entry's attribute and gram text —
    the paper's peers likewise "compare the queried string to the data
    available locally".
    """
    if schema_level:
        return entry.kind is EntryKind.SCHEMA_GRAM and entry.gram == query_gram.gram
    return (
        entry.kind is EntryKind.INSTANCE_GRAM
        and entry.gram == query_gram.gram
        and entry.triple.attribute == attribute
    )


def _entry_gram(entry: IndexEntry) -> PositionalQGram:
    """Positional gram view of a stored gram entry."""
    return PositionalQGram(entry.gram or "", entry.position, entry.source_length)


def _candidate_strings(
    triples: tuple, attribute: str, schema_level: bool
) -> Iterator[str]:
    """The strings one object submits to final verification, in order."""
    for triple in triples:
        if schema_level:
            yield triple.attribute
        elif triple.attribute == attribute and isinstance(triple.value, str):
            yield triple.value


def _verify(
    verifier: BatchVerifier,
    attribute: str,
    oid: str,
    triples: tuple,
    schema_level: bool,
) -> MatchedObject | None:
    """Final edit-distance verification at the oid peer (line 23)."""
    d = verifier.d
    best: tuple[int, str] | None = None
    for candidate in _candidate_strings(triples, attribute, schema_level):
        distance = verifier.distance(candidate)
        if distance <= d and (best is None or distance < best[0]):
            best = (distance, candidate)
    if best is None:
        return None
    return MatchedObject(oid=oid, matched=best[1], distance=best[0], triples=triples)
