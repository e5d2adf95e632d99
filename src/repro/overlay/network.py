"""The P-Grid network: peers, partitions, construction, and data placement.

:class:`PGridNetwork` is the simulator's root object.  Building one

1. carves the key space into partitions (uniform or data-aware trie),
2. creates ``replication`` peers per partition and wires their replica
   references,
3. fills every peer's routing table with ``refs_per_level`` random
   references into the complementary subtrie at each level (the
   small-world construction of Section 2),
4. and bulk-places index entries onto the peers responsible for them.

The network owns the :class:`MessageTracer` so every router/operator built
on top of it shares one cost ledger.
"""

from __future__ import annotations

import bisect
import random
from collections.abc import Iterable, Sequence

from repro.core.config import StoreConfig, TrieBalancing
from repro.core.errors import OverlayError
from repro.overlay import keys as keyspace
from repro.overlay import trie
from repro.overlay.faults import FaultInjector, FaultMode, FaultPlan, RetryPolicy
from repro.overlay.hashing import CompositeKeyCodec
from repro.overlay.messages import MessageTracer
from repro.overlay.peer import Peer
from repro.overlay.routing import Partition, Router
from repro.storage.indexing import EntryFactory, IndexEntry
from repro.storage.triple import Triple


class PGridNetwork:
    """A complete simulated P-Grid overlay."""

    def __init__(
        self,
        n_peers: int,
        config: StoreConfig | None = None,
        sample_keys: Sequence[str] | None = None,
        tracer: MessageTracer | None = None,
    ):
        """Build a network of ``n_peers``.

        ``sample_keys`` feeds the data-aware trie builder; pass the keys of
        the data you are about to insert (or a sample of them) to get
        P-Grid-style load balancing.  Omitting it — or selecting
        ``TrieBalancing.UNIFORM`` — produces an evenly split trie.
        """
        if n_peers < 1:
            raise OverlayError(f"need at least one peer, got {n_peers}")
        self.config = config if config is not None else StoreConfig()
        self.tracer = tracer if tracer is not None else MessageTracer()
        self.codec = CompositeKeyCodec(self.config)
        self.entry_factory = EntryFactory(self.config, self.codec)
        self.rng = random.Random(self.config.seed)

        k = self.config.replication
        n_partitions = max(1, n_peers // k)
        if self.config.balancing is TrieBalancing.DATA_AWARE and sample_keys:
            paths = trie.data_aware_paths(
                n_partitions, sample_keys, self.config.key_bits
            )
        else:
            paths = trie.uniform_paths(n_partitions)
        paths.sort()
        trie.validate_cover(paths)
        self._paths = paths
        self.max_depth = max(len(p) for p in paths)
        if self.max_depth > self.config.key_bits:
            raise OverlayError(
                f"trie depth {self.max_depth} exceeds key width "
                f"{self.config.key_bits}; increase key_bits"
            )

        self.peers: list[Peer] = []
        self.partitions: list[Partition] = []
        for index, path in enumerate(paths):
            peer_ids = []
            for __ in range(k):
                peer = Peer(len(self.peers), path)
                self.peers.append(peer)
                peer_ids.append(peer.peer_id)
            self.partitions.append(Partition(index, path, peer_ids))
            for peer_id in peer_ids:
                self.peers[peer_id].replicas = [
                    other for other in peer_ids if other != peer_id
                ]
        self._build_routing_tables()
        #: Transport fault injection (None, or an injector whose no-op
        #: plan keeps it inactive, leaves the delivery path untouched).
        self.fault_injector: FaultInjector | None = None
        #: How unrecoverable delivery failures surface: STRICT raises,
        #: DEGRADED skips dark partitions and records partial coverage.
        self.fault_mode: FaultMode = FaultMode.STRICT
        self.router = Router(self, random.Random(self.config.seed + 1))

    # -- construction ---------------------------------------------------------

    def _build_routing_tables(self) -> None:
        """Wire ``refs_per_level`` random references per peer and level.

        Candidate partitions under a sibling prefix form a contiguous run
        of the sorted path list, so each reference is drawn directly from
        the bisected index span — O(log P) per level instead of
        materializing the whole complementary subtrie (O(P) at the top
        level, which made construction O(N·P) and dominated per-cell
        rebuild cost in sweeps).  The RNG consumption is draw-for-draw
        identical to :meth:`_build_routing_tables_scan`, the retained
        reference implementation, so the resulting tables — and therefore
        every measured message series — are bit-identical (pinned by
        equivalence tests).
        """
        refs_per_level = self.config.refs_per_level
        rng = self.rng
        partitions = self.partitions
        for peer in self.peers:
            path = peer.path
            for level in range(len(path)):
                sibling = keyspace.sibling_prefix(path, level)
                lo, hi = self._partition_span(sibling)
                count = hi - lo
                if count <= 0:
                    raise OverlayError(
                        f"complementary subtrie {sibling!r} is empty — "
                        "the trie cover is broken"
                    )
                refs: list[int] = []
                for __ in range(min(refs_per_level, count)):
                    partition = partitions[lo + rng.randrange(count)]
                    replica = partition.peer_ids[
                        rng.randrange(len(partition.peer_ids))
                    ]
                    refs.append(replica)
                peer.set_references(level, refs)

    def _build_routing_tables_scan(self) -> None:
        """Reference routing construction: materialized candidate lists.

        The original O(N·P) implementation, kept — like the datastore's
        ``lookup_scan`` — so tests can assert the fast span-sampling
        construction produces identical tables from an identical RNG
        state.  To rebuild with it, reset ``self.rng`` to
        ``random.Random(config.seed)`` first.
        """
        refs_per_level = self.config.refs_per_level
        for peer in self.peers:
            for level in range(len(peer.path)):
                sibling = keyspace.sibling_prefix(peer.path, level)
                candidates = self._partition_range_scan(sibling)
                if not candidates:
                    raise OverlayError(
                        f"complementary subtrie {sibling!r} is empty — "
                        "the trie cover is broken"
                    )
                refs: list[int] = []
                for __ in range(min(refs_per_level, len(candidates))):
                    partition = candidates[self.rng.randrange(len(candidates))]
                    replica = partition.peer_ids[
                        self.rng.randrange(len(partition.peer_ids))
                    ]
                    refs.append(replica)
                peer.set_references(level, refs)

    # -- transport faults --------------------------------------------------------

    def install_faults(
        self, plan: FaultPlan, policy: RetryPolicy | None = None
    ) -> FaultInjector:
        """Install a fault injector for ``plan`` on the delivery path.

        A no-op plan installs an *inactive* injector: the router bypasses
        it entirely and the measured series stay bit-identical (pinned by
        property tests).  Returns the injector for session inspection.
        """
        self.fault_injector = FaultInjector(plan, policy)
        return self.fault_injector

    def clear_faults(self) -> None:
        """Remove any installed fault injector (healthy transport)."""
        self.fault_injector = None

    # -- oracle lookups (no message cost; used for placement & simulation) -----

    def peer(self, peer_id: int) -> Peer:
        return self.peers[peer_id]

    def partition(self, index: int) -> Partition:
        return self.partitions[index]

    @property
    def n_peers(self) -> int:
        return len(self.peers)

    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    def partition_for(self, key: str) -> Partition:
        """The partition responsible for ``key`` (oracle bisection)."""
        index = trie.find_responsible(self._paths, key)
        return self.partitions[index]

    def partitions_under(self, prefix: str) -> list[Partition]:
        """All partitions whose path extends (or equals/prefixes) ``prefix``."""
        return self._partition_range(prefix)

    def partitions_in_range(self, lo_int: int, hi_int: int) -> list[Partition]:
        """Partitions intersecting an integer key interval, in key order."""
        bits = self.config.key_bits
        result = []
        for partition in self.partitions:
            if keyspace.interval_overlaps_prefix(lo_int, hi_int, partition.path, bits):
                result.append(partition)
        return result

    def _partition_span(self, prefix: str) -> tuple[int, int]:
        """Index range ``[lo, hi)`` of the partitions covered by ``prefix``.

        Paths are sorted and prefix-free, so every path extending
        ``prefix`` sits in one contiguous run bounded by ``prefix`` and
        its binary successor.  An empty run whose left neighbour *covers*
        the prefix (the prefix is inside a single coarser partition)
        yields that neighbour as a one-element span.
        """
        paths = self._paths
        lo = bisect.bisect_left(paths, prefix)
        # Binary successor: strip trailing '1's, flip the final '0'.
        stripped = prefix.rstrip("1")
        if stripped:
            hi = bisect.bisect_left(paths, stripped[:-1] + "1")
        else:
            hi = len(paths)
        if lo == hi and lo > 0 and prefix.startswith(paths[lo - 1]):
            return lo - 1, lo
        return lo, hi

    def _partition_range(self, prefix: str) -> list[Partition]:
        """Partitions covered by ``prefix`` (contiguous span of the cover)."""
        lo, hi = self._partition_span(prefix)
        return self.partitions[lo:hi]

    def _partition_range_scan(self, prefix: str) -> list[Partition]:
        """Reference implementation of :meth:`_partition_range`.

        Linear startswith scan from the bisection point; kept so property
        tests can pin span == scan on arbitrary tries.
        """
        lo = bisect.bisect_left(self._paths, prefix)
        result: list[Partition] = []
        index = lo
        while index < len(self._paths) and self._paths[index].startswith(prefix):
            result.append(self.partitions[index])
            index += 1
        if not result and lo > 0 and prefix.startswith(self._paths[lo - 1]):
            # The prefix is *inside* a single coarser partition.
            result.append(self.partitions[lo - 1])
        return result

    # -- data placement ----------------------------------------------------------

    def insert_triples(
        self, triples: Iterable[Triple], respect_online: bool = False
    ) -> int:
        """Index and place triples; returns the number of entries stored.

        Placement is done with the oracle (no routed insert messages): the
        paper's evaluation measures *query* cost, with publishing treated
        as an offline bulk load.  :meth:`estimate_insert_messages` prices
        the online publishing cost analytically.

        ``respect_online`` skips offline replicas — the churn setting,
        where an insert while a replica is down leaves that replica
        divergent until :func:`~repro.overlay.replication.repair_partition`
        runs anti-entropy.  The default writes every replica (bulk-load
        semantics, unchanged).
        """
        per_partition: dict[int, list[IndexEntry]] = {}
        count = 0
        for entry in self.entry_factory.entries_for_all(triples):
            index = trie.find_responsible(self._paths, entry.key)
            per_partition.setdefault(index, []).append(entry)
            count += 1
        for index, entries in per_partition.items():
            for peer_id in self.partitions[index].peer_ids:
                peer = self.peers[peer_id]
                if respect_online and not peer.online:
                    continue
                peer.store.add_bulk(entries)
        return count

    def place_entries(self, entries: Sequence[IndexEntry]) -> int:
        """Bulk-place pre-built index entries sorted by key.

        The sweep fast path: entry derivation (q-gram decomposition, key
        hashing) happens once per dataset via
        :class:`EntryFactory`; each network re-places the same entry list
        with a single merge walk over its sorted trie paths — O(E + P)
        partition assignment instead of O(E log P) per-entry bisection,
        and no re-tokenization.  ``entries`` must be sorted by ``key``
        (ties in any order); placement is oracle-based exactly like
        :meth:`insert_triples`.  Returns the number of entries placed.
        """
        paths = self._paths
        n_partitions = len(paths)
        index = 0
        buffer: list[IndexEntry] = []
        count = 0

        def flush(partition_index: int) -> None:
            if not buffer:
                return
            for peer_id in self.partitions[partition_index].peer_ids:
                self.peers[peer_id].store.add_bulk(buffer)
            buffer.clear()

        for entry in entries:
            key = entry.key
            if not key.startswith(paths[index]) or (
                index + 1 < n_partitions and paths[index + 1] <= key
            ):
                advanced = index
                while advanced + 1 < n_partitions and paths[advanced + 1] <= key:
                    advanced += 1
                if not key.startswith(paths[advanced]):
                    # Out-of-order or prefix key: fall back to the oracle.
                    advanced = trie.find_responsible(paths, key)
                if advanced != index:
                    flush(index)
                    index = advanced
            buffer.append(entry)
            count += 1
        flush(index)
        return count

    def apply_entries(
        self,
        entries: Sequence[IndexEntry],
        respect_online: bool = False,
        remove: bool = False,
    ) -> tuple[int, set[int]]:
        """Add (or remove) pre-built entries; report affected partitions.

        The write primitive of the engine's explicit mutation path:
        entries are grouped by responsible partition, applied to every
        (optionally only online) replica, and the set of touched
        partition indices comes back so the caller can invalidate exactly
        those partitions' memo entries and statistics.  ``remove=True``
        deletes instead of adding; a removal only counts when at least
        one contacted replica actually stored the entry (deleting absent
        data is a no-op that touches nothing).  Returns ``(applied,
        affected_partition_indices)``.
        """
        per_partition: dict[int, list[IndexEntry]] = {}
        for entry in entries:
            index = trie.find_responsible(self._paths, entry.key)
            per_partition.setdefault(index, []).append(entry)
        applied = 0
        affected: set[int] = set()
        for index, partition_entries in per_partition.items():
            touched = False
            if remove:
                for entry in partition_entries:
                    removed_here = False
                    for peer_id in self.partitions[index].peer_ids:
                        peer = self.peers[peer_id]
                        if respect_online and not peer.online:
                            continue
                        if peer.store.remove(entry):
                            removed_here = True
                    if removed_here:
                        applied += 1
                        touched = True
            else:
                for peer_id in self.partitions[index].peer_ids:
                    peer = self.peers[peer_id]
                    if respect_online and not peer.online:
                        continue
                    peer.store.add_bulk(partition_entries)
                    touched = True
                if touched:
                    applied += len(partition_entries)
            if touched:
                affected.add(index)
        return applied, affected

    def insert_entry(self, entry: IndexEntry, respect_online: bool = False) -> None:
        """Place one pre-built index entry (incremental insertion)."""
        partition = self.partition_for(entry.key)
        for peer_id in partition.peer_ids:
            peer = self.peers[peer_id]
            if respect_online and not peer.online:
                continue
            peer.store.add(entry)

    def publish_triple(self, triple: Triple, publisher_id: int) -> int:
        """Online, routed publication of one triple's index entries.

        Models what inserting data over the live overlay costs — the
        overhead the paper's conclusion weighs ("the overhead of
        additional overlay messages ... is linear in the number of
        attribute columns"): the publisher batches the triple's entry
        keys, contacts each responsible partition once (routed walk +
        shower forwards), ships the entry payloads, and each partition
        fans out to its replicas.  Returns the number of messages spent;
        entries are actually stored, so the data is queryable afterwards.
        """
        entries = list(self.entry_factory.entries_for(triple))
        before = self.tracer.message_count
        answers = self.router.route_many(
            (entry.key for entry in entries), publisher_id, phase="publish"
        )
        by_partition: dict[int, list[IndexEntry]] = {}
        for entry in entries:
            peer = answers[entry.key]
            by_partition.setdefault(self.partition_for(peer.path).index, []).append(
                entry
            )
        from repro.overlay.messages import MessageType

        for index, partition_entries in by_partition.items():
            partition = self.partitions[index]
            payload = sum(e.payload_size() for e in partition_entries)
            receiver = partition.peer_ids[0]
            self.tracer.send(
                MessageType.RESULT, publisher_id, receiver, payload, phase="publish"
            )
            for peer_id in partition.peer_ids:
                self.peers[peer_id].store.add_bulk(partition_entries)
                if peer_id != receiver:
                    self.tracer.send(
                        MessageType.FORWARD, receiver, peer_id, payload,
                        phase="publish",
                    )
        return self.tracer.message_count - before

    def publish_triples(self, triples: Iterable[Triple], publisher_id: int) -> int:
        """Routed publication of many triples; returns total messages."""
        return sum(self.publish_triple(t, publisher_id) for t in triples)

    def estimate_insert_messages(self, triples: Iterable[Triple]) -> int:
        """Messages an online, routed publish of ``triples`` would cost.

        Each index entry requires one routed walk of expected
        ``0.5 * log2(n_partitions)`` hops (Section 2), times the
        replication factor for the final delivery.
        """
        import math

        entries = sum(1 for __ in self.entry_factory.entries_for_all(triples))
        expected_hops = 0.5 * math.log2(max(2, self.n_partitions))
        return int(entries * (expected_hops + (self.config.replication - 1)))

    # -- diagnostics ------------------------------------------------------------

    def load_distribution(self) -> list[int]:
        """Entries stored per peer (load-balance diagnostic)."""
        return [len(peer.store) for peer in self.peers]

    def random_peer_id(self, rng: random.Random | None = None) -> int:
        """Uniformly random online peer id (query initiators).

        Probes ``2 * n_peers`` random ids first (the draws every healthy
        measured series was taken with), then falls back to a uniform
        choice among the online peers, so a mostly-offline network still
        yields an initiator.  Raises only when no peer is online.
        """
        chooser = rng if rng is not None else self.rng
        for __ in range(self.n_peers * 2):
            candidate = chooser.randrange(self.n_peers)
            if self.peers[candidate].online:
                return candidate
        online = [index for index, peer in enumerate(self.peers) if peer.online]
        if not online:
            raise OverlayError("could not find an online peer")
        return chooser.choice(online)

    def total_entries(self) -> int:
        """Total index entries across all peers (replicas counted)."""
        return sum(len(peer.store) for peer in self.peers)

    def total_payload_bytes(self) -> int:
        """Total stored payload bytes across all peers (cached per store)."""
        return sum(peer.store.total_payload_bytes() for peer in self.peers)

    def store_version_token(self) -> int:
        """Sum of all peers' store mutation counters.

        Store versions only ever increase, so the sum is a monotone
        network-wide mutation token: equality with an earlier reading
        proves no peer's store changed in between.  The
        :class:`~repro.engine.QueryEngine` compares it to decide when its
        whole-workload memos must be dropped.
        """
        return sum(peer.store.version for peer in self.peers)
