"""Unit tests for network construction and data placement."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import StoreConfig, TrieBalancing
from repro.core.errors import OverlayError
from repro.overlay.network import PGridNetwork
from repro.storage.triple import Triple

from tests.conftest import TEXT_ATTR, WORDS, build_word_network, word_triples


class TestConstruction:
    def test_peer_count(self):
        network = PGridNetwork(24, StoreConfig(seed=1))
        assert network.n_peers == 24

    def test_replication_splits_partitions(self):
        network = PGridNetwork(24, StoreConfig(seed=1, replication=3))
        assert network.n_partitions == 8
        assert all(len(p.peer_ids) == 3 for p in network.partitions)

    def test_replica_references_wired(self):
        network = PGridNetwork(8, StoreConfig(seed=1, replication=2))
        for partition in network.partitions:
            for peer_id in partition.peer_ids:
                peer = network.peer(peer_id)
                assert set(peer.replicas) == set(partition.peer_ids) - {peer_id}

    def test_routing_tables_cover_all_levels(self):
        network = build_word_network(n_peers=32)
        for peer in network.peers:
            assert len(peer.routing_table) == len(peer.path)
            for level, refs in enumerate(peer.routing_table):
                assert refs, f"peer {peer.peer_id} level {level} empty"

    def test_routing_references_point_to_complement(self):
        from repro.overlay import keys as keyspace

        network = build_word_network(n_peers=32)
        for peer in network.peers[::5]:
            for level in range(len(peer.path)):
                sibling = keyspace.sibling_prefix(peer.path, level)
                for ref in peer.references(level):
                    assert network.peer(ref).path.startswith(sibling)

    def test_uniform_balancing_option(self):
        config = StoreConfig(seed=1, balancing=TrieBalancing.UNIFORM)
        network = PGridNetwork(16, config, sample_keys=["0" * 32] * 100)
        depths = {len(p.path) for p in network.partitions}
        assert depths == {4}

    def test_rejects_zero_peers(self):
        with pytest.raises(OverlayError):
            PGridNetwork(0, StoreConfig(seed=1))

    def test_deterministic_given_seed(self):
        a = build_word_network(n_peers=16, config=StoreConfig(seed=3))
        b = build_word_network(n_peers=16, config=StoreConfig(seed=3))
        assert [p.path for p in a.partitions] == [p.path for p in b.partitions]
        assert a.peers[5].routing_table == b.peers[5].routing_table


class TestDataPlacement:
    def test_entries_placed_on_responsible_peers(self):
        network = build_word_network()
        for peer in network.peers:
            for entry in peer.store:
                assert entry.key.startswith(peer.path)

    def test_insert_returns_entry_count(self):
        network = PGridNetwork(8, StoreConfig(seed=2))
        count = network.insert_triples(word_triples())
        assert count == network.total_entries()
        assert count > len(WORDS) * 3  # base entries plus grams

    def test_replication_duplicates_entries(self):
        config = StoreConfig(seed=2, replication=2)
        single = PGridNetwork(8, StoreConfig(seed=2))
        single.insert_triples(word_triples())
        replicated = PGridNetwork(16, config)
        replicated.insert_triples(word_triples())
        assert replicated.total_entries() == 2 * single.total_entries()

    def test_incremental_insert(self):
        network = build_word_network()
        triple = Triple("w:9999", TEXT_ATTR, "quince")
        for entry in network.entry_factory.entries_for(triple):
            network.insert_entry(entry)
        key = network.codec.attr_value_key(TEXT_ATTR, "quince")
        entries, __ = network.router.retrieve(key, 0)
        assert any(e.triple.value == "quince" for e in entries)

    def test_load_balance_with_data_aware_trie(self):
        # Schema-gram entries of a single-attribute corpus all share a
        # handful of identical keys — an indivisible hotspot no trie split
        # can balance (see EXPERIMENTS.md).  Balance is therefore asserted
        # on the divisible index families only.  Enough peers are needed
        # for the attribute-region sliver to amortize its ~attr_bits
        # forced empty-sibling leaves (a complete-trie constraint).
        config = StoreConfig(seed=7, index_schema_grams=False)
        network = build_word_network(n_peers=64, config=config)
        loads = network.load_distribution()
        mean = sum(loads) / len(loads)
        assert max(loads) <= 6 * mean

    def test_schema_gram_hotspot_is_real(self):
        # The complementary fact: with schema grams on, the single shared
        # attribute name concentrates one entry per triple on a few keys.
        network = build_word_network(n_peers=16, config=StoreConfig(seed=7))
        loads = network.load_distribution()
        mean = sum(loads) / len(loads)
        assert max(loads) > 3 * mean

    def test_estimate_insert_messages_positive(self):
        network = build_word_network(n_peers=16)
        estimate = network.estimate_insert_messages(word_triples()[:4])
        assert estimate > 0


class TestOracles:
    def test_partition_for_matches_paths(self):
        network = build_word_network()
        key = network.codec.attr_value_key(TEXT_ATTR, "apple")
        partition = network.partition_for(key)
        assert key.startswith(partition.path)

    def test_partitions_under_root_is_all(self):
        network = build_word_network()
        assert len(network.partitions_under("")) == network.n_partitions

    def test_partitions_under_deep_prefix_inside_partition(self):
        network = build_word_network()
        partition = network.partitions[0]
        deep = partition.path + "0" * 3
        found = network.partitions_under(deep)
        assert found == [partition]

    def test_partitions_in_range_ordered_and_covering(self):
        network = build_word_network()
        bits = network.config.key_bits
        partitions = network.partitions_in_range(0, (1 << bits) - 1)
        assert len(partitions) == network.n_partitions

    def test_random_peer_id_skips_offline(self):
        network = build_word_network(n_peers=16)
        for peer in network.peers[1:]:
            peer.online = False
        try:
            assert network.random_peer_id() == 0
        finally:
            for peer in network.peers:
                peer.online = True

    def test_random_peer_id_falls_back_after_bounded_probe(self):
        class OfflineProbes(random.Random):
            """Every probe lands on peer 1; ``choice`` stays uniform."""

            def randrange(self, *args, **kwargs):
                return 1

        network = build_word_network(n_peers=16)
        network.peers[1].online = False
        network.peers[7].online = False
        online = {p.peer_id for p in network.peers if p.online}
        chooser = OfflineProbes(3)
        picks = {network.random_peer_id(chooser) for __ in range(40)}
        assert picks <= online
        assert len(picks) > 1

    def test_random_peer_id_raises_when_none_online(self):
        network = build_word_network(n_peers=8)
        for peer in network.peers:
            peer.online = False
        with pytest.raises(OverlayError):
            network.random_peer_id(random.Random(0))

    def test_random_peer_id_healthy_draws_unchanged(self):
        network = build_word_network(n_peers=16)
        reference = random.Random(11)
        chooser = random.Random(11)
        drawn = [network.random_peer_id(chooser) for __ in range(25)]
        assert drawn == [reference.randrange(16) for __ in range(25)]


def word_sample_keys(config):
    """Index-entry keys of the shared word collection (the trie sample)."""
    probe = PGridNetwork(1, config)
    return sorted(
        entry.key for entry in probe.entry_factory.entries_for_all(word_triples())
    )


class TestRoutingConstructionEquivalence:
    """The fast constructions equal their retained scan references."""

    @settings(max_examples=30, deadline=None)
    @given(
        n_peers=st.integers(min_value=1, max_value=80),
        seed=st.integers(0, 10),
        replication=st.integers(1, 3),
        refs=st.integers(1, 3),
    )
    def test_span_sampling_matches_scan_reference(
        self, n_peers, seed, replication, refs
    ):
        """Fast construction consumes the RNG draw-for-draw like the scan."""
        config = StoreConfig(
            seed=seed, replication=replication, refs_per_level=refs
        )
        sample = word_sample_keys(config)
        fast = PGridNetwork(n_peers, config, sample_keys=sample)
        reference = PGridNetwork(n_peers, config, sample_keys=sample)
        reference.rng = random.Random(config.seed)
        reference._build_routing_tables_scan()
        for peer_fast, peer_ref in zip(fast.peers, reference.peers):
            assert peer_fast.routing_table == peer_ref.routing_table

    @settings(max_examples=30, deadline=None)
    @given(
        n_peers=st.integers(min_value=1, max_value=60),
        seed=st.integers(0, 5),
        uniform=st.booleans(),
        prefixes=st.lists(
            st.text(alphabet="01", min_size=0, max_size=12), max_size=8
        ),
    )
    def test_partition_span_matches_scan(self, n_peers, seed, uniform, prefixes):
        """The bisected span and the startswith scan agree on any prefix."""
        balancing = TrieBalancing.UNIFORM if uniform else TrieBalancing.DATA_AWARE
        config = StoreConfig(seed=seed, balancing=balancing)
        network = PGridNetwork(
            n_peers, config, sample_keys=word_sample_keys(config)
        )
        probes = list(prefixes) + ["", "0", "1"] + network._paths[:3]
        for prefix in probes:
            assert (
                network._partition_range(prefix)
                == network._partition_range_scan(prefix)
            ), prefix
