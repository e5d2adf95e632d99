"""Unit tests for prefix routing (Algorithm 1) and its variants."""

import pytest

from repro.core.config import StoreConfig
from repro.core.errors import PartitionUnreachableError

from tests.conftest import TEXT_ATTR, build_word_network


@pytest.fixture(scope="module")
def network():
    return build_word_network(n_peers=64)


class TestRoute:
    def test_reaches_responsible_peer(self, network):
        codec = network.codec
        key = codec.attr_value_key(TEXT_ATTR, "apple")
        for start in range(0, network.n_peers, 7):
            peer = network.router.route(key, start)
            assert peer.responsible_for(key)

    def test_logarithmic_hops(self, network):
        codec = network.codec
        key = codec.attr_value_key(TEXT_ATTR, "cherry")
        network.tracer.reset()
        trials = 20
        for start in range(trials):
            network.router.route(key, start % network.n_peers)
        mean_hops = network.tracer.message_count / trials
        # Expected 0.5 * log2(64) = 3; allow generous slack.
        assert mean_hops <= 8

    def test_route_from_responsible_peer_is_free(self, network):
        codec = network.codec
        key = codec.attr_value_key(TEXT_ATTR, "apple")
        owner = network.partition_for(key).peer_ids[0]
        network.tracer.reset()
        peer = network.router.route(key, owner)
        assert peer.peer_id == owner
        assert network.tracer.message_count == 0


class TestRetrieve:
    def test_exact_lookup_finds_word(self, network):
        codec = network.codec
        key = codec.attr_value_key(TEXT_ATTR, "banana")
        entries, __ = network.router.retrieve(key, 0)
        values = {e.triple.value for e in entries if e.kind.value == "attr_value"}
        assert "banana" in values

    def test_prefix_retrieve_spans_partitions(self, network):
        # Truncated attribute prefixes may collide across attributes, so
        # the attribute is re-checked — as peers do (Section 3).
        prefix = network.codec.attr_prefix(TEXT_ATTR)
        entries, __ = network.router.retrieve(prefix, 0)
        values = {
            e.triple.value
            for e in entries
            if e.kind.value == "attr_value" and e.triple.attribute == TEXT_ATTR
        }
        from tests.conftest import WORDS

        assert values == set(WORDS)

    def test_missing_key_returns_empty(self, network):
        key = network.codec.attr_value_key(TEXT_ATTR, "zzzzzz")
        entries, __ = network.router.retrieve(key, 0)
        matching = [e for e in entries if e.triple.value == "zzzzzz"]
        assert matching == []


class TestMulticast:
    def test_contacts_every_partition_once(self, network):
        prefix = ""
        network.tracer.reset()
        peers = network.router.multicast_prefix(prefix, 0)
        partitions = {network.partition_for(p.path).index for p in peers}
        assert len(peers) == network.n_partitions
        assert len(partitions) == network.n_partitions

    def test_forward_messages_bounded(self, network):
        network.tracer.reset()
        network.router.multicast_prefix("", 0)
        forwards = network.tracer.counts_by_type["forward"]
        assert forwards == network.n_partitions - 1

    def test_forwards_charged_to_phase_without_payload(self, network):
        network.tracer.reset()
        network.router.multicast_prefix("", 0, phase="shower")
        tracer = network.tracer
        assert tracer.counts_by_phase["shower"] == tracer.message_count
        assert tracer.counts_by_type["forward"] == network.n_partitions - 1
        assert tracer.payload_bytes == 0

    def test_attribute_prefix_contacts_only_its_partitions(self, network):
        prefix = network.codec.attr_prefix(TEXT_ATTR)
        peers = network.router.multicast_prefix(prefix, 0)
        contacted = [network.partition_for(p.path).index for p in peers]
        expected = {p.index for p in network.partitions_under(prefix)}
        assert len(contacted) == len(expected)
        assert set(contacted) == expected

    def test_replica_picks_match_live_replica_draws(self):
        """Each replicated partition's copy goes to ``_live_replica``'s pick."""
        network = build_word_network(
            n_peers=33, config=StoreConfig(seed=9, replication=3)
        )
        router = network.router
        state = router.rng.getstate()
        peers = router.multicast_prefix("", 5)
        router.rng.setstate(state)
        partitions = network.partitions_under("")
        first = router.route(partitions[0].path, 5, phase="multicast")
        expected = [first] + [
            router._live_replica(partition)
            for partition in partitions
            if not partition.contains(first.peer_id)
        ]
        assert [p.peer_id for p in peers] == [p.peer_id for p in expected]
        assert router.rng.getstate() != state

    def test_unreplicated_partitions_draw_nothing(self):
        """Single-replica partitions leave the router RNG where routing left it."""
        network = build_word_network(n_peers=32, config=StoreConfig(seed=9))
        router = network.router
        state = router.rng.getstate()
        router.multicast_prefix("", 3)
        after_multicast = router.rng.getstate()
        router.rng.setstate(state)
        router.route(network.partitions_under("")[0].path, 3)
        assert after_multicast == router.rng.getstate()

    def test_offline_unreplicated_partition_raises(self):
        network = build_word_network(n_peers=16, config=StoreConfig(seed=9))
        partitions = network.partitions_under("")
        start = partitions[0].peer_ids[0]
        dark = partitions[-1]
        network.peer(dark.peer_ids[0]).online = False
        with pytest.raises(PartitionUnreachableError) as raised:
            network.router.multicast_prefix("", start)
        assert raised.value.partition_index == dark.index


class TestRouteMany:
    def test_batches_by_partition(self, network):
        codec = network.codec
        keys = [codec.attr_value_key(TEXT_ATTR, w) for w in ("apple", "apply", "band")]
        network.tracer.reset()
        answers = network.router.route_many(keys, 0)
        assert set(answers) == set(keys)
        for key, peer in answers.items():
            assert peer.responsible_for(key)

    def test_batching_beats_individual_routing(self, network):
        codec = network.codec
        from tests.conftest import WORDS

        keys = [codec.attr_value_key(TEXT_ATTR, w) for w in WORDS]
        network.tracer.reset()
        network.router.route_many(keys, 0)
        batched = network.tracer.message_count
        network.tracer.reset()
        for key in keys:
            network.router.route(key, 0)
        individual = network.tracer.message_count
        assert batched < individual

    def test_empty_batch(self, network):
        assert network.router.route_many([], 0) == {}

    def test_retrieve_many_returns_entries(self, network):
        codec = network.codec
        keys = [codec.attr_value_key(TEXT_ATTR, "apple")]
        answers = network.router.retrieve_many(keys, 0)
        values = {e.triple.value for e in answers[keys[0]]}
        assert "apple" in values


class TestFailureHandling:
    def test_routing_survives_dead_reference(self):
        config = StoreConfig(seed=9, replication=2)
        network = build_word_network(n_peers=32, config=config)
        key = network.codec.attr_value_key(TEXT_ATTR, "apple")
        target = network.partition_for(key)
        # Kill one replica of the target partition; lookups must still work.
        network.peer(target.peer_ids[0]).online = False
        peer = network.router.route(key, network.peer(0).peer_id)
        assert peer.responsible_for(key)
        assert peer.online

    def test_unreachable_partition_raises(self):
        config = StoreConfig(seed=9)
        network = build_word_network(n_peers=16, config=config)
        key = network.codec.attr_value_key(TEXT_ATTR, "apple")
        target = network.partition_for(key)
        for peer_id in target.peer_ids:
            network.peer(peer_id).online = False
        start = next(
            p.peer_id
            for p in network.peers
            if p.online and not p.responsible_for(key)
        )
        with pytest.raises(PartitionUnreachableError):
            network.router.route(key, start)

    def test_offline_initiator_uses_replica(self):
        config = StoreConfig(seed=9, replication=2)
        network = build_word_network(n_peers=32, config=config)
        network.peer(0).online = False
        key = network.codec.attr_value_key(TEXT_ATTR, "apple")
        peer = network.router.route(key, 0)
        assert peer.responsible_for(key)
