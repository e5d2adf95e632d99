"""Property-based tests: membership dynamics preserve the trie invariants.

Random join/leave sequences must keep the partition cover complete and
every stored item reachable — the invariant behind Algorithm 1's
termination/correctness argument.
"""

from hypothesis import example, given, settings, strategies as st

from repro.core.config import StoreConfig
from repro.core.errors import OverlayError
from repro.overlay import trie
from repro.overlay.membership import MembershipManager
from repro.overlay.network import PGridNetwork
from repro.storage.indexing import EntryKind
from repro.storage.triple import Triple

ATTR = "t:v"


def build(words, n_peers, seed):
    config = StoreConfig(seed=seed)
    triples = [Triple(f"x:{i:03d}", ATTR, w) for i, w in enumerate(words)]
    probe = PGridNetwork(1, config)
    sample = [e.key for e in probe.entry_factory.entries_for_all(triples)]
    network = PGridNetwork(n_peers, config, sample_keys=sample)
    network.insert_triples(triples)
    return network


WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf"]


class TestMembershipInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=12),
        st.lists(st.booleans(), max_size=12),  # True = join, False = leave
        st.integers(0, 3),
    )
    # Only 2 of 6 peers end up online: the initiator draw must still
    # find one instead of giving up after a bounded number of probes.
    @example(
        n_peers=2,
        actions=[True, False, True, True, False, True, False, False],
        seed=2,
    )
    def test_cover_and_reachability_survive_churn(self, n_peers, actions, seed):
        network = build(WORDS, n_peers, seed)
        manager = MembershipManager(network)
        joined: list[int] = []
        for is_join in actions:
            if is_join:
                joined.append(manager.join().peer_id)
            elif joined:
                try:
                    manager.leave(joined.pop())
                except OverlayError:
                    pass  # deep-sibling leaves legitimately refuse
            trie.validate_cover([p.path for p in network.partitions])

        start = network.random_peer_id()
        for word in WORDS:
            key = network.codec.attr_value_key(ATTR, word)
            entries, __ = network.router.retrieve(key, start)
            found = {
                e.triple.value
                for e in entries
                if e.kind is EntryKind.ATTR_VALUE and e.triple.attribute == ATTR
            }
            assert word in found

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=10), st.integers(1, 8))
    def test_joins_grow_partitions_monotonically(self, n_peers, joins):
        network = build(WORDS, n_peers, seed=1)
        manager = MembershipManager(network)
        previous = network.n_partitions
        for __ in range(joins):
            manager.join()
            assert network.n_partitions >= previous
            previous = network.n_partitions

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=10))
    def test_entries_stay_on_matching_paths(self, joins):
        network = build(WORDS, 4, seed=2)
        manager = MembershipManager(network)
        for __ in range(joins):
            manager.join()
        for peer in network.peers:
            if not peer.online:
                continue
            for entry in peer.store:
                assert entry.key.startswith(peer.path)
