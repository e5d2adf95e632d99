"""Stateful equivalence of the delta-maintained engine under mutation.

A hypothesis rule-based state machine interleaves inserts, deletes,
peer failures, recoveries, and similarity queries on two engines over
identically-built networks:

* the **primary** — fully memoized, ``memo_maintenance="delta"``: writes
  invalidate only the affected partitions' memo entries;
* the **reference** — ``memoize=False``: every query recomputes from the
  stores, so it can never serve anything stale.

After every query the two answers must agree bit-for-bit — the match
lists *and* the measured cost series (messages, payload bytes, per-type
and per-phase breakdowns).  Any memo entry that survives a write it
should not have survived shows up here as a divergence; so does any
memo that changes what a query charges (memos are required to be
cost-transparent).

Both engines see the exact same op sequence with explicit initiator
peers, so their RNG streams never decouple; equivalence is exact, not
statistical.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.config import StoreConfig
from repro.engine import QueryEngine
from repro.query.operators.similar import similar
from repro.storage.triple import Triple

ATTR = "w:text"

WORDS = [
    "apple", "apply", "ample", "maple",
    "grape", "grace", "trace",
    "banana", "band", "bandana",
    "cherry", "berry", "merry",
]


def _answer(engine: QueryEngine, word: str, d: int, initiator: int) -> tuple:
    """One query's full observable: matches plus the measured series."""
    with engine.recorded():
        result = similar(engine.ctx, word, ATTR, d, initiator)
    cost = engine.last_cost()
    return (
        tuple(sorted((m.oid, m.matched, m.distance) for m in result.matches)),
        cost.messages,
        cost.payload_bytes,
        tuple(sorted(cost.by_type.items())),
        tuple(sorted(cost.by_phase.items())),
    )


class MutationEquivalence(RuleBasedStateMachine):
    @initialize(
        seed=st.integers(min_value=0, max_value=7),
        n_peers=st.sampled_from([8, 12, 16]),
    )
    def setup(self, seed, n_peers):
        config = StoreConfig(seed=seed, replication=2)
        triples = [Triple(f"w:{i:03d}", ATTR, w) for i, w in enumerate(WORDS)]
        # Same peers / config / data → deterministically identical
        # networks; only the memo wiring differs between the two arms.
        self.primary = QueryEngine.build(
            n_peers=n_peers, triples=triples, config=config,
            memo_maintenance="delta",
        )
        self.reference = QueryEngine.build(
            n_peers=n_peers, triples=triples, config=config, memoize=False
        )
        self.engines = (self.primary, self.reference)
        self.counter = 0
        self.live_batches: list[tuple[Triple, ...]] = []

    # -- ops ----------------------------------------------------------------------

    @rule(
        word=st.sampled_from(WORDS),
        d=st.integers(min_value=0, max_value=2),
        initiator=st.integers(min_value=0, max_value=10**6),
    )
    def query(self, word, d, initiator):
        peer_id = initiator % self.primary.n_peers
        assert _answer(self.primary, word, d, peer_id) == _answer(
            self.reference, word, d, peer_id
        )

    @rule(
        base=st.sampled_from(WORDS),
        size=st.integers(min_value=1, max_value=3),
    )
    def insert(self, base, size):
        batch = tuple(
            Triple(f"m:{self.counter}:{i}", ATTR, f"{base}x{self.counter}")
            for i in range(size)
        )
        self.counter += 1
        # respect_online: offline replicas miss the write and stay
        # divergent until a recover() rule repairs them — identically in
        # both arms, since both see the same offline set.
        applied = [e.insert(list(batch), respect_online=True) for e in self.engines]
        assert applied[0] == applied[1]
        self.live_batches.append(batch)

    @precondition(lambda self: self.live_batches)
    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def delete(self, pick):
        batch = self.live_batches.pop(pick % len(self.live_batches))
        applied = [e.delete(list(batch), respect_online=True) for e in self.engines]
        assert applied[0] == applied[1]

    @rule(peer=st.integers(min_value=0, max_value=10**6))
    def fail_peer(self, peer):
        peer_id = peer % self.primary.n_peers
        reports = [
            e.fail_peers([peer_id], protect_partitions=True)
            for e in self.engines
        ]
        assert reports[0].failed_peer_ids == reports[1].failed_peer_ids
        assert not reports[0].dark_partitions

    @precondition(lambda self: self.primary.churn.offline_peer_ids())
    @rule()
    def recover(self):
        reports = [e.recover(repair=True) for e in self.engines]
        assert reports[0].recovered_peers == reports[1].recovered_peers
        assert (
            reports[0].divergent_partitions == reports[1].divergent_partitions
        )
        assert reports[0].entries_copied == reports[1].entries_copied

    # -- invariants ---------------------------------------------------------------

    @invariant()
    def stores_identical(self):
        if not hasattr(self, "engines"):
            return
        assert (
            self.primary.store_version == self.reference.store_version
        )


TestMutationEquivalence = MutationEquivalence.TestCase
TestMutationEquivalence.settings = settings(
    max_examples=200, stateful_step_count=10, deadline=None
)
