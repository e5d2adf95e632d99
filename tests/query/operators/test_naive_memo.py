"""Naive-broadcast memoization.

The memo's contract is *cost transparency*.  A memoized workload must
produce the same matches and charge the same messages and bytes — phase
by phase, type by type — as an unmemoized one; only the local comparison
work is skipped.
"""


from repro.core.config import SimilarityStrategy, StoreConfig
from repro.query.operators.base import OperatorContext
from repro.query.operators.naive import NaiveWorkloadMemo, naive_similar
from repro.storage.triple import Triple
from repro.bench.experiment import run_cell
from repro.bench.workload import make_workload

from tests.conftest import TEXT_ATTR, build_word_network, word_triples

#: A probe mix with deliberate repeats — the memo's bread and butter.
PROBES = [
    ("apple", 1), ("apple", 1), ("apple", 2), ("grape", 1),
    ("banana", 2), ("apple", 1), ("grape", 1), ("cherry", 3),
]


def run_probes(memo):
    """Replay PROBES on a fresh network; returns (tracer totals, matches)."""
    network = build_word_network(n_peers=48)
    ctx = OperatorContext(
        network, strategy=SimilarityStrategy.NAIVE, naive_memo=memo(network)
        if memo else None,
    )
    totals = []
    matches = []
    for index, (search, d) in enumerate(PROBES):
        network.tracer.reset()
        result = naive_similar(
            ctx, search, TEXT_ATTR, d, initiator_id=index % network.n_peers
        )
        snapshot = network.tracer.snapshot()
        totals.append(
            (snapshot.messages, snapshot.payload_bytes, snapshot.by_type,
             snapshot.by_phase)
        )
        matches.append([(m.oid, m.matched, m.distance) for m in result.matches])
    return totals, matches


class TestNaiveWorkloadMemo:
    def test_memoized_probes_charge_identical_costs(self):
        plain_totals, plain_matches = run_probes(memo=None)
        memo_totals, memo_matches = run_probes(memo=NaiveWorkloadMemo)
        assert memo_totals == plain_totals
        assert memo_matches == plain_matches

    def test_memo_hits_repeated_queries(self):
        network = build_word_network(n_peers=48)
        memo = NaiveWorkloadMemo(network)
        ctx = OperatorContext(
            network, strategy=SimilarityStrategy.NAIVE, naive_memo=memo
        )
        for __, (search, d) in enumerate(PROBES):
            naive_similar(ctx, search, TEXT_ATTR, d, initiator_id=0)
        # The memo computes once per (s, attribute) region at its band,
        # so every later distance on the same search string is a hit.
        unique = len({search for search, __ in PROBES})
        assert memo.misses == unique
        assert memo.hits == len(PROBES) - unique
        assert len(memo) == unique

    def test_store_mutation_invalidates_cached_outcomes(self):
        """The static-store contract is enforced, not just documented.

        Inserting data after a memoized query must invalidate the cached
        region comparison — a stale replay would silently miss the new
        match.
        """
        network = build_word_network(n_peers=48)
        memo = NaiveWorkloadMemo(network)
        ctx = OperatorContext(
            network, strategy=SimilarityStrategy.NAIVE, naive_memo=memo
        )
        before = naive_similar(ctx, "apple", TEXT_ATTR, 0, initiator_id=0)
        network.insert_triples([Triple("w:9999", TEXT_ATTR, "apple")])
        after = naive_similar(ctx, "apple", TEXT_ATTR, 0, initiator_id=0)
        assert memo.invalidations >= 1
        assert {m.oid for m in after.matches} == (
            {m.oid for m in before.matches} | {"w:9999"}
        )

    def test_clear_forces_recomputation(self):
        network = build_word_network(n_peers=48)
        memo = NaiveWorkloadMemo(network)
        ctx = OperatorContext(
            network, strategy=SimilarityStrategy.NAIVE, naive_memo=memo
        )
        naive_similar(ctx, "apple", TEXT_ATTR, 1, initiator_id=0)
        memo.clear()
        naive_similar(ctx, "apple", TEXT_ATTR, 1, initiator_id=0)
        assert memo.misses == 2

    def test_memoized_cell_matches_unmemoized_cell(self):
        """Whole-workload equivalence through the bench harness itself."""
        triples = word_triples()
        strings = [
            str(t.value) for t in triples if t.attribute == TEXT_ATTR
        ]
        config = StoreConfig(seed=7)
        workload = make_workload(strings, 48, repetitions=2, seed=7)
        cells = {}
        for memoize in (False, True):
            cells[memoize] = run_cell(
                triples, TEXT_ATTR, strings, 48,
                config=config, workload=workload, memoize=memoize,
            )
        for strategy in cells[True].by_strategy:
            plain = cells[False].by_strategy[strategy]
            memoized = cells[True].by_strategy[strategy]
            assert memoized.messages == plain.messages
            assert memoized.payload_bytes == plain.payload_bytes
            assert memoized.by_type == plain.by_type
            assert memoized.by_phase == plain.by_phase
