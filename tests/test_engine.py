"""Integration tests for the QueryEngine facade (engine.py)."""

import pytest

from repro.core.config import RankFunction, SimilarityStrategy, StoreConfig
from repro.core.errors import PartitionUnreachableError
from repro.engine import QueryEngine
from repro.overlay.faults import FaultPlan
from repro.storage.schema import RelationSchema, record_to_triples
from repro.storage.triple import Triple

from tests.conftest import LEN_ATTR, TEXT_ATTR, WORDS, word_triples


@pytest.fixture()
def engine():
    return QueryEngine.build(32, word_triples(), StoreConfig(seed=7))


@pytest.fixture()
def adaptive_engine():
    engine = QueryEngine.build(
        32, word_triples(), StoreConfig(seed=7), strategy="adaptive"
    )
    engine.analyze([TEXT_ATTR])
    return engine


class TestFacade:
    def test_build_and_query(self, engine):
        result = engine.query(
            f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) "
            "FILTER (dist(?w,'apple') <= 1) }"
        )
        assert {row["w"] for row in result.rows} >= {"apple", "apply"}
        assert result.cost.messages > 0

    def test_strategy_string_accepted(self):
        engine = QueryEngine.build(8, strategy="qsample")
        assert engine.ctx.strategy is SimilarityStrategy.QSAMPLE

    def test_owns_all_memos_and_pool(self, engine):
        assert engine.naive_memo is not None
        assert engine.gram_scan_memo is not None
        assert engine.fetch_memo is not None
        assert engine.verifier_pool is not None
        assert engine.cost_model is not None

    def test_memoize_master_switch(self):
        engine = QueryEngine.build(8, memoize=False)
        assert engine.naive_memo is None
        assert engine.gram_scan_memo is None
        assert engine.fetch_memo is None

    def test_memo_free_engine_keeps_verifier_pool(self):
        engine = QueryEngine.build(8, memoize=False)
        assert engine.verifier_pool is not None
        stats = engine.verifier_stats()
        assert stats["shared_pool"] is True
        assert stats["kernel"] == engine.edit_kernel.name

    def test_context_shares_engine_wiring(self, engine):
        ctx = engine.context(strategy=SimilarityStrategy.QGRAM)
        assert ctx.naive_memo is engine.naive_memo
        assert ctx.gram_scan_memo is engine.gram_scan_memo
        assert ctx.fetch_memo is engine.fetch_memo
        assert ctx.verifier_pool is engine.verifier_pool
        assert ctx.cost_model is engine.cost_model
        assert ctx.strategy is SimilarityStrategy.QGRAM

    def test_context_accepts_strategy_name(self, engine):
        ctx = engine.context(strategy="strings")
        assert ctx.strategy is SimilarityStrategy.NAIVE


class TestBuildAndInsert:
    def test_build_empty(self):
        engine = QueryEngine.build(8)
        assert engine.n_peers == 8

    def test_insert_then_query(self):
        engine = QueryEngine.build(16, config=StoreConfig(seed=2))
        engine.insert([Triple("x:1", "t:name", "overlay")])
        hits = engine.select("t:name", "overlay")
        assert [m.oid for m in hits] == ["x:1"]

    def test_insert_decomposed_record(self):
        engine = QueryEngine.build(16, config=StoreConfig(seed=2))
        engine.insert(
            record_to_triples("c:1", {"name": "bmw", "hp": 300}, namespace="car")
        )
        assert engine.lookup("c:1")

    def test_insert_relation_tuples(self):
        engine = QueryEngine.build(16, config=StoreConfig(seed=2))
        schema = RelationSchema("w", ("t",))
        engine.insert(
            triple
            for serial, row in enumerate([{"t": "alpha"}, {"t": "beta"}])
            for triple in schema.tuple_to_triples(schema.make_oid(serial), row)
        )
        assert engine.select("w:t", "alpha")


class TestOperatorFacade:
    def test_similar(self, word_store):
        result = word_store.similar("apple", TEXT_ATTR, 1)
        assert any(m.matched == "apple" for m in result.matches)

    def test_similar_strategy_override(self, word_store):
        naive = word_store.similar("apple", TEXT_ATTR, 1, strategy="strings")
        default = word_store.similar("apple", TEXT_ATTR, 1)
        assert {m.matched for m in naive.matches} == {
            m.matched for m in default.matches
        }

    def test_similar_numeric(self, word_store):
        matches = word_store.similar_numeric(LEN_ATTR, 5.0, 0.0)
        assert {m.value_of(TEXT_ATTR) for m in matches} == {
            w for w in WORDS if len(w) == 5
        }

    def test_sim_join_anchored(self, word_store):
        result = word_store.sim_join_anchored(TEXT_ATTR, "apple", TEXT_ATTR, 1)
        assert any(p.right.matched == "apply" for p in result.pairs)

    def test_top_n(self, word_store):
        result = word_store.top_n(LEN_ATTR, 3, RankFunction.MAX)
        assert len(result.matches) == 3

    def test_top_n_rank_string(self, word_store):
        result = word_store.top_n(LEN_ATTR, 2, "min")
        assert [m.distance for m in result.matches] == sorted(
            float(len(w)) for w in WORDS
        )[:2]

    def test_top_n_string(self, word_store):
        result = word_store.top_n_string(TEXT_ATTR, "apple", 3)
        assert result.matches[0].matched == "apple"

    def test_keyword(self, word_store):
        triples = word_store.keyword("banana")
        assert [(t.attribute, t.value) for t in triples] == [
            (TEXT_ATTR, "banana")
        ]

    def test_lookup(self, word_store):
        triples = word_store.lookup("w:0000")
        assert {t.attribute for t in triples} == {TEXT_ATTR, LEN_ATTR}


class TestAnalyze:
    def test_analyze_installs_catalog(self, engine):
        # A fresh engine starts with an empty (but shared) catalog, so
        # contexts handed out before the first analyze see later stats.
        assert engine.catalog is not None
        assert engine.catalog.get(TEXT_ATTR) is None
        early_ctx = engine.context(strategy="qgrams")
        catalog = engine.analyze([TEXT_ATTR])
        assert engine.catalog is catalog
        assert early_ctx.catalog is catalog
        assert catalog.get(TEXT_ATTR).row_count == len(WORDS)
        # The executor consults the installed catalog automatically.
        result = engine.query(
            f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) "
            "FILTER (dist(?w,'apple') <= 1) }"
        )
        assert result.plan.steps[0].estimated_rows is not None

    def test_analyze_merges(self, engine):
        engine.analyze([TEXT_ATTR])
        engine.analyze([LEN_ATTR])
        assert engine.catalog.get(TEXT_ATTR) is not None
        assert engine.catalog.get(LEN_ATTR) is not None

    def test_analyze_charges_messages(self, engine):
        engine.analyze([TEXT_ATTR])
        assert engine.last_cost().messages > 0


class TestAdaptive:
    def test_similar_records_decision(self, adaptive_engine):
        result = adaptive_engine.similar("aple", TEXT_ATTR, 1)
        assert any(m.matched == "apple" for m in result.matches)
        decisions = adaptive_engine.last_decisions()
        assert len(decisions) == 1
        decision = decisions[0]
        assert decision.chosen.is_physical
        assert decision.predicted.messages > 0
        assert decision.actual_messages is not None
        assert decision.actual_messages > 0

    def test_vql_query_carries_decisions(self, adaptive_engine):
        result = adaptive_engine.query(
            f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) "
            "FILTER (dist(?w,'grape') <= 1) }"
        )
        assert result.cost.decisions
        for decision in result.cost.decisions:
            assert decision.chosen.is_physical
            assert decision.actual_messages is not None

    def test_fixed_strategy_queries_record_no_decisions(self, engine):
        engine.similar("apple", TEXT_ATTR, 1)
        assert engine.last_decisions() == []

    def test_predict_similar(self, adaptive_engine):
        predictions = adaptive_engine.predict_similar("apple", TEXT_ATTR, 1)
        assert set(predictions) == {"qsamples", "qgrams", "strings"}

    def test_adaptive_without_analyze_still_answers(self):
        engine = QueryEngine.build(
            16, word_triples(), StoreConfig(seed=7), strategy="adaptive"
        )
        result = engine.similar("apple", TEXT_ATTR, 0)
        assert any(m.matched == "apple" for m in result.matches)
        assert engine.last_decisions()[0].chosen.is_physical


class TestMutationInvalidation:
    def test_insert_invalidates_affected_partitions(self, engine):
        engine.similar("apple", TEXT_ATTR, 1, strategy="strings")
        engine.similar("apple", TEXT_ATTR, 1)
        assert len(engine.naive_memo) > 0
        assert len(engine.fetch_memo) > 0
        before = len(engine.fetch_memo)
        engine.insert([Triple("x:new", TEXT_ATTR, "apricot")])
        # Whole-region memos overlap the written partitions and drop;
        # per-partition fetch entries for untouched partitions survive.
        assert len(engine.naive_memo) == 0
        assert len(engine.gram_scan_memo) == 0
        assert len(engine.fetch_memo) < before
        assert engine.fetch_memo.invalidations > 0

    def test_insert_clears_memos_in_drop_mode(self):
        engine = QueryEngine.build(
            16, word_triples(), StoreConfig(seed=7), memo_maintenance="drop"
        )
        engine.similar("apple", TEXT_ATTR, 1, strategy="strings")
        engine.similar("apple", TEXT_ATTR, 1)
        assert len(engine.fetch_memo) > 0
        engine.insert([Triple("x:new", TEXT_ATTR, "apricot")])
        assert len(engine.naive_memo) == 0
        assert len(engine.gram_scan_memo) == 0
        assert len(engine.fetch_memo) == 0

    def test_out_of_band_mutation_detected(self, engine):
        """Even a direct store write trips the token check."""
        engine.similar("apple", TEXT_ATTR, 1, strategy="strings")
        assert len(engine.naive_memo) > 0
        peer = engine.network.peer(0)
        peer.store.version += 1  # simulate an untracked mutation
        assert engine.check_mutations() is True
        assert len(engine.naive_memo) == 0
        assert engine.check_mutations() is False

    def test_queries_after_insert_see_new_data(self, engine):
        engine.similar("apple", TEXT_ATTR, 1)
        engine.insert([Triple("x:new", TEXT_ATTR, "appla")])
        result = engine.similar("apple", TEXT_ATTR, 1)
        assert "appla" in {m.matched for m in result.matches}


class TestLedger:
    def test_last_cost_and_stats(self, word_store):
        queries_before = word_store.stats.queries
        word_store.similar("apple", TEXT_ATTR, 1)
        assert word_store.last_cost().messages > 0
        assert word_store.stats.queries == queries_before + 1

    def test_stats_accumulate(self, engine):
        before = engine.stats.queries
        engine.similar("apple", TEXT_ATTR, 1)
        engine.query(f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) }} LIMIT 2")
        assert engine.stats.queries == before + 2
        assert engine.stats.messages > 0

    def test_recorded_cost_carries_verifier_delta(self, engine):
        engine.similar("apple", TEXT_ATTR, 1)
        verifier = engine.last_cost().verifier
        assert verifier["kernel"] == engine.edit_kernel.name
        assert verifier["computed"] + verifier["memo_hits"] > 0

    def test_query_cost_is_the_recorded_cost(self, engine):
        text = (
            f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) "
            "FILTER (dist(?w,'apple') <= 1) }"
        )
        twin = QueryEngine.build(32, word_triples(), StoreConfig(seed=7))
        result = engine.query(text)
        direct = twin.executor.execute_text(text)
        assert result.cost is engine.last_cost()
        assert result.rows == direct.rows
        assert (
            result.cost.messages,
            result.cost.payload_bytes,
            result.cost.by_phase,
        ) == (
            direct.cost.messages,
            direct.cost.payload_bytes,
            direct.cost.by_phase,
        )

    def test_failed_query_is_recorded_once(self):
        engine = QueryEngine.build(
            32,
            word_triples(),
            StoreConfig(seed=7, replication=3),
            strategy="strings",
        )
        engine.install_faults(FaultPlan.lossy(0.01, seed=5), mode="strict")
        region = engine.network.partitions_under(
            engine.network.codec.attr_prefix(TEXT_ATTR)
        )
        engine.fail_peers(list(region[0].peer_ids), protect_partitions=False)
        before = engine.stats.queries
        with pytest.raises(PartitionUnreachableError):
            engine.query(
                f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) "
                "FILTER (dist(?w,'apple') <= 1) }"
            )
        assert engine.stats.queries == before + 1

    def test_explain_does_not_execute(self, engine):
        before = engine.network.tracer.message_count
        text = engine.explain(
            f"SELECT ?w WHERE {{ (?o,{TEXT_ATTR},?w) "
            "FILTER (dist(?w,'apple') < 2) }"
        )
        assert "string_similarity" in text
        assert engine.network.tracer.message_count == before
