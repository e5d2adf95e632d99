"""Unit and property tests for the strategy cost model (query/cost.py)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SimilarityStrategy, StoreConfig
from repro.datasets.bible import TEXT_ATTRIBUTE, bible_triples
from repro.engine import QueryEngine
from repro.overlay.network import PGridNetwork
from repro.query.cost import (
    CANDIDATE_STRATEGIES,
    COMPARISON_COST_US,
    HOP_LATENCY_MS,
    CostPrediction,
    StrategyCostModel,
    StrategyDecision,
    compute_time_ms,
    network_time_ms,
)
from repro.query.operators.base import OperatorContext
from repro.query.operators.similar import similar
from repro.query.statistics import collect_statistics
from repro.similarity.edit_distance import edit_distance
from repro.storage.triple import Triple

from tests.conftest import TEXT_ATTR, build_word_network

ATTR = "t:v"


def build_ctx(words, n_peers, seed=2):
    config = StoreConfig(seed=seed)
    triples = [Triple(f"x:{i:03d}", ATTR, w) for i, w in enumerate(words)]
    probe = PGridNetwork(1, config)
    sample = [e.key for e in probe.entry_factory.entries_for_all(triples)]
    network = PGridNetwork(n_peers, config, sample_keys=sample)
    network.insert_triples(triples)
    return OperatorContext(network)


@pytest.fixture(scope="module")
def bible_setting():
    """800 bible words on 512 peers, analyzed, and every 60th word."""
    config = StoreConfig(seed=0, index_values=False, index_schema_grams=False)
    corpus = bible_triples(800, seed=9)
    engine = QueryEngine.build(512, corpus, config)
    engine.analyze([TEXT_ATTRIBUTE])
    return engine, [str(t.value) for t in corpus][::60]


@pytest.fixture(scope="module")
def word_model_ctx():
    ctx = OperatorContext(build_word_network(n_peers=48))
    ctx.catalog = collect_statistics(ctx, [TEXT_ATTR], sample_partitions=64)
    return ctx


class TestPredictions:
    def test_all_candidates_predicted(self, word_model_ctx):
        model = StrategyCostModel(word_model_ctx.network)
        predictions = model.predict_all(
            "apple", TEXT_ATTR, 1, word_model_ctx.catalog
        )
        assert set(predictions) == {s.value for s in CANDIDATE_STRATEGIES}
        for prediction in predictions.values():
            assert isinstance(prediction, CostPrediction)
            assert prediction.messages > 0
            assert prediction.payload_bytes > 0
            assert prediction.latency_ms > 0

    def test_naive_grows_with_network_fixed_grams_do_not(self):
        """The crossover driver: naive is Θ(region), grams are Θ(log)."""
        words = [f"word{i:02d}" for i in range(40)]
        small = build_ctx(words, 16)
        large = build_ctx(words, 256)
        naive_small = StrategyCostModel(small.network).predict(
            "word01", ATTR, 1, SimilarityStrategy.NAIVE
        )
        naive_large = StrategyCostModel(large.network).predict(
            "word01", ATTR, 1, SimilarityStrategy.NAIVE
        )
        gram_small = StrategyCostModel(small.network).predict(
            "word01", ATTR, 1, SimilarityStrategy.QGRAM
        )
        gram_large = StrategyCostModel(large.network).predict(
            "word01", ATTR, 1, SimilarityStrategy.QGRAM
        )
        naive_growth = naive_large.messages / naive_small.messages
        gram_growth = gram_large.messages / gram_small.messages
        assert naive_growth > gram_growth
        assert naive_large.messages > naive_small.messages

    def test_qsample_at_most_qgram_lookups(self, word_model_ctx):
        model = StrategyCostModel(word_model_ctx.network)
        qgram = model.predict(
            "similarity", TEXT_ATTR, 1, SimilarityStrategy.QGRAM,
            word_model_ctx.catalog,
        )
        qsample = model.predict(
            "similarity", TEXT_ATTR, 1, SimilarityStrategy.QSAMPLE,
            word_model_ctx.catalog,
        )
        assert qsample.messages <= qgram.messages

    def test_monotone_in_distance(self, word_model_ctx):
        model = StrategyCostModel(word_model_ctx.network)
        costs = [
            model.predict(
                "apple", TEXT_ATTR, d, SimilarityStrategy.QGRAM,
                word_model_ctx.catalog,
            ).messages
            for d in (0, 1, 2, 3)
        ]
        assert costs == sorted(costs)

    def test_adaptive_itself_not_predictable(self, word_model_ctx):
        from repro.core.errors import ExecutionError

        model = StrategyCostModel(word_model_ctx.network)
        with pytest.raises(ExecutionError):
            model.predict(
                "apple", TEXT_ATTR, 1, SimilarityStrategy.ADAPTIVE
            )


class TestLatency:
    """The latency leg: the one model of query response time."""

    def test_network_time_grows_with_partitions(self):
        assert network_time_ms(1024, 2) > network_time_ms(16, 2)

    def test_compute_time_linear_in_comparisons(self):
        assert compute_time_ms(1000) == pytest.approx(COMPARISON_COST_US)
        assert compute_time_ms(3000) == pytest.approx(3 * compute_time_ms(1000))

    def test_network_time_counts_route_dissemination_and_return(self):
        # 0.5 * log2(16) routing hops + 2 dissemination levels + 1 return.
        assert network_time_ms(16, 2) == 5 * HOP_LATENCY_MS

    def test_network_time_floors_tiny_overlays(self):
        """A one-partition overlay still pays half a routing hop."""
        assert network_time_ms(1, 0) == network_time_ms(2, 0)
        assert network_time_ms(1, 0) == 1.5 * HOP_LATENCY_MS

    def test_compute_time_zero_without_comparisons(self):
        assert compute_time_ms(0) == 0.0

    def test_latency_is_network_time_without_statistics(self):
        """No catalog, no expected comparisons: only hops remain."""
        ctx = build_ctx([f"word{i:02d}" for i in range(40)], 64)
        model = StrategyCostModel(ctx.network)
        hop_grid = {
            network_time_ms(ctx.network.n_partitions, depth)
            for depth in range(16)
        }
        predictions = model.predict_all("word01", ATTR, 1, catalog=None)
        for name, prediction in predictions.items():
            assert prediction.latency_ms in hop_grid, name

    def test_naive_slower_than_qsamples(self, bible_setting):
        """Section 6: naive message counts hide poor response times.

        800 bible words on 512 peers, every 60th word at ``d=2``: the
        naive broadcast's dissemination through the whole region and its
        per-peer scans must predict a longer response than q-samples'.
        """
        engine, words = bible_setting
        assert len(words) == 14
        for word in words:
            predictions = engine.predict_similar(word, TEXT_ATTRIBUTE, 2)
            assert (
                predictions[SimilarityStrategy.NAIVE.value].latency_ms
                > predictions[SimilarityStrategy.QSAMPLE.value].latency_ms
            ), word

    def test_qsamples_not_slower_than_qgrams(self, bible_setting):
        """Fewer gram lookups never lengthen the predicted response."""
        engine, words = bible_setting
        for d in (1, 2):
            for word in words:
                predictions = engine.predict_similar(
                    word, TEXT_ATTRIBUTE, d
                )
                assert (
                    predictions[SimilarityStrategy.QSAMPLE.value].latency_ms
                    <= predictions[SimilarityStrategy.QGRAM.value].latency_ms
                ), (word, d)

    def test_naive_latency_grows_faster_with_network(self):
        """Naive disseminates through the region; grams stay logarithmic."""
        words = [f"word{i:02d}" for i in range(40)]
        small = StrategyCostModel(build_ctx(words, 16).network)
        large = StrategyCostModel(build_ctx(words, 256).network)

        def growth(strategy):
            return (
                large.predict("word01", ATTR, 1, strategy).latency_ms
                - small.predict("word01", ATTR, 1, strategy).latency_ms
            )

        assert growth(SimilarityStrategy.NAIVE) > 0
        assert growth(SimilarityStrategy.NAIVE) > growth(
            SimilarityStrategy.QSAMPLE
        )


class TestChoose:
    def test_decision_shape(self, word_model_ctx):
        model = StrategyCostModel(word_model_ctx.network)
        decision = model.choose("apple", TEXT_ATTR, 1, word_model_ctx.catalog)
        assert isinstance(decision, StrategyDecision)
        assert decision.chosen in CANDIDATE_STRATEGIES
        assert decision.chosen.is_physical
        assert decision.predicted is decision.predictions[decision.chosen.value]
        assert decision.actual_messages is None
        decision.record_actual(10, 200)
        assert decision.actual_messages == 10
        assert "->" in decision.summary()

    def test_empty_statistics_fallback(self):
        """No catalog: the decision degrades to structure, still sane."""
        ctx = build_ctx(["alpha", "beta", "gamma"], 16)
        model = StrategyCostModel(ctx.network)
        decision = model.choose("alpha", ATTR, 1, catalog=None)
        assert decision.chosen.is_physical
        assert set(decision.predictions) == {
            s.value for s in CANDIDATE_STRATEGIES
        }

    def test_deterministic(self, word_model_ctx):
        model = StrategyCostModel(word_model_ctx.network)
        first = model.choose("apple", TEXT_ATTR, 2, word_model_ctx.catalog)
        second = model.choose("apple", TEXT_ATTR, 2, word_model_ctx.catalog)
        assert first.chosen is second.chosen
        assert first.predicted.messages == second.predicted.messages


class TestAdaptiveOperator:
    def test_adaptive_matches_brute_force(self):
        """Whatever the model picks, results stay correct."""
        words = ["apple", "apply", "ample", "maple", "grape", "grace"]
        ctx = build_ctx(words, 24)
        ctx.strategy = SimilarityStrategy.ADAPTIVE
        result = similar(ctx, "aple", ATTR, 1)
        expected = sorted(w for w in words if edit_distance("aple", w) <= 1)
        assert sorted(m.matched for m in result.matches) == expected
        assert result.extras.get("adaptive") == 1

    def test_decision_logged_with_actuals(self):
        ctx = build_ctx(["apple", "apply", "ample"], 16)
        ctx.strategy = SimilarityStrategy.ADAPTIVE
        assert ctx.decision_log == []
        similar(ctx, "apple", ATTR, 1)
        assert len(ctx.decision_log) == 1
        decision = ctx.decision_log[0]
        assert decision.search == "apple"
        assert decision.d == 1
        assert decision.actual_messages is not None
        assert decision.actual_messages > 0
        assert decision.actual_payload_bytes is not None

    def test_adaptive_without_stats_runs(self):
        """Empty-catalog fallback through the operator path."""
        ctx = build_ctx(["solo"], 8)
        ctx.strategy = SimilarityStrategy.ADAPTIVE
        result = similar(ctx, "solo", ATTR, 0)
        assert [m.matched for m in result.matches] == ["solo"]
        assert ctx.catalog is None
        assert ctx.cost_model is not None  # lazily created

    def test_collected_variant_resolves_adaptive(self):
        """The non-delegated operator resolves ADAPTIVE the same way."""
        from repro.query.operators.collected import similar_collected

        words = ["apple", "apply", "ample", "maple", "grape", "grace"]
        ctx = build_ctx(words, 24)
        ctx.strategy = SimilarityStrategy.ADAPTIVE
        result = similar_collected(ctx, "aple", ATTR, 1)
        expected = sorted(w for w in words if edit_distance("aple", w) <= 1)
        assert sorted(m.matched for m in result.matches) == expected
        assert result.extras.get("adaptive") == 1
        assert len(ctx.decision_log) == 1
        assert ctx.decision_log[0].actual_messages is not None

    def test_from_name(self):
        assert (
            SimilarityStrategy.from_name("adaptive")
            is SimilarityStrategy.ADAPTIVE
        )


class TestRankingProperty:
    """The acceptance bound: the model's pick is never a disaster.

    On small random networks the strategy the model ranks cheapest must
    measure within 2x of the actually-cheapest strategy (plus a small
    absolute slack for degenerate, single-digit-message cases).
    """

    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(
            st.text(alphabet="abcdef", min_size=2, max_size=10),
            min_size=4,
            max_size=16,
            unique=True,
        ),
        st.integers(min_value=8, max_value=48),
        st.integers(min_value=0, max_value=2),
    )
    def test_predicted_ranking_tracks_measured_messages(
        self, words, n_peers, d
    ):
        ctx = build_ctx(words, n_peers)
        ctx.catalog = collect_statistics(ctx, [ATTR], sample_partitions=8)
        model = StrategyCostModel(ctx.network)
        query = words[0]
        decision = model.choose(query, ATTR, d, ctx.catalog)
        tracer = ctx.network.tracer
        measured = {}
        for strategy in CANDIDATE_STRATEGIES:
            before = tracer.snapshot()
            similar(ctx, query, ATTR, d, initiator_id=0, strategy=strategy)
            measured[strategy] = before.delta(tracer.snapshot()).messages
        best = min(measured.values())
        assert measured[decision.chosen] <= 2 * best + 16
