"""Workload ``fig1-bible``: the paper's Section 6 query mix.

"In each test we processed a mix of 6 queries initiated 40 times.  The
set consists of three top-N queries, filtering the N = 5, 10, 15 nearest
neighbors to a provided search string (up to a maximal distance of 5),
and three similarity self-joins over one column ... d = 1, 2, 3."

The mix is drawn once per run from the seed (ten repetitions: 60 queries,
each with a search string from the corpus and a random initiating peer)
and replayed under ``qsamples``, ``qgrams``, ``strings`` (naive
broadcast) and ``adaptive`` on one engine, one caller, closed loop: the
paper's cell, in which later strategies find the memos earlier ones
filled.  The run repeats that cycle, each time on a fresh engine over
the same network, until the cycles have taken ``seconds`` and there are
at least ``MIN_PASSES`` of them.  Each query's time is its fastest over
the cycles; latency percentiles are over the 240 queries of a cycle
(enough samples beyond p95), and throughput is a cycle's queries over
the sum of their times.

Messages, kilobytes and recall come from the first cycle, which every
run completes, so they repeat exactly for a seed.
"""

from __future__ import annotations

import itertools
import random
import time

from perfbench.common import (
    CORPUS_SEED,
    MIN_PASSES,
    HostSpeed,
    RunResult,
    digest,
    edit_distance,
    fastest,
    median_setup,
    memo_delta,
    memo_layer_figures,
    peak_rss_mb,
    percentile,
    pool_layer_figures,
    record_scales,
    scale_setup,
    stratified,
)
from perfbench.layers import TARGETS
from perfbench.spans import operation
from repro.bench.experiment import PreparedDataset
from repro.core.config import StoreConfig
from repro.datasets.bible import TEXT_ATTRIBUTE, bible_triples
from repro.engine import QueryEngine
from repro.query.operators.simjoin import anchored_sim_join
from repro.query.operators.topn import top_n_string_nn
from repro.storage.qgrams import guaranteed_complete

#: The paper's mix (copied from Section 6).
TOP_N_SIZES = (5, 10, 15)
TOP_N_MAX_DISTANCE = 5
JOIN_DISTANCES = (1, 2, 3)
#: Repetitions of the 6-query mix per run (the paper ran 40).
REPETITIONS = 10

#: The six queries of the mix, in the order each repetition issues them.
MIX = tuple(("topn", n) for n in TOP_N_SIZES) + tuple(
    ("join", d) for d in JOIN_DISTANCES
)

WORDS = 8000
PEERS = 2048
STRATEGIES = ("qsamples", "qgrams", "strings", "adaptive")
NAIVE = "strings"


def make_queries(words: list[str], n_peers: int, seed: int) -> list[tuple]:
    """``(kind, parameter, search, initiator)`` for every query of the mix.

    Each of the six queries gets its ``REPETITIONS`` search strings by
    stratified sampling: one word from each length decile of the corpus,
    in random order.  Query cost follows the search string's length, so
    this keeps every seed's mix as long or short as the corpus and the
    runs of different seeds comparable.
    """
    rng = random.Random(seed)
    searches = {
        (kind, parameter): stratified(words, REPETITIONS, rng)
        for kind, parameter in MIX
    }
    return [
        (kind, parameter, searches[kind, parameter][rep], rng.randrange(n_peers))
        for rep in range(REPETITIONS)
        for kind, parameter in MIX
    ]


def build():
    """The network holding the corpus, and a fresh engine over it."""

    triples = bible_triples(WORDS, seed=CORPUS_SEED)
    config = StoreConfig(seed=CORPUS_SEED, index_values=False, index_schema_grams=False)
    network = PreparedDataset.prepare(triples, config).build_network(PEERS)
    return network, fresh_engine(network), [str(t.value) for t in triples]


def fresh_engine(network):
    """An engine with empty memos and pool and analyzed statistics.

    Every context it hands out seeds its own RNG, so a cycle replayed on
    a fresh engine repeats the first cycle's work and messages exactly.
    """

    engine = QueryEngine(network)
    engine.analyze([TEXT_ATTRIBUTE])
    return engine


class Answer:
    """One query's answer, reduced to what the checks compare."""

    __slots__ = ("final", "probes")

    def __init__(self, final: frozenset, probes: dict[tuple, frozenset]):
        self.final = final  # top-N: (oid, distance); join: (left, right, distance)
        # (radius, position) -> {(oid, matched, distance)}; top-N probes
        # once per radius (position 0), a join once per left object in
        # (oid, value) order at the join's radius.
        self.probes = probes

    def __eq__(self, other) -> bool:
        return self.final == other.final and self.probes == other.probes


def run_query(ctx, attribute: str, query: tuple) -> Answer:
    kind, parameter, search, initiator = query
    if kind == "topn":
        result = top_n_string_nn(
            ctx,
            attribute,
            search,
            parameter,
            max_distance=TOP_N_MAX_DISTANCE,
            initiator_id=initiator,
            strategy=ctx.strategy,
        )
        final = frozenset((m.oid, m.matched, m.distance) for m in result.matches)
        keys = [(radius, 0) for radius in range(len(result.probe_results))]
    else:
        result = anchored_sim_join(
            ctx,
            attribute,
            search,
            attribute,
            parameter,
            initiator_id=initiator,
            strategy=ctx.strategy,
        )
        final = frozenset(
            (p.left.oid, p.right.oid, p.right.matched, p.distance)
            for p in result.pairs
        )
        keys = [(parameter, position) for position in range(len(result.probe_results))]
    probes = {
        key: frozenset((m.oid, m.matched, m.distance) for m in probe.matches)
        for key, probe in zip(keys, result.probe_results)
    }
    return Answer(final, probes)


def check_cycle(queries, answers: dict, q: int, result: RunResult) -> tuple[int, int]:
    """Check the first cycle's answers; returns recall's (found, expected).

    Every distance must equal the reference edit distance and lie within
    the query's bound.  Against the naive broadcast's answer to the same
    query: each probe at radius ``r`` equals naive's probe at the same
    radius and position where
    ``guaranteed_complete(len(search), q, r)`` holds and is a subset of
    it elsewhere; the final answer equals naive's when every radius the
    query probed is guaranteed.
    """

    found = expected = 0
    for index, query in enumerate(queries):
        kind, parameter, search, __ = query
        bound = TOP_N_MAX_DISTANCE if kind == "topn" else parameter
        naive = answers[NAIVE, index]
        for strategy in STRATEGIES:
            answer = answers[strategy, index]
            label = f"{strategy} {kind}({parameter}, {search!r})"
            for probe in answer.probes.values():
                for __, matched, distance in probe:
                    if distance != edit_distance(search, matched) or distance > bound:
                        result.fail(f"{label}: wrong distance {distance} for {matched!r}")
            if strategy == NAIVE:
                continue
            complete = True
            for (radius, position), probe in answer.probes.items():
                guaranteed = guaranteed_complete(len(search), q, radius)
                complete = complete and guaranteed
                reference = naive.probes.get((radius, position))
                if reference is None:
                    continue
                where = f"radius {radius} probe {position}"
                if guaranteed and probe != reference:
                    result.fail(f"{label}: {where} differs from naive")
                elif not probe <= reference:
                    result.fail(f"{label}: {where} not within naive's")
            if complete and answer.final != naive.final:
                result.fail(f"{label}: answer differs from naive")
            found += len(answer.final & naive.final)
            expected += len(naive.final)
    return found, expected


def run(seed: int, seconds: float, tracer=None) -> RunResult:
    result = RunResult()
    setup_speed = HostSpeed()
    setup_s, (network, engine, words) = median_setup(build, setup_speed)
    queries = make_queries(words, PEERS, seed)
    result.inputs_digest = digest({"corpus": words, "queries": queries})
    network_tracer = network.tracer

    speed = HostSpeed()
    answers: dict[tuple[str, int], Answer] = {}
    mismatched = 0
    passes: list[list[float]] = []
    scales: list[float] = []
    elapsed = 0.0
    cycles = 0
    memo_before = engine.memo_stats()
    pool_before = engine.verifier_stats()
    messages_before = network_tracer.message_count
    bytes_before = network_tracer.payload_bytes
    if tracer is not None:
        tracer.install(TARGETS)
    clock = time.perf_counter
    ops = itertools.count()
    try:
        # Whole cycles, each on a fresh engine, so every run measures the
        # same mix of work however many cycles fit in ``seconds``.
        while cycles < MIN_PASSES or elapsed < seconds:
            if cycles:
                engine = fresh_engine(network)
            contexts = {name: engine.context(strategy=name) for name in STRATEGIES}
            times = []
            mark = len(speed.slices)
            speed.slice()
            started = clock()
            for strategy in STRATEGIES:
                for index, query in enumerate(queries):
                    with operation(tracer, next(ops)):
                        op_started = clock()
                        answer = run_query(contexts[strategy], TEXT_ATTRIBUTE, query)
                        times.append(clock() - op_started)
                    speed.between_operations()
                    if answers.setdefault((strategy, index), answer) != answer:
                        mismatched += 1
            elapsed += clock() - started
            passes.append(times)
            scales.append(speed.scale(since=mark))
            cycles += 1
            if cycles == 1:
                cycle_messages = network_tracer.message_count - messages_before
                cycle_bytes = network_tracer.payload_bytes - bytes_before
                result.layer.update(
                    memo_layer_figures(memo_delta(memo_before, engine.memo_stats()))
                )
                result.layer.update(
                    pool_layer_figures(pool_before, engine.verifier_stats())
                )
    finally:
        if tracer is not None:
            tracer.uninstall()

    # Before the checks, which build reference systems of their own.
    result.metrics["peak_rss_mb"] = peak_rss_mb()
    result.attempted = sum(map(len, passes))
    if mismatched:
        result.fail(f"{mismatched} replayed answers differ from the first cycle's")
    found, expected = check_cycle(queries, answers, network.config.q, result)
    per_cycle = len(STRATEGIES) * len(queries)
    latencies = fastest(passes, scales)
    result.metrics.update(
        setup_s=setup_s,
        throughput_ops_s=per_cycle / sum(latencies),
        messages_per_op=cycle_messages / per_cycle,
        kbytes_per_op=cycle_bytes / 1024.0 / per_cycle,
        recall=found / expected if expected else 1.0,
    )
    # A traced run reports no latency.
    if tracer is None:
        result.metrics["latency_p50_ms"] = percentile(latencies, 0.50) * 1000.0
        result.metrics["latency_p95_ms"] = percentile(latencies, 0.95) * 1000.0
    result.extra["cycles"] = (cycles, "count")
    scale_setup(result, setup_speed)
    record_scales(result, speed, scales, per_cycle / sum(fastest(passes)))
    return result
