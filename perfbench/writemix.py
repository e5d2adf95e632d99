"""Workload ``write-mix``: similarity reads interleaved with writes.

An in-process engine with replication 3 holds 4000 bible words on 256
peers.  Each step runs ``READS_PER_STEP`` similarity reads whose search
strings come from a fixed pool of stored words, then one write: even
steps insert a batch of near-duplicates of pool words (one substituted
character each, so they land in the partitions the reads scan and show
up in their answers), odd steps delete that batch again, cycling through
four such batches.  A round of ``ROUND_STEPS`` steps reads every pool
word at every distance of ``READ_DISTANCES`` equally often, in an order
drawn from the seed, and ends with the corpus alone stored.  The run
repeats the round until the rounds have taken ``seconds`` and there are
at least ``MIN_PASSES`` of them.  Closed loop, one caller.

Each operation's time is its fastest over the rounds: read latency
percentiles are over a round's reads, and throughput is a round's
operations over the sum of their times.

Checks, untimed: after the timed loop a ``memoize=False`` reference engine
answers every read the rounds made, and every read must return exactly
the reference answer.  Recall counts the matches a read returned against
the true answer, a plain scan of the stored strings.

Messages, kilobytes and recall come from the first round, which every
run completes, so they repeat exactly for a seed.
"""

from __future__ import annotations

import itertools
import random
import string
import time

from perfbench.common import (
    CORPUS_SEED,
    MIN_PASSES,
    HostSpeed,
    RunResult,
    bounded_distances,
    digest,
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
from repro.core.config import StoreConfig
from repro.datasets.bible import TEXT_ATTRIBUTE, bible_triples
from repro.engine import QueryEngine
from repro.storage.triple import Triple

WORDS = 4000
PEERS = 256
REPLICATION = 3
QUERY_POOL = 24
READS_PER_STEP = 4
READ_DISTANCES = (1, 1, 2)
WRITE_BATCH = 8
#: Distinct write batches a round cycles through.
BATCHES = 4
#: Steps of one round: even, so the round ends on a delete, and its
#: 216 reads take each pool word three times through ``READ_DISTANCES``
#: and leave 10 samples beyond p95.
ROUND_STEPS = 54
_READ_REPEATS, _rest = divmod(
    ROUND_STEPS * READS_PER_STEP, QUERY_POOL * len(READ_DISTANCES)
)
assert ROUND_STEPS % 2 == 0 and _rest == 0


def make_steps(words: list[str], seed: int) -> tuple[list[str], list[tuple]]:
    """The pool and ``(reads, write kind, batch)`` for every step of a round.

    The pool is a stratified sample, one word per length stratum, so
    every seed reads words as long or short as the corpus, and a round
    reads each pool word at each distance equally often.  Even steps
    insert the next of ``BATCHES`` batches in turn and odd steps delete
    it again, so only ``BATCHES + 1`` stored states ever occur (see
    ``_reference``).
    """
    rng = random.Random(seed + 23)
    pool = stratified(words, QUERY_POOL, rng)
    batches = [
        tuple(
            (f"mix:{b}:{i}", _near_duplicate(rng, rng.choice(pool)))
            for i in range(WRITE_BATCH)
        )
        for b in range(BATCHES)
    ]
    reads = [(search, d) for search in pool for d in READ_DISTANCES] * _READ_REPEATS
    rng.shuffle(reads)
    steps = []
    for step in range(ROUND_STEPS):
        batch = batches[step // 2 % BATCHES]
        steps.append((
            tuple(reads[step * READS_PER_STEP:(step + 1) * READS_PER_STEP]),
            "delete" if step % 2 else "insert",
            batch,
        ))
    return pool, steps


def _near_duplicate(rng: random.Random, word: str) -> str:
    position = rng.randrange(len(word))
    replacement = rng.choice(
        [c for c in string.ascii_lowercase if c != word[position]]
    )
    return word[:position] + replacement + word[position + 1:]


def build(memoize: bool = True):
    triples = bible_triples(WORDS, seed=CORPUS_SEED)
    config = StoreConfig(
        seed=CORPUS_SEED,
        replication=REPLICATION,
        index_values=False,
        index_schema_grams=False,
    )
    engine = QueryEngine.build(
        n_peers=PEERS, triples=triples, config=config, memoize=memoize
    )
    if memoize:
        engine.analyze([TEXT_ATTRIBUTE])
    return engine, [(t.oid, str(t.value)) for t in triples]


def _triples(batch):
    return [Triple(oid, TEXT_ATTRIBUTE, value) for oid, value in batch]


def _read(engine, search: str, d: int) -> frozenset:
    result = engine.similar(search, TEXT_ATTRIBUTE, d)
    return frozenset((m.oid, m.matched, m.distance) for m in result.matches)


def _write(engine, kind: str, batch) -> None:
    if kind == "insert":
        engine.insert(_triples(batch))
    else:
        engine.delete(_triples(batch))


def _reads(steps):
    """``(stored batch, search, d)`` for every read of ``steps``, in order."""
    stored: tuple = ()
    for reads, kind, batch in steps:
        for search, d in reads:
            yield stored, search, d
        stored = batch if kind == "insert" else ()


def _reference(pool, batches) -> dict[tuple, frozenset]:
    """Answers of a ``memoize=False`` engine to every read the steps make.

    A read's answer depends only on what is stored, and the steps only
    ever store the corpus plus at most one of ``batches``.  So the
    reference engine visits each of those stored states once, through the
    same insert and delete operations, and answers every pool read there.
    """
    engine, __ = build(memoize=False)
    answers = {}
    for stored in ((), *batches):
        if stored:
            _write(engine, "insert", stored)
        for search in pool:
            for d in set(READ_DISTANCES):
                answers[stored, search, d] = _read(engine, search, d)
        if stored:
            _write(engine, "delete", stored)
    return answers


def run(seed: int, seconds: float, tracer=None) -> RunResult:
    result = RunResult()
    setup_speed = HostSpeed()
    setup_s, (engine, corpus) = median_setup(build, setup_speed)
    words = [value for __, value in corpus]
    pool, steps = make_steps(words, seed)
    result.inputs_digest = digest({"corpus": words, "pool": pool, "steps": steps})
    network_tracer = engine.network.tracer
    memo_before = engine.memo_stats()
    pool_before = engine.verifier_stats()

    speed = HostSpeed()
    answers: list[frozenset] = []
    passes: list[list[float]] = []
    scales: list[float] = []
    elapsed = 0.0
    messages_before = network_tracer.message_count
    bytes_before = network_tracer.payload_bytes
    if tracer is not None:
        tracer.install(TARGETS)
    clock = time.perf_counter
    ops = itertools.count()
    try:
        while len(passes) < MIN_PASSES or elapsed < seconds:
            times = []
            mark = len(speed.slices)
            speed.slice()
            started = clock()
            for reads, kind, batch in steps:
                for search, d in reads:
                    with operation(tracer, next(ops)):
                        op_started = clock()
                        answers.append(_read(engine, search, d))
                        times.append(clock() - op_started)
                    speed.between_operations()
                with operation(tracer, next(ops)):
                    op_started = clock()
                    _write(engine, kind, batch)
                    times.append(clock() - op_started)
                speed.between_operations()
            elapsed += clock() - started
            passes.append(times)
            scales.append(speed.scale(since=mark))
            if len(passes) == 1:
                round_messages = network_tracer.message_count - messages_before
                round_bytes = network_tracer.payload_bytes - bytes_before
    finally:
        if tracer is not None:
            tracer.uninstall()
    # Before the checks, which build reference systems of their own.
    result.metrics["peak_rss_mb"] = peak_rss_mb()
    result.layer.update(memo_layer_figures(memo_delta(memo_before, engine.memo_stats())))
    result.layer.update(pool_layer_figures(pool_before, engine.verifier_stats()))
    engine = None  # release it before the reference is built

    expected = _reference(pool, dict.fromkeys(batch for __, __, batch in steps))
    wrong = sum(
        1
        for got, read in zip(answers, _reads(steps * len(passes)))
        if got != expected[read]
    )
    if wrong:
        result.fail(f"{wrong} of {len(answers)} reads differ from the reference engine")
    found, total = _recall(corpus, steps, answers)

    # Each step is READS_PER_STEP reads, then its write.
    op_times = fastest(passes, scales)
    per_step = READS_PER_STEP + 1
    read_times = [t for i, t in enumerate(op_times) if i % per_step != READS_PER_STEP]
    write_times = op_times[READS_PER_STEP::per_step]
    result.attempted = sum(map(len, passes))
    result.metrics.update(
        setup_s=setup_s,
        throughput_ops_s=len(op_times) / sum(op_times),
        messages_per_op=round_messages / len(op_times),
        kbytes_per_op=round_bytes / 1024.0 / len(op_times),
        recall=found / total if total else 1.0,
    )
    # A traced run reports no latency.
    if tracer is None:
        result.metrics["latency_p50_ms"] = percentile(read_times, 0.50) * 1000.0
        result.metrics["latency_p95_ms"] = percentile(read_times, 0.95) * 1000.0
        # A round writes ROUND_STEPS times, so p75 has a tail.
        for q in (50, 75):
            result.extra[f"write_latency_p{q}_ms"] = (
                percentile(write_times, q / 100.0) * 1000.0,
                "ms",
            )
    result.extra["rounds"] = (len(passes), "count")
    scale_setup(result, setup_speed)
    record_scales(result, speed, scales, len(op_times) / sum(fastest(passes)))
    return result


def _recall(corpus, steps, answers) -> tuple[int, int]:
    """Matches returned against a plain scan, over ``steps``' reads."""

    def scan(search, d, stored):
        values = [value for __, value in stored]
        return frozenset(
            (stored[index][0], values[index], distance)
            for index, distance in bounded_distances(search, values, d).items()
        )

    corpus_truths: dict[tuple, frozenset] = {}
    found = total = 0
    for got, (stored, search, d) in zip(answers, _reads(steps)):
        if (search, d) not in corpus_truths:
            corpus_truths[search, d] = scan(search, d, corpus)
        truth = corpus_truths[search, d] | scan(search, d, stored)
        found += len(got & truth)
        total += len(truth)
    return found, total
