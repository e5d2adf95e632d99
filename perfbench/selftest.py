"""Self-tests of the benchmark's own machinery.

Run from the root of a checkout::

    PYTHONPATH=src:. python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import asyncio
import json
import random
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from perfbench import fig1, servezipf, writemix
from perfbench.common import (
    MIN_TAIL_SAMPLES,
    REFERENCE_SLICE_S,
    HostSpeed,
    RunResult,
    TailTooThin,
    fastest,
    percentile,
    scale_setup,
)
from perfbench.layers import MOVES, TARGETS
from perfbench.spans import SpanBuffer, Tracer, resolve, self_times


def _buffer(spans):
    """A buffer holding ``(start, end, parent)`` spans, in start order."""
    buffer = SpanBuffer("test")
    for start, end, parent in spans:
        buffer.name.append(0)
        buffer.start.append(start)
        buffer.end.append(end)
        buffer.parent.append(parent)
        buffer.op.append(0)
        buffer.first.append(1)
    return buffer


def test_self_time_subtracts_children_once_and_clips_them():
    buffer = _buffer(
        [
            (0.0, 10.0, -1),  # 0: root
            (1.0, 3.0, 0),  # 1: child
            (1.5, 2.5, 1),  # 2: grandchild
            (2.0, 5.0, 0),  # 3: child overlapping child 1
            (8.0, 12.0, 0),  # 4: child running past the root's end
        ]
    )
    got = self_times(buffer)
    assert got[0] == pytest.approx(10.0 - 4.0 - 2.0)  # [1, 5] and [8, 10]
    assert got[1] == pytest.approx(2.0 - 1.0)
    assert got[2] == pytest.approx(1.0)
    assert got[3] == pytest.approx(3.0)
    assert got[4] == pytest.approx(4.0)


def test_spans_on_other_threads_are_not_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.05))
    started = threading.Barrier(2)

    def outer_body():
        started.wait()
        time.sleep(0.05)

    outer = tracer.wrap("outer", outer_body)
    worker = threading.Thread(target=lambda: (started.wait(), inner()))
    worker.start()
    outer()
    worker.join(timeout=5)
    assert not worker.is_alive()
    totals = tracer.layer_totals()
    # The inner span overlapped the outer one in time, but on another
    # thread, so the outer span keeps all of its time as self time.
    assert totals["outer"]["self_s"] >= 0.045
    assert totals["inner"]["self_s"] >= 0.045
    for buffer in tracer.buffers():
        assert list(buffer.parent) == [-1]


def test_nested_wrapped_calls_split_self_time():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: time.sleep(0.02))

    def middle_body():
        time.sleep(0.02)
        leaf()

    middle = tracer.wrap("middle", middle_body)
    index = tracer.begin_op(7)
    middle()
    tracer.end_op(index)
    totals = tracer.layer_totals()
    assert totals["middle"]["calls"] == totals["leaf"]["calls"] == 1
    assert 0.015 <= totals["middle"]["self_s"] < 0.035
    assert 0.015 <= totals["leaf"]["self_s"] < 0.035
    assert totals["op"]["self_s"] < 0.01
    (buffer,) = tracer.buffers()
    assert list(buffer.op) == [7, 7, 7]


def test_coroutines_are_charged_for_steps_not_suspension():
    tracer = Tracer()

    async def body():
        time.sleep(0.02)  # busy, on the loop thread
        await asyncio.sleep(0.1)  # suspended
        return 3

    traced = tracer.wrap("co", body)
    assert asyncio.run(traced()) == 3
    totals = tracer.layer_totals()
    assert totals["co"]["calls"] == 1
    assert 0.015 <= totals["co"]["self_s"] < 0.08


def test_generators_are_charged_per_step():
    tracer = Tracer()

    def produce():
        for value in range(3):
            time.sleep(0.01)
            yield value

    traced = tracer.wrap("gen", produce)
    assert list(traced()) == [0, 1, 2]
    totals = tracer.layer_totals()
    assert totals["gen"]["calls"] == 1
    assert totals["gen"]["self_s"] >= 0.025


def test_percentile_flags_thin_tails():
    assert percentile(range(1, 101), 0.5) == 50
    with pytest.raises(TailTooThin):
        percentile(range(999), 0.99)
    assert percentile(range(1000), 0.99) == 989  # 10 samples beyond
    with pytest.raises(TailTooThin):
        percentile(range(100), 0.95)
    tail = 20 * MIN_TAIL_SAMPLES
    assert percentile(range(tail), 0.95) == 189


WORDS = [f"w{index:04d}abc" for index in range(400)]


def test_fig1_queries_follow_the_seed():
    assert fig1.make_queries(WORDS, 2048, 3) == fig1.make_queries(WORDS, 2048, 3)
    assert fig1.make_queries(WORDS, 2048, 3) != fig1.make_queries(WORDS, 2048, 4)
    queries = fig1.make_queries(WORDS, 2048, 3)
    assert len(queries) == 6 * fig1.REPETITIONS
    assert [q[:2] for q in queries[:6]] == [
        ("topn", 5), ("topn", 10), ("topn", 15), ("join", 1), ("join", 2), ("join", 3)
    ]


def test_serve_schedule_and_requests_follow_the_seed():
    def plan(seed):
        rng = random.Random(seed)
        requests = servezipf.plan_requests(WORDS, 300, rng)
        return requests, servezipf.poisson_schedule(300, 50.0, rng)

    assert plan(5) == plan(5)
    other_requests, other_schedule = plan(6)
    requests, schedule = plan(5)
    assert requests != other_requests and schedule != other_schedule
    assert all(b > a for a, b in zip(schedule, schedule[1:]))
    assert not any(
        payload.get("strategy") in ("strings", "naive") for __, __, payload in requests
    )


def test_write_steps_follow_the_seed():
    assert writemix.make_steps(WORDS, 2) == writemix.make_steps(WORDS, 2)
    assert writemix.make_steps(WORDS, 2) != writemix.make_steps(WORDS, 3)
    pool, steps = writemix.make_steps(WORDS, 2)
    assert len(steps) == writemix.ROUND_STEPS
    assert steps[1][1] == "delete" and steps[1][2] == steps[0][2]
    assert steps[-1][1] == "delete"  # a round ends on the corpus alone
    reads = Counter(read for step in steps for read in step[0])
    assert set(reads) == {
        (word, d) for word in pool for d in set(writemix.READ_DISTANCES)
    }
    for d in set(writemix.READ_DISTANCES):
        share = writemix.READ_DISTANCES.count(d)
        assert {reads[word, d] for word in pool} == {share * writemix._READ_REPEATS}


def test_fastest_takes_each_operations_minimum():
    assert fastest([[3.0, 1.0, 2.0], [1.0, 4.0, 2.5]]) == [1.0, 1.0, 2.0]
    with pytest.raises(ValueError):
        fastest([[1.0], [1.0, 2.0]])


def test_each_pass_scales_to_the_reference_host_before_the_fastest():
    speed = HostSpeed()
    speed.slices = [REFERENCE_SLICE_S] * 4 + [2 * REFERENCE_SLICE_S] * 4
    assert speed.scale() == 1.0 and speed.scale(since=4) == 0.5
    # The second pass ran at half speed: scaled, it is the faster one.
    assert fastest([[4.0, 1.0], [6.0, 4.0]], [1.0, 0.5]) == [3.0, 1.0]
    setup_speed = HostSpeed()
    setup_speed.slices = [4 * REFERENCE_SLICE_S] * 4  # a quarter speed while building
    result = RunResult()
    result.metrics.update(setup_s=2.0, recall=0.5)
    scale_setup(result, setup_speed)
    assert result.metrics == {"setup_s": 0.5, "recall": 0.5}
    assert result.extra["setup_s.raw"] == (2.0, "s")


def test_host_speed_slices_only_when_due():
    speed = HostSpeed()
    for __ in range(5):
        speed.between_operations()
    assert len(speed.slices) == 1  # the next is due SLICE_INTERVAL later
    assert speed.scale() > 0


def test_fig1_checks_every_join_probe():
    # A join probes once per left object; a wrong distance in the first
    # probe must be caught, not only in the last.
    query = ("join", 1, "abc", 0)
    answer = fig1.Answer(
        frozenset(),
        {(1, 0): frozenset({(2, "xyz", 1)}), (1, 1): frozenset({(1, "abd", 1)})},
    )
    answers = {(strategy, 0): answer for strategy in fig1.STRATEGIES}
    result = RunResult()
    fig1.check_cycle([query], answers, 2, result)
    assert result.failures
    assert all("wrong distance 1 for 'xyz'" in failure for failure in result.failures)


def test_load_generator_stays_within_the_inflight_limit(monkeypatch):
    for cpus in (1, 2, 64):
        monkeypatch.setattr(servezipf.os, "sched_getaffinity", lambda pid: range(cpus))
        assert 1 <= servezipf.connections() <= servezipf.SERVICE_CONFIG.max_inflight
        assert servezipf.connections() <= cpus


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert list(MOVES) == [metric["name"] for metric in spec["per_layer"]]


def _holders():
    """Every place a traced entry point lives, with what it holds now."""
    import sys

    places = {}
    for target in TARGETS:
        holder, original = resolve(target)
        if isinstance(holder, type):
            places[holder, target.attribute] = original
            continue
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for attribute, value in vars(module).items():
                    if value is original:
                        places[module, attribute] = original
    return places


def test_tracer_restores_every_wrapped_attribute():
    import repro.engine  # noqa: F401  (load the modules that copy functions)
    import repro.query.operators.topn as topn
    import repro.serve.http  # noqa: F401
    from repro.serve.app import QueryService

    before = _holders()
    handle, run = QueryService.__dict__["handle"], QueryService.__dict__["_run"]
    tracer = Tracer()
    tracer.install(TARGETS)
    servezipf.AppProbe(tracer)
    assert topn.similar is not before[topn, "similar"]
    assert QueryService.__dict__["handle"] is not handle
    tracer.uninstall()
    assert _holders() == before
    assert QueryService.__dict__["handle"] is handle
    assert QueryService.__dict__["_run"] is run


def test_untraced_run_leaves_every_attribute_original(monkeypatch):
    import repro.engine  # noqa: F401

    monkeypatch.setattr(writemix, "WORDS", 300)
    monkeypatch.setattr(writemix, "PEERS", 16)
    before = _holders()
    result = writemix.run(1, 0.01)
    assert not result.failures
    assert result.metrics["recall"] == 1.0
    assert _holders() == before
