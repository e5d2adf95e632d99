"""Workload ``serve-zipf``: the HTTP service under a zipf request mix.

The service (adaptive engine, statistics analyzed) serves 4000 bible
words on 256 peers over loopback.  The load is a zipf(1.1) popularity
mix of the service's six request kinds — similarity at d=1 and d=2,
top-N, streamed top-N, exact selection and a VQL round trip — with the
similarity strategy drawn from adaptive, qgrams and qsamples (no naive
requests).  The request mix below is copied from the service's load
harness so the two describe the same traffic.

The run makes ``PASSES`` passes, each on a freshly built service and
each sending the same requests on the same schedule.  An untimed warm-up
of 500 requests fills the caches first.  Phase A is an open loop at a
fixed Poisson rate over ``nproc`` keep-alive connections (at most the
service's in-flight limit); the latency metrics come from it, taking
each request's fastest pass.  Phase B is a closed loop over the same
connections; ``throughput_ops_s`` is its best pass.  One engine thread
serves every request, so phase B measures the service's capacity.

Checks, untimed: every reply is a 200 with a ``cost`` block, every stream
ends with its ``done`` line, and a seeded sample of phase A's requests is
replayed in process on an identically built service, whose answers must
match every pass's.  Recall counts the sampled answers' matches against
a plain scan of the corpus.
"""

from __future__ import annotations

import asyncio
import bisect
import contextvars
import itertools
import json
import math
import os
import random
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from perfbench.common import (
    CORPUS_SEED,
    MIN_LATENCY_SAMPLES,
    SLICE_INTERVAL,
    HostSpeed,
    RunResult,
    bounded_distances,
    digest,
    fastest,
    memo_delta,
    memo_layer_figures,
    peak_rss_mb,
    percentile,
    pool_layer_figures,
    record_scales,
    scale_setup,
    SETUP_REPEATS,
)
from perfbench.layers import TARGETS
from perfbench.loadgen import answer_of
from repro.core.config import StoreConfig
from repro.datasets.bible import TEXT_ATTRIBUTE, bible_triples
from repro.engine import QueryEngine
from repro.serve.app import QueryService, Request, ServiceConfig
from repro.serve.http import ServiceServer

WORDS = 4000
PEERS = 256
ZIPF_EXPONENT = 1.1
#: (kind, cumulative probability)
KIND_MIX = (
    ("similar_d1", 0.30),
    ("similar_d2", 0.45),
    ("topn", 0.60),
    ("topn_stream", 0.70),
    ("exact", 0.90),
    ("vql", 1.00),
)
#: (strategy, cumulative probability) within similarity and top-N requests
STRATEGY_MIX = (("adaptive", 0.50), ("qgrams", 0.80), ("qsamples", 1.00))
TOP_N_SIZES = (5, 10)
TOP_N_MAX_DISTANCE = 3
#: Requests sent, closed loop and untimed, before phase A, so that the
#: popular words' answers are cached as in a service that has been up.
WARMUP_REQUESTS = 500
#: Passes of warm-up, phase A and phase B, each on a fresh service.  Two
#: passes of 280 requests each kept p95 steadier across seeds than three
#: of 200: its tail is a few heavy requests, and more requests average it.
PASSES = 2
#: Share of ``--seconds`` given to phase A; phase B gets the rest.  Each
#: pass gets its ``1 / PASSES`` of both.
PHASE_A_SHARE = 0.8
#: Requests generated for phase B's closed loop (cycled if exhausted).
PHASE_B_REQUESTS = 4000
#: Phase A requests replayed in process and checked against a scan.
SAMPLE = 40
ATTRIBUTE = TEXT_ATTRIBUTE
ROOT = Path(__file__).resolve().parent.parent
SERVICE_CONFIG = ServiceConfig(max_inflight=8)


def connections() -> int:
    """The load generator's connections: ``nproc``, at most the service's
    in-flight limit, so no request is refused for capacity."""
    return min(len(os.sched_getaffinity(0)), SERVICE_CONFIG.max_inflight)


def stratified_uniforms(count: int, rng: random.Random) -> list[float]:
    """``count`` uniform draws, one from each of ``count`` equal strata,
    in random order.

    Every draw below (string rank, request kind, strategy, N, arrival
    gap) goes through these, so each seed's requests follow the mix's
    distributions almost exactly and seeds differ in order and pairing:
    plain draws left runs of different seeds tens of percent apart.
    """
    draws = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(draws)
    return draws


def plan_requests(words: list[str], count: int, rng: random.Random) -> list[tuple]:
    """``count`` requests ``(method, path, payload)`` of the zipf mix."""
    strings = sorted(set(words))
    cumulative = list(
        itertools.accumulate(1.0 / rank**ZIPF_EXPONENT for rank in range(1, len(strings) + 1))
    )
    requests = []
    draws = zip(*(stratified_uniforms(count, rng) for __ in range(4)))
    for kind_u, rank_u, strategy_u, n_u in draws:
        kind = next(name for name, cutoff in KIND_MIX if kind_u <= cutoff)
        strategy = next(name for name, cutoff in STRATEGY_MIX if strategy_u <= cutoff)
        rank = bisect.bisect_left(cumulative, rank_u * cumulative[-1])
        search = strings[min(len(strings) - 1, rank)]
        if kind in ("similar_d1", "similar_d2"):
            payload = {"search": search, "attribute": ATTRIBUTE,
                       "d": 1 if kind == "similar_d1" else 2, "strategy": strategy}
            requests.append(("POST", "/query/similar", payload))
        elif kind in ("topn", "topn_stream"):
            n = TOP_N_SIZES[int(n_u * len(TOP_N_SIZES))]
            payload = {"attribute": ATTRIBUTE, "search": search, "n": n,
                       "max_distance": TOP_N_MAX_DISTANCE, "strategy": strategy}
            path = "/query/topn" if kind == "topn" else "/query/topn/stream"
            requests.append(("POST", path, payload))
        elif kind == "exact":
            requests.append(("POST", "/query/exact",
                             {"attribute": ATTRIBUTE, "value": search}))
        else:
            text = (f"SELECT ?w WHERE {{ (?o,{ATTRIBUTE},?w) "
                    f"FILTER (dist(?w,'{search}') <= 1) }}")
            requests.append(("POST", "/query/vql", {"text": text}))
    return requests


def poisson_schedule(count: int, rate: float, rng: random.Random) -> list[float]:
    """Send offsets (s) of ``count`` arrivals at ``rate``/s, exponential gaps."""
    gaps = (-math.log(1.0 - u) / rate for u in stratified_uniforms(count, rng))
    return list(itertools.accumulate(gaps))


def make_plan(words: list[str], seed: int, seconds: float, rate: float,
              need: int) -> dict:
    """Every pass's requests and phase A schedule, from the seed.

    Phase A sends at least ``need`` requests, so its tail percentile has
    its samples.
    """
    rng = random.Random(seed + 17)
    count_a = max(need, math.ceil(rate * seconds * PHASE_A_SHARE / PASSES))
    plan = {
        "requests_warmup": plan_requests(words, WARMUP_REQUESTS, rng),
        "requests_a": plan_requests(words, count_a, rng),
        "schedule": poisson_schedule(count_a, rate, rng),
        "requests_b": plan_requests(words, PHASE_B_REQUESTS, rng),
        "seconds_b": seconds * (1.0 - PHASE_A_SHARE) / PASSES,
    }
    plan["sample"] = sorted(rng.sample(range(count_a), SAMPLE))
    return plan


def build_service():
    triples = bible_triples(WORDS, seed=CORPUS_SEED)
    engine = QueryEngine.build(
        n_peers=PEERS,
        triples=triples,
        config=StoreConfig(seed=CORPUS_SEED, index_values=False, index_schema_grams=False),
        strategy="adaptive",
    )
    engine.analyze([ATTRIBUTE])
    service = QueryService(engine, SERVICE_CONFIG)
    return service, [(t.oid, str(t.value)) for t in triples]


class AppProbe:
    """Times ``QueryService.handle`` and the engine work each request ran.

    ``handle`` is wrapped to give each request an operation id (carried
    to the engine thread through the service's dispatch seam, ``_run``)
    and its wall time; the engine function ``_run`` submits runs under a
    root ``op`` span with that id.  Queue wait is a request's handle time
    minus its engine time.
    """

    def __init__(self, tracer):
        self.walls: dict[int, float] = {}
        self.engine: dict[int, float] = defaultdict(float)
        op = contextvars.ContextVar("perfbench_op", default=-1)
        ids = itertools.count()
        original_handle = QueryService.__dict__["handle"]
        original_run = QueryService.__dict__["_run"]
        walls, engine = self.walls, self.engine
        clock = time.perf_counter

        async def handle(service, request):
            token = op.set(next(ids))
            started = clock()
            try:
                return await original_handle(service, request)
            finally:
                walls[op.get()] = clock() - started
                op.reset(token)

        async def run(service, fn, *args):
            op_id = op.get()

            def timed(*inner):
                span = tracer.begin_op(op_id)
                started = clock()
                try:
                    return fn(*inner)
                finally:
                    engine[op_id] += clock() - started
                    tracer.end_op(span)

            return await original_run(service, timed, *args)

        tracer.patch(QueryService, "handle", handle)
        tracer.patch(QueryService, "_run", run)

    def queue_wait_s(self) -> float:
        return sum(wall - self.engine.get(op, 0.0) for op, wall in self.walls.items())


def run(seed: int, seconds: float, tracer, rate: float) -> RunResult:
    return asyncio.run(_run(seed, seconds, tracer, rate))


async def _start():
    service, corpus = build_service()
    server = ServiceServer(service, "127.0.0.1", 0)
    await server.start()
    return service, server, corpus


async def _time_host(service, speed: HostSpeed, stop: asyncio.Event) -> None:
    """Time host-speed slices on the engine's thread until ``stop`` is set.

    The slices go straight to the service's one-worker executor, so they
    run on the thread that runs every engine operation, queued between
    requests, and outside the traced dispatch seam.
    """
    loop = asyncio.get_running_loop()
    while not stop.is_set():
        await loop.run_in_executor(service._pool, speed.slice)
        try:
            await asyncio.wait_for(stop.wait(), SLICE_INTERVAL)
        except asyncio.TimeoutError:
            pass


async def _stop(service, server) -> None:
    await server.stop()
    service.close()


async def _run(seed: int, seconds: float, tracer, rate: float) -> RunResult:
    result = RunResult()
    setups: list[float] = []
    speed, setup_speed = HostSpeed(), HostSpeed()

    async def timed_start():
        started = time.perf_counter()
        started_service = await _start()
        setups.append(time.perf_counter() - started)
        setup_speed.burst()
        return started_service

    # Builds beyond the passes' own, so setup_s is a median of
    # SETUP_REPEATS builds.
    for __ in range(SETUP_REPEATS - PASSES):
        service, server, corpus = await timed_start()
        await _stop(service, server)

    # A traced run reports no latency, so it needs no tail.
    need = MIN_LATENCY_SAMPLES if tracer is None else 0
    seen_passes: list[dict] = []
    scales: list[float] = []
    probes: list[AppProbe] = []
    rejected = 0
    for attempt in range(PASSES):
        service, server, corpus = await timed_start()
        if not attempt:
            words = [value for __, value in corpus]
            plan = make_plan(words, seed, seconds, rate, need)
            result.inputs_digest = digest({"corpus": words, **plan})
        engine = service.engine
        memo_before = engine.memo_stats()
        pool_before = engine.verifier_stats()
        try:
            if tracer is not None:
                tracer.install(TARGETS)
                probes.append(AppProbe(tracer))
            mark = len(speed.slices)
            stop = asyncio.Event()
            timing = asyncio.create_task(_time_host(service, speed, stop))
            try:
                seen_passes.append(await _load(
                    {**plan, "port": server.port, "connections": connections()}
                ))
            finally:
                stop.set()
                await timing
                if tracer is not None:
                    tracer.uninstall()
            scales.append(speed.scale(since=mark))
            admission = service.admission.snapshot()
            memo_after = engine.memo_stats()
            pool_after = engine.verifier_stats()
        finally:
            await _stop(service, server)
        rejected += admission["rejected_capacity"] + admission["rejected_overload"]
        if not attempt:
            result.layer.update(memo_layer_figures(memo_delta(memo_before, memo_after)))
            result.layer.update(pool_layer_figures(pool_before, pool_after))

    # Before the checks, which build reference systems of their own.
    result.metrics["peak_rss_mb"] = peak_rss_mb()
    for seen in seen_passes:
        for phase, requests in (
            ("warmup", plan["requests_warmup"]),
            ("phase_a", plan["requests_a"]),
            ("phase_b", plan["requests_b"]),
        ):
            result.attempted += len(seen[phase])
            for record in seen[phase]:
                if record["problem"]:
                    result.fail(f"{requests[record['index']][1]}: {record['problem']}")
    if result.failures:
        return result

    first_a = seen_passes[0]["phase_a"]
    found, total = await _check_sample(
        corpus, plan["requests_a"], [seen["phase_a"] for seen in seen_passes],
        plan["sample"], result,
    )
    result.metrics.update(
        setup_s=statistics.median(setups),
        throughput_ops_s=max(
            len(seen["phase_b"]) / seen["elapsed_b"] / scale
            for seen, scale in zip(seen_passes, scales)
        ),
        messages_per_op=sum(r["messages"] for r in first_a) / len(first_a),
        kbytes_per_op=sum(r["payload_bytes"] for r in first_a) / 1024.0 / len(first_a),
        recall=found / total if total else 1.0,
    )
    result.extra["phase_a_requests"] = (len(first_a), "count")
    result.extra["phase_b_requests"] = (
        sum(len(seen["phase_b"]) for seen in seen_passes), "count"
    )
    result.layer["serve.admission.rejected"] = rejected
    if need:
        # Each request's fastest pass, each pass scaled by its host speed.
        latencies = fastest(
            [[r["latency"] for r in seen["phase_a"]] for seen in seen_passes], scales
        )
        result.metrics["latency_p50_ms"] = percentile(latencies, 0.50) * 1000.0
        result.metrics["latency_p95_ms"] = percentile(latencies, 0.95) * 1000.0
        records = [r for seen in seen_passes for r in seen["phase_a"]]
        result.layer["loadgen.late_p95_ms"] = (
            percentile([r["late"] for r in records], 0.95) * 1000.0
        )
        result.layer["loadgen.conn_wait_p95_ms"] = (
            percentile([r["conn_wait"] for r in records], 0.95) * 1000.0
        )
    if probes:
        result.layer["serve.app.queue_wait_s"] = sum(p.queue_wait_s() for p in probes)
    scale_setup(result, setup_speed)
    record_scales(result, speed, scales, max(
        len(seen["phase_b"]) / seen["elapsed_b"] for seen in seen_passes
    ))
    return result


async def _load(plan: dict) -> dict:
    """Run the load generator process against the server; its report."""
    process = await asyncio.create_subprocess_exec(
        sys.executable,
        "-m",
        "perfbench.loadgen",
        cwd=str(ROOT),
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])},
        stdin=asyncio.subprocess.PIPE,
        stdout=asyncio.subprocess.PIPE,
    )
    try:
        out, __ = await process.communicate(json.dumps(plan).encode())
    finally:
        if process.returncode is None:
            process.kill()
            await process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"load generator exited with {process.returncode}")
    return json.loads(out)


async def _check_sample(corpus, requests, passes, sample, result):
    """Replay the sample in process and compare each pass's phase A
    records with it; returns recall's (found, expected)."""
    service, __ = build_service()
    words = [value for __, value in corpus]
    scans: dict[str, dict[int, int]] = {}
    found = total = 0
    try:
        for index in sample:
            method, path, payload = requests[index]
            response = await service.handle(
                Request(method, path, body=json.dumps(payload).encode())
            )
            lines = []
            if response.stream is not None:
                lines = [json.loads(chunk) async for chunk in response.stream]
            expected = answer_of(path, response.payload or {}, lines)
            for records in passes:
                if records[index]["answer"] != expected:
                    result.fail(
                        f"{path} {payload}: served answer differs from in-process"
                    )
            got = expected
            truth = _truth(path, payload, corpus, words, scans)
            found += len(_members(path, got) & truth)
            total += len(truth)
    finally:
        service.close()
    return found, total


def _truth(path: str, payload: dict, corpus, words, scans) -> frozenset:
    """The complete answer, from a plain scan, in ``_members`` form."""
    if path == "/query/exact":
        return frozenset(oid for oid, value in corpus if value == payload["value"])
    if path == "/query/vql":
        search = payload["text"].split("'")[1]
        bound = 1
    else:
        search = payload["search"]
        bound = payload.get("d", TOP_N_MAX_DISTANCE)
    scan = scans.get(search)
    if scan is None:
        scan = scans[search] = bounded_distances(search, words, TOP_N_MAX_DISTANCE)
    within = sorted(
        (distance, corpus[index][0]) for index, distance in scan.items()
        if distance <= bound
    )
    if path == "/query/vql":
        return frozenset(words[index] for index, d in scan.items() if d <= bound)
    if path in ("/query/topn", "/query/topn/stream"):
        within = within[: payload["n"]]
    return frozenset(oid for __, oid in within)


def _members(path: str, answer) -> frozenset:
    if path == "/query/vql":
        return frozenset(value for row in answer for value in row)
    return frozenset(oid for oid, __ in answer)
