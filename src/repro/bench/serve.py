"""Open-loop load harness for the service layer.

Drives :class:`~repro.serve.app.QueryService` with a zipfian query mix
at a configured arrival rate and reports the numbers a service owner
tracks: sustained QPS, p50/p95/p99 latency, admission rejections, and
per-strategy cost totals.  **Open loop**: arrivals follow a seeded
Poisson process and are fired whether or not earlier requests finished,
so saturation shows up as queueing latency and 429s instead of the
generator politely slowing down (closed-loop coordination omission).

The query mix is zipf-distributed over the prepared corpus strings
(rank ``r`` drawn with probability ∝ ``1/r**s``) across six request
shapes: similarity probes at ``d = 1`` and ``d = 2`` (strategy itself
mixed across adaptive / qgrams / qsamples), top-N, streaming top-N,
exact selection, and a VQL round trip.

Two transports exercise the same application object:

* **in-process** (default) — ``await service.handle(request)``; no
  sockets, measures the engine + admission path alone;
* ``--http`` — boots the real asyncio server on a loopback port and
  drives it through :class:`~repro.serve.client.HttpClient` keep-alive
  connections, one per in-flight request; measures the full wire path.

``python -m repro.bench.serve --json-dir benchmarks`` writes the
committed ``BENCH_serve.json`` baseline (schema ``repro-bench-serve/v1``;
see ``benchmarks/README.md``).  The workload sequence is seeded and
reproducible; wall-clock figures (latency, QPS) naturally are not.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass

from repro.serve.app import QueryService, Request
from repro.serve.client import HttpClient
from repro.serve.http import ServiceServer

#: Schema tag embedded in ``BENCH_serve.json``.
SERVE_SCHEMA = "repro-bench-serve/v1"

#: Default scale (the committed baseline).
DEFAULT_WORDS = 1_200
DEFAULT_PEERS = 64
DEFAULT_RATE = 40.0
DEFAULT_DURATION = 15.0
DEFAULT_MAX_INFLIGHT = 8
DEFAULT_COST_BUDGET = 600.0

#: Zipf exponent for the search-string popularity distribution.
ZIPF_EXPONENT = 1.1

#: Request-shape mix: (kind, cumulative probability).
KIND_MIX = (
    ("similar_d1", 0.30),
    ("similar_d2", 0.45),
    ("topn", 0.60),
    ("topn_stream", 0.70),
    ("exact", 0.90),
    ("vql", 1.00),
)

#: Similarity-strategy mix within similar/top-N requests.
STRATEGY_MIX = (
    ("adaptive", 0.50),
    ("qgrams", 0.80),
    ("qsamples", 1.00),
)

#: Seconds allowed for in-flight requests to drain after the last arrival.
DRAIN_TIMEOUT = 60.0


@dataclass(frozen=True)
class PlannedRequest:
    """One arrival: where it goes and how it is labelled in the report."""

    kind: str
    method: str
    path: str
    payload: dict
    strategy: str  # report label: similarity strategy or the kind itself


def zipf_sampler(strings: list[str], rng: random.Random):
    """Draw strings with zipfian popularity (rank = sorted position)."""
    weights = [1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, len(strings) + 1)]
    cumulative = []
    total = 0.0
    for weight in weights:
        total += weight
        cumulative.append(total)

    def draw() -> str:
        target = rng.random() * total
        low, high = 0, len(cumulative) - 1
        while low < high:
            mid = (low + high) // 2
            if cumulative[mid] < target:
                low = mid + 1
            else:
                high = mid
        return strings[low]

    return draw


def plan_request(
    rng: random.Random, draw_string, attribute: str
) -> PlannedRequest:
    """One arrival of the mix (seeded; the sequence is reproducible)."""
    roll = rng.random()
    kind = next(name for name, cutoff in KIND_MIX if roll <= cutoff)
    search = draw_string()
    if kind in ("similar_d1", "similar_d2"):
        strategy_roll = rng.random()
        strategy = next(
            name for name, cutoff in STRATEGY_MIX if strategy_roll <= cutoff
        )
        d = 1 if kind == "similar_d1" else 2
        return PlannedRequest(
            kind,
            "POST",
            "/query/similar",
            {"search": search, "attribute": attribute, "d": d,
             "strategy": strategy},
            strategy,
        )
    if kind in ("topn", "topn_stream"):
        strategy_roll = rng.random()
        strategy = next(
            name for name, cutoff in STRATEGY_MIX if strategy_roll <= cutoff
        )
        path = "/query/topn" if kind == "topn" else "/query/topn/stream"
        return PlannedRequest(
            kind,
            "POST",
            path,
            {"attribute": attribute, "search": search,
             "n": rng.choice((5, 10)), "max_distance": 3,
             "strategy": strategy},
            strategy,
        )
    if kind == "exact":
        return PlannedRequest(
            kind,
            "POST",
            "/query/exact",
            {"attribute": attribute, "value": search},
            "exact",
        )
    return PlannedRequest(
        "vql",
        "POST",
        "/query/vql",
        {"text": f"SELECT ?w WHERE {{ (?o,{attribute},?w) "
                 f"FILTER (dist(?w,'{search}') <= 1) }}"},
        "vql",
    )


# -- transports ----------------------------------------------------------------


@dataclass
class Outcome:
    """What one fired request produced, transport-independent."""

    status: int
    cost_messages: int = 0
    cost_bytes: int = 0
    partial: bool = False
    retry_after: int = 0


class InProcessTransport:
    """Drive the application object directly (no sockets)."""

    def __init__(self, service: QueryService):
        self.service = service

    async def fire(self, planned: PlannedRequest) -> Outcome:
        request = Request(
            planned.method,
            planned.path,
            body=json.dumps(planned.payload).encode(),
        )
        response = await self.service.handle(request)
        if response.stream is not None:
            summary: dict = {}
            async for chunk in response.stream:
                line = json.loads(chunk)
                if line.get("done"):
                    summary = line
            return _outcome_from_payload(response.status, summary)
        return _outcome_from_payload(
            response.status, response.payload or {},
            response.headers.get("Retry-After"),
        )

    async def stats(self) -> dict:
        response = await self.service.handle(Request("GET", "/stats"))
        return response.payload or {}

    async def close(self) -> None:
        return None


class HttpTransport:
    """Drive a live server, one keep-alive connection per in-flight request.

    A request takes an idle connection when one is free and opens a new
    one otherwise, so no request ever waits on the client side: every
    in-flight request reaches the server, where admission sees it, and
    the latency :func:`run_load` records is the server's, not a wait for
    a pooled connection (coordinated omission).
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._idle: list[HttpClient] = []
        #: Every connection this transport opened, idle or busy.
        self.clients: list[HttpClient] = []

    async def _request(
        self, method: str, path: str, payload: dict | None = None
    ):
        if self._idle:
            client = self._idle.pop()
        else:
            client = HttpClient(self.host, self.port)
            self.clients.append(client)
        try:
            return await client.request(method, path, payload)
        finally:
            self._idle.append(client)

    async def fire(self, planned: PlannedRequest) -> Outcome:
        reply = await self._request(
            planned.method, planned.path, planned.payload
        )
        if reply.lines:
            summary = next(
                (line for line in reply.lines if line.get("done")), {}
            )
            return _outcome_from_payload(reply.status, summary)
        return _outcome_from_payload(
            reply.status, reply.json(), reply.headers.get("retry-after")
        )

    async def stats(self) -> dict:
        return (await self._request("GET", "/stats")).json()

    async def close(self) -> None:
        for client in self.clients:
            await client.close()


def _outcome_from_payload(
    status: int, payload: dict, retry_after=None
) -> Outcome:
    cost = payload.get("cost") or {}
    return Outcome(
        status=status,
        cost_messages=int(cost.get("messages", 0)),
        cost_bytes=int(cost.get("payload_bytes", 0)),
        partial=bool(payload.get("partial")),
        retry_after=int(retry_after or payload.get("retry_after") or 0),
    )


# -- the open loop -------------------------------------------------------------


@dataclass
class CompletedRequest:
    kind: str
    strategy: str
    status: int
    latency_seconds: float
    finished_at: float  # seconds since load start
    cost_messages: int
    cost_bytes: int


async def run_load(
    transport,
    strings: list[str],
    attribute: str,
    rate: float,
    duration: float,
    seed: int,
    progress=None,
) -> tuple[list[CompletedRequest], int]:
    """Fire the open-loop workload; returns (records, offered count)."""
    rng = random.Random(seed + 17)
    draw_string = zipf_sampler(sorted(set(strings)), rng)
    records: list[CompletedRequest] = []
    tasks: list[asyncio.Task] = []
    started = time.perf_counter()
    offered = 0

    async def fire(planned: PlannedRequest) -> None:
        begun = time.perf_counter()
        try:
            outcome = await transport.fire(planned)
        except Exception:
            outcome = Outcome(status=599)
        now = time.perf_counter()
        records.append(
            CompletedRequest(
                kind=planned.kind,
                strategy=planned.strategy,
                status=outcome.status,
                latency_seconds=now - begun,
                finished_at=now - started,
                cost_messages=outcome.cost_messages,
                cost_bytes=outcome.cost_bytes,
            )
        )

    next_arrival = rng.expovariate(rate)
    while next_arrival < duration:
        delay = started + next_arrival - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        planned = plan_request(rng, draw_string, attribute)
        tasks.append(asyncio.create_task(fire(planned)))
        offered += 1
        next_arrival += rng.expovariate(rate)
    if progress is not None:
        progress(f"offered {offered} requests, draining in-flight work")
    if tasks:
        await asyncio.wait_for(asyncio.gather(*tasks), DRAIN_TIMEOUT)
    return records, offered


# -- reporting -----------------------------------------------------------------


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (empty -> 0)."""
    if not sorted_values:
        return 0.0
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[index]


def _latency_summary(latencies_ms: list[float]) -> dict:
    ordered = sorted(latencies_ms)
    return {
        "p50": round(percentile(ordered, 0.50), 3),
        "p95": round(percentile(ordered, 0.95), 3),
        "p99": round(percentile(ordered, 0.99), 3),
        "mean": round(sum(ordered) / len(ordered), 3) if ordered else 0.0,
        "max": round(ordered[-1], 3) if ordered else 0.0,
    }


def summarize(
    records: list[CompletedRequest], offered: int, admission: dict
) -> dict:
    """The ``results`` block of ``BENCH_serve.json``."""
    ok = [r for r in records if r.status in (200, 206)]
    rejected = [r for r in records if r.status == 429]
    errors = [r for r in records if r.status not in (200, 206, 429)]
    elapsed = max((r.finished_at for r in records), default=0.0)

    by_kind: dict[str, list[float]] = {}
    for record in ok:
        by_kind.setdefault(record.kind, []).append(
            record.latency_seconds * 1000.0
        )
    per_strategy: dict[str, dict] = {}
    for record in ok:
        bucket = per_strategy.setdefault(
            record.strategy,
            {"queries": 0, "messages": 0, "payload_bytes": 0},
        )
        bucket["queries"] += 1
        bucket["messages"] += record.cost_messages
        bucket["payload_bytes"] += record.cost_bytes

    timeline = [0] * (int(math.ceil(elapsed)) or 1)
    for record in ok:
        timeline[min(len(timeline) - 1, int(record.finished_at))] += 1

    return {
        "offered": offered,
        "completed": len(ok),
        "partial": sum(1 for r in ok if r.status == 206),
        "rejected": len(rejected),
        "errors": len(errors),
        "elapsed_seconds": round(elapsed, 3),
        "sustained_qps": round(len(ok) / elapsed, 2) if elapsed else 0.0,
        "latency_ms": _latency_summary(
            [r.latency_seconds * 1000.0 for r in ok]
        ),
        "latency_ms_by_kind": {
            kind: {"count": len(values), **_latency_summary(values)}
            for kind, values in sorted(by_kind.items())
        },
        "qps_timeline": timeline,
        "rejected_by_kind": dict(
            sorted(Counter(r.kind for r in rejected).items())
        ),
        "per_strategy_cost": dict(sorted(per_strategy.items())),
        "admission": admission,
    }


# -- entry point ---------------------------------------------------------------


async def run_serve_bench(
    words: int = DEFAULT_WORDS,
    peers: int = DEFAULT_PEERS,
    rate: float = DEFAULT_RATE,
    duration: float = DEFAULT_DURATION,
    seed: int = 0,
    http: bool = False,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    cost_budget: float = DEFAULT_COST_BUDGET,
    progress=None,
) -> dict:
    """Build the service, run the load, return the JSON payload."""
    from repro.datasets.bible import TEXT_ATTRIBUTE
    from repro.serve.__main__ import build_service

    if progress is not None:
        progress(f"building service: {words} words on {peers} peers")
    with build_service(
        peers, words, seed, "adaptive", max_inflight, cost_budget
    ) as service:
        # The corpus strings come back out of the dataset generator, not
        # the network: the same (count, seed) pair reproduces them.
        from repro.datasets.bible import bible_triples

        strings = [str(t.value) for t in bible_triples(words, seed=seed)]
        server = None
        if http:
            server = ServiceServer(service, "127.0.0.1", 0)
            await server.start()
            transport = HttpTransport("127.0.0.1", server.port)
        else:
            transport = InProcessTransport(service)
        if progress is not None:
            transport_name = (
                f"http://127.0.0.1:{server.port}" if http else "in-process"
            )
            progress(
                f"load: rate={rate}/s duration={duration}s "
                f"({transport_name})"
            )
        try:
            records, offered = await run_load(
                transport,
                strings,
                TEXT_ATTRIBUTE,
                rate,
                duration,
                seed,
                progress,
            )
            stats = await transport.stats()
        finally:
            await transport.close()
            if server is not None:
                await server.stop()
    return {
        "schema": SERVE_SCHEMA,
        "kind": "serve_bench",
        "generated_by": "python -m repro.bench.serve --json-dir benchmarks",
        "scale": {
            "words": words,
            "peers": peers,
            "rate": rate,
            "duration_seconds": duration,
            "seed": seed,
            "transport": "http" if http else "inprocess",
            "max_inflight": max_inflight,
            "cost_budget": cost_budget,
        },
        "results": summarize(
            records, offered, stats.get("admission", {})
        ),
    }


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.serve",
        description="Open-loop load benchmark for the query service.",
    )
    parser.add_argument("--words", type=int, default=DEFAULT_WORDS)
    parser.add_argument("--peers", type=int, default=DEFAULT_PEERS)
    parser.add_argument(
        "--rate", type=float, default=DEFAULT_RATE,
        help="mean arrival rate, requests/second (Poisson)",
    )
    parser.add_argument(
        "--duration", type=float, default=DEFAULT_DURATION,
        help="seconds of open-loop arrivals",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--http", action="store_true",
        help="boot the asyncio HTTP server and drive it over loopback "
             "sockets (default: in-process)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=DEFAULT_MAX_INFLIGHT,
        help="admission capacity (in-flight queries)",
    )
    parser.add_argument(
        "--cost-budget", type=float, default=DEFAULT_COST_BUDGET,
        help="admission budget in outstanding predicted messages (0 = off)",
    )
    parser.add_argument(
        "--json-dir",
        help="write BENCH_serve.json into this directory",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.rate <= 0 or args.duration <= 0:
        print("--rate and --duration must be > 0", file=sys.stderr)
        return 2

    def progress(message: str) -> None:
        print(f"  [{time.strftime('%H:%M:%S')}] {message}", file=sys.stderr)

    payload = asyncio.run(
        run_serve_bench(
            words=args.words,
            peers=args.peers,
            rate=args.rate,
            duration=args.duration,
            seed=args.seed,
            http=args.http,
            max_inflight=args.max_inflight,
            cost_budget=args.cost_budget,
            progress=progress,
        )
    )
    results = payload["results"]
    print(
        f"offered {results['offered']}, completed {results['completed']} "
        f"({results['partial']} partial), rejected {results['rejected']}, "
        f"errors {results['errors']}"
    )
    print(
        f"sustained {results['sustained_qps']} qps; latency ms "
        f"p50={results['latency_ms']['p50']} "
        f"p95={results['latency_ms']['p95']} "
        f"p99={results['latency_ms']['p99']}"
    )
    if args.json_dir:
        os.makedirs(args.json_dir, exist_ok=True)
        path = os.path.join(args.json_dir, "BENCH_serve.json")
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0 if not results["errors"] else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
