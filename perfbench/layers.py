"""The traced layers: their entry points and the per-layer metrics.

Each layer is named after the module it lives in.  ``TARGETS`` lists the
public entry points the traced run wraps; ``MOVES`` gives, for every
per-layer metric in ``BENCHMARK.json``, the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

from perfbench.spans import Target


def _count_objects(tracer, args, result) -> None:
    tracer.count("query.operators.fetch_objects.objects", len(result))


def _count_similar(tracer, args, result) -> None:
    # An adaptive call returns the result of the physical call nested in
    # it; count each physical execution once.
    if not result.extras.get("adaptive"):
        tracer.count("similar.candidates", result.candidates_verified)
        tracer.count("similar.matches", len(result.matches))


def _count_verified(tracer, args, result) -> None:
    d = args[0].d
    tracer.count("similarity.verify.candidates", len(result))
    tracer.count(
        "similarity.verify.accepted", sum(1 for v in result.values() if v <= d)
    )


def _count_choice(tracer, args, result) -> None:
    tracer.count(f"query.cost.choices.{result.chosen.value}")


TARGETS = (
    Target("overlay.routing", "repro.overlay.routing:Router", "route"),
    Target("overlay.routing", "repro.overlay.routing:Router", "route_many"),
    Target("overlay.routing", "repro.overlay.routing:Router", "multicast_prefix"),
    Target("overlay.hashing", "repro.overlay.hashing:CompositeKeyCodec", "oid_key"),
    Target("overlay.hashing", "repro.overlay.hashing:CompositeKeyCodec", "value_key"),
    Target(
        "overlay.network.partition_for",
        "repro.overlay.network:PGridNetwork",
        "partition_for",
    ),
    Target(
        "overlay.network.apply_entries",
        "repro.overlay.network:PGridNetwork",
        "apply_entries",
    ),
    Target("overlay.messages", "repro.overlay.messages:MessageTracer", "send"),
    Target("overlay.messages", "repro.overlay.messages:MessageTracer", "send_bulk"),
    *(
        Target("storage.datastore", "repro.storage.datastore:LocalDataStore", name)
        for name in (
            "lookup",
            "prefix_scan",
            "entries_of_kind_prefix",
            "add_bulk",
            "remove",
        )
    ),
    Target("storage.indexing", "repro.storage.indexing:EntryFactory", "entries_for_all"),
    Target(
        "query.operators.fetch_objects",
        "repro.query.operators.base:OperatorContext",
        "fetch_objects",
        _count_objects,
    ),
    Target("query.operators.naive", "repro.query.operators.naive", "naive_similar"),
    Target(
        "query.operators.similar",
        "repro.query.operators.similar",
        "similar",
        _count_similar,
    ),
    Target(
        "query.operators.similar",
        "repro.query.operators.similar:GramScanMemo",
        "candidate_oids",
    ),
    Target(
        "similarity.verify",
        "repro.similarity.verify:BatchVerifier",
        "distances",
        _count_verified,
    ),
    Target("similarity.verify", "repro.similarity.verify:VerifierPool", "get"),
    Target("query.cost", "repro.query.cost:StrategyCostModel", "choose", _count_choice),
    Target("query.vql", "repro.query.parser", "parse"),
    Target("query.vql", "repro.query.planner", "plan"),
    Target("query.vql", "repro.query.executor:Executor", "execute_text"),
    *(
        Target("engine.write.invalidate", owner, "invalidate_partitions")
        for owner in (
            "repro.query.operators.naive:NaiveWorkloadMemo",
            "repro.query.operators.similar:GramScanMemo",
            "repro.query.operators.base:FetchObjectsMemo",
        )
    ),
    Target(
        "engine.write.stats_patch",
        "repro.query.statistics:StatisticsCatalog",
        "apply_triples_delta",
    ),
    Target("serve.http", "repro.serve.http", "read_request"),
    Target("serve.http", "repro.serve.http", "write_response"),
)

#: Per-layer metric -> the end-to-end metric and workload it should move.
#: Names, units and directions live in ``BENCHMARK.json``.
MOVES = {
    "overlay.routing.self_s": "throughput_ops_s on serve-zipf and fig1-bible",
    "overlay.routing.calls": "throughput_ops_s on serve-zipf and fig1-bible",
    "overlay.hashing.self_s": "throughput_ops_s on fig1-bible",
    "overlay.hashing.calls": "throughput_ops_s on fig1-bible",
    "overlay.network.partition_for.self_s": "throughput_ops_s on fig1-bible",
    "overlay.network.partition_for.calls": "throughput_ops_s on fig1-bible",
    "overlay.network.apply_entries.self_s": "write_latency_p50_ms on write-mix",
    "overlay.messages.self_s": "throughput_ops_s on fig1-bible",
    "overlay.messages.calls": "throughput_ops_s on fig1-bible",
    "storage.datastore.self_s": "latency_p95_ms and write_latency_* on write-mix",
    "storage.datastore.calls": "latency_p95_ms and write_latency_* on write-mix",
    "storage.indexing.self_s": "write_latency_p50_ms on write-mix",
    "query.operators.fetch_objects.self_s": "throughput_ops_s on fig1-bible and serve-zipf; write_latency_* on write-mix",
    "query.operators.fetch_objects.calls": "throughput_ops_s on fig1-bible and serve-zipf",
    "query.operators.fetch_objects.objects": "throughput_ops_s on fig1-bible and serve-zipf",
    "memo.fetch.hit_rate": "throughput_ops_s on fig1-bible and serve-zipf",
    "memo.fetch.invalidations": "write_latency_* on write-mix",
    "query.operators.naive.self_s": "throughput_ops_s and latency_p95_ms on fig1-bible; no change on serve-zipf or write-mix",
    "query.operators.naive.calls": "throughput_ops_s and latency_p95_ms on fig1-bible",
    "memo.naive.hit_rate": "throughput_ops_s and latency_p95_ms on fig1-bible",
    "query.operators.similar.self_s": "latency_p50_ms on serve-zipf and write-mix",
    "memo.gram_scan.hit_rate": "latency_p50_ms on serve-zipf and write-mix",
    "query.operators.similar.candidates_per_match": "latency_p50_ms on serve-zipf and write-mix",
    "similarity.verify.self_s": "throughput_ops_s on fig1-bible; no change on write-mix",
    "similarity.verify.candidates": "throughput_ops_s on fig1-bible",
    "similarity.verify.accept_ratio": "throughput_ops_s on fig1-bible",
    "similarity.verify.pool_hit_rate": "latency_p50_ms on serve-zipf",
    "similarity.verify.pool_evictions": "latency_p50_ms on serve-zipf",
    "query.cost.self_s": "latency_p50_ms on serve-zipf",
    "query.cost.calls": "latency_p50_ms on serve-zipf",
    "query.cost.choices.qgrams": "messages_per_op on serve-zipf",
    "query.cost.choices.qsamples": "messages_per_op on serve-zipf",
    "query.cost.choices.strings": "messages_per_op on serve-zipf",
    "query.vql.self_s": "latency_p50_ms on serve-zipf",
    "engine.write.invalidate.self_s": "write_latency_* on write-mix",
    "engine.write.stats_patch.self_s": "write_latency_* on write-mix",
    "serve.http.self_s": "throughput_ops_s on serve-zipf",
    "serve.http.calls": "throughput_ops_s on serve-zipf",
    "serve.app.queue_wait_s": "latency_p95_ms on serve-zipf",
    "serve.admission.rejected": "failed_fraction on serve-zipf",
    "loadgen.late_p95_ms": "none: if it grows, serve-zipf latency is the harness's",
    "loadgen.conn_wait_p95_ms": "none: if it grows, serve-zipf latency is the harness's",
    "trace.overhead": "none: traced over untraced time per operation",
    "trace.uncovered_s": "none: operation time no listed layer covers",
}


def layer_figures(tracer) -> dict[str, float]:
    """Per-layer metrics that come from the spans and hook counters."""
    totals = tracer.layer_totals()
    counters = tracer.counters()
    figures: dict[str, float] = {}
    for name in MOVES:
        layer, __, stat = name.rpartition(".")
        if stat in ("self_s", "calls"):
            figures[name] = totals.get(layer, {}).get(stat, 0)
    figures["query.operators.fetch_objects.objects"] = counters.get(
        "query.operators.fetch_objects.objects", 0
    )
    matches = counters.get("similar.matches", 0)
    figures["query.operators.similar.candidates_per_match"] = (
        counters.get("similar.candidates", 0) / matches if matches else 0.0
    )
    candidates = counters.get("similarity.verify.candidates", 0)
    figures["similarity.verify.candidates"] = candidates
    figures["similarity.verify.accept_ratio"] = (
        counters.get("similarity.verify.accepted", 0) / candidates
        if candidates
        else 0.0
    )
    for strategy in ("qgrams", "qsamples", "strings"):
        key = f"query.cost.choices.{strategy}"
        figures[key] = counters.get(key, 0)
    figures["trace.uncovered_s"] = totals.get("op", {}).get("self_s", 0.0)
    return figures
