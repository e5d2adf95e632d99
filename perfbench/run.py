"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --serve-rate 35 --workload fig1-bible --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` makes a traced run: the workload runs once untraced and
once with every layer entry point in ``perfbench/layers.py`` wrapped, each
for half of ``--seconds`` on a freshly built system, and reports the
per-layer metrics plus the tracing overhead.  Spans are written to
``perfbench/out/``.

Every metric is printed with its unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every correctness check
passed; without the program's sources (``src/repro``) it is 2 and no
result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def registered(kind: str) -> dict[str, str]:
    """``BENCHMARK.json``'s ``end_to_end`` or ``per_layer`` metrics: name -> unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--serve-rate",
        type=float,
        required=True,
        help="serve-zipf open-loop rate, requests/s; BENCHMARK.json fixes it "
        "at 35, a seventh to a quarter of the service's capacity when the "
        "benchmark was defined (2-vCPU host), and it is never re-derived",
    )
    return parser


def _workloads(args) -> dict:
    from perfbench import fig1, servezipf, writemix

    return {
        "fig1-bible": fig1.run,
        "serve-zipf": lambda seed, seconds, tracer: servezipf.run(
            seed, seconds, tracer, rate=args.serve_rate
        ),
        "write-mix": writemix.run,
    }


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be > 0", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    workloads = _workloads(args)
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads)}",
              file=sys.stderr)
        return 2
    run = workloads[args.workload]

    from perfbench.common import TailTooThin

    try:
        if args.trace:
            metrics, result = _traced(run, args)
        else:
            result = run(args.seed, args.seconds, None)
            metrics = {
                name: {"value": result.metrics[name], "unit": unit}
                for name, unit in registered("end_to_end").items()
                if name in result.metrics  # a run that failed early lacks some
            }
    except TailTooThin as exc:
        print(f"measurement failed: {exc}", file=sys.stderr)
        return 1
    failed = len(result.failures)
    extras = dict(result.extra)
    extras["failed_fraction"] = (failed / max(1, result.attempted), "fraction")
    print(f"workload {args.workload} seed {args.seed} inputs {result.inputs_digest}")
    for name, entry in metrics.items():
        print(f"  {name:46s} {entry['value']:14.6g} {entry['unit']}")
    for name, (value, unit) in extras.items():
        print(f"  {name:46s} {value:14.6g} {unit}  (not registered)")
    for failure in result.failures[:20]:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": not failed,
        "attempted": max(1, result.attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not failed else 1


def _traced(run, args):
    """Untraced then traced half-runs; per-layer metrics with overhead."""
    from perfbench.layers import layer_figures
    from perfbench.spans import Tracer

    half = args.seconds / 2.0
    plain = run(args.seed, half, None)
    tracer = Tracer()
    traced = run(args.seed, half, tracer)
    figures = dict(plain.layer)
    figures.update(traced.layer)
    figures.update(layer_figures(tracer))
    if not (plain.failures or traced.failures):
        figures["trace.overhead"] = (
            plain.metrics["throughput_ops_s"] / traced.metrics["throughput_ops_s"]
        )
    out = ROOT / "perfbench" / "out"
    os.makedirs(out, exist_ok=True)
    spans = tracer.dump(out / f"spans-{args.workload}.bin")
    print(f"wrote {spans} spans to {out}", file=sys.stderr)
    metrics = {
        name: {"value": figures.get(name, 0), "unit": unit}
        for name, unit in registered("per_layer").items()
    }
    traced.failures[:0] = plain.failures
    traced.attempted += plain.attempted
    return metrics, traced


if __name__ == "__main__":
    raise SystemExit(main())
