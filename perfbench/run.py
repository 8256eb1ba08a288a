"""Benchmark of the program's ingest and serving paths.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ingest-paper, ingest-stream-light, serve-hot, serve-wide;
``BENCHMARK.json`` declares them, with every metric and its unit.  The
seed makes every input; the program receives only the generated
inputs.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
is a separate run that wraps each layer's public callables in spans
and reports the per-layer metrics, the per-layer table and the trace
overhead.  Every run checks the program's outputs against references
(``reference.json`` for the default seed, earlier runs in this checkout
for other seeds).

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload`` may be repeated: each workload then prints its block and
its own JSON line in turn.
Each run's metadata and figures are also appended to
``.perfbench/results.jsonl``.  ``--record-reference`` rewrites the
recorded references for the given seed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

from common import (
    DEFAULT_SEED, STATE, BenchError, References, declared, metadata, require_program, units,
)


def _print_metrics(title: str, metrics: dict, unit_of: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit_of.get(name, '')}")


def _measure(args, workload: str) -> dict:
    if workload.startswith("ingest"):
        import ingest_wl as module
    else:
        import serve_wl as module
    refs = References(workload, args.seed, record=args.record_reference)
    result = module.run(workload, args.seed, args.seconds, bool(args.trace), refs)
    refs.save()
    if refs.mismatches:
        print("reference mismatches:")
        for line in refs.mismatches:
            print(f"  {line}")
    result["reference_mismatches"] = refs.mismatches
    return result


def _traced_metrics(workload: str, result: dict) -> dict:
    import perlayer
    from summarize import format_table

    if workload.startswith("ingest"):
        metrics, rows, wall = perlayer.ingest(result)
        program = sum(r["program_build_schema_calls"] or 0 for r in result["traced"])
        spans = sum(r["calls"] for r in rows if r["name"] == "schema.build")
        print(f"counter truth: benchmark schema.build calls {spans}"
              f" vs the program's report.stats build_schema count {program}"
              + ("" if spans == program else "  (disagree: known defect, not gated)"))
    else:
        metrics, rows, wall = perlayer.serve(result)
    print("per-layer table (self time as a share of the traced wall):")
    print(format_table(rows, wall))
    print(f"trace overhead: {metrics['bench.trace_overhead_ratio']:.3f}x"
          " (traced vs untraced cost of the same work)")
    return metrics


def run_one(args, workload: str) -> int:
    """Run one workload; print its figures, then its JSON result line."""
    try:
        require_program()
        meta = metadata(workload, args.seed, args.seconds, bool(args.trace))
        print("# " + json.dumps(meta, sort_keys=True))
        started = time.perf_counter()
        result = _measure(args, workload)
        if args.trace:
            metrics = _traced_metrics(workload, result)
        else:
            metrics = result["end_to_end"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        if not args.keep:
            shutil.rmtree(STATE / "runs", ignore_errors=True)

    unit_of = units()
    _print_metrics("metrics:", metrics, unit_of)
    _print_metrics("context:", {k: v for k, v in result["info"].items()
                                if isinstance(v, (int, float))}, unit_of)
    if result.get("problems"):
        print(f"failures: {result['problems']}")
    correct = result["failed"] == 0 and not result["reference_mismatches"]
    record = {
        "meta": meta,
        "wall_s": time.perf_counter() - started,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "info": result["info"],
    }
    STATE.mkdir(exist_ok=True)
    with open(STATE / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": value, "unit": unit_of[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        workloads = [w["name"] for w in declared()["workloads"]]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, action="append", choices=workloads,
                        help="repeat to run several workloads, one after another")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=14)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--keep", action="store_true",
                        help="keep the run's stores and traces under .perfbench/runs")
    args = parser.parse_args(argv)
    for workload in args.workload:
        code = run_one(args, workload)
        if code:
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
