"""Load generator for `repro serve` (docs/service.md).

Drives a running server with concurrent keep-alive queries in two
phases — a *cold* pass touching every distinct cell once, then a
*warm* pass cycling the same cells through the result cache — and
prints the throughput report.  The CI ``serve-smoke`` job and manual
capacity checks use this; serve throughput is benchmarked by perfbench's
``serve`` workload.

Usage::

    PYTHONPATH=src python benchmarks/serve_load.py \\
        --port 8673 --spec tree:n=16 --distinct 8 \\
        --total 1000 --concurrency 100 --json

Exit status is non-zero when any request failed.
"""

import argparse
import json
import sys

from repro.serve import query_body, run_load


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="drive a running `repro serve` with concurrent "
                    "cold + warm queries"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8673)
    parser.add_argument("--workload", default="kdom")
    parser.add_argument("--spec", default="tree:n=16",
                        help="graph spec every query uses "
                             "(default: tree:n=16)")
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--distinct", type=int, default=8,
                        help="distinct cells (seeds 0..N-1); the cold "
                             "phase computes each once")
    parser.add_argument("--total", type=int, default=1000,
                        help="warm-phase queries cycled over the "
                             "distinct cells (default: 1000)")
    parser.add_argument("--concurrency", type=int, default=100,
                        help="concurrent keep-alive connections "
                             "(default: 100)")
    parser.add_argument("--json", action="store_true",
                        help="print the report as JSON instead of text")
    args = parser.parse_args(argv)

    bodies = [
        query_body(args.workload, args.spec, seed, args.k)
        for seed in range(args.distinct)
    ]
    cold = run_load(
        args.host, args.port, bodies,
        concurrency=min(args.concurrency, args.distinct),
    )
    warm = run_load(
        args.host, args.port,
        [bodies[i % args.distinct] for i in range(args.total)],
        concurrency=args.concurrency,
    )
    report = {"distinct_cells": args.distinct, "cold": cold, "warm": warm}
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for phase in ("cold", "warm"):
            stats = report[phase]
            print(
                f"{phase}: {stats['requests']} queries in "
                f"{stats['seconds']:.3f}s = {stats['qps']:.0f} q/s "
                f"(errors {stats['errors']}, "
                f"p95 {stats['latency_p95_ms']:.1f}ms)"
            )
    return 1 if (cold["errors"] or warm["errors"]) else 0


if __name__ == "__main__":
    sys.exit(main())
