"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload {sweep,serve,dense} --seed N \\
        --seconds S --trace {0,1} [--record RUNS.jsonl]

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the workload twice on the same inputs, first plain
(for its wall time) and then with timing wrappers on every layer, and
reports the per-layer metrics, each layer's share of op time, and the
tracing overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; everything above it
is a readable report.  ``--record`` appends the run (with its exact
totals) to a JSONL file for ``perfbench/agree.py``.

Every run stores its exact totals (cells, queries by status, rounds,
messages, set sizes) under ``.perfbench/totals/``; a later run of the
same sources (``src/`` and ``perfbench/``) with the same workload, seed
and length whose totals differ is reported as incorrect.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback

ROOT = os.getcwd()
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))


def _digest(totals):
    return hashlib.sha256(json.dumps(totals, sort_keys=True).encode()).hexdigest()[:16]


def _sources_digest():
    """Digest of the program's and the benchmark's Python sources: exact
    totals are compared only between runs of the same code."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:12]


def _check_totals(state_dir, name, totals):
    """Compare with the totals an earlier run of the same inputs stored;
    returns an error line or None."""
    folder = os.path.join(state_dir, "totals")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, name + ".json")
    if os.path.exists(path):
        with open(path) as handle:
            earlier = json.load(handle)
        if earlier != totals:
            return f"exact totals differ from an earlier run of {name}: {earlier} != {totals}"
        return None
    with open(path, "w") as handle:
        json.dump(totals, handle, sort_keys=True)
    return None


def end_to_end(outcome):
    from perfbench.stats import tail

    latencies_ms = [1000.0 * s for s in outcome.latencies_s]
    p99, beyond, resolved = tail(latencies_ms, 0.99)
    values = {
        "ops_per_s": outcome.throughput,
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p99_ms": p99,
        "setup_s": outcome.setup_s,
        "peak_rss_mb": outcome.peak_rss_mb,
    }
    note = (
        f"latency_p99_ms: {len(latencies_ms)} samples, {beyond} beyond it"
        + ("" if resolved else " (fewer than 10, so this tail is unresolved)")
    )
    return values, note


#: What ``ops_per_s`` counts on each workload.
THROUGHPUT_NAMES = {"sweep": "cells_per_s", "serve": "qps", "dense": "nodes_per_s"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "serve", "dense"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="append the run to this JSONL file")
    # The plain pass of a traced run: prints its wall time and totals.
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    from perfbench import hostspeed, tracing, workloads

    state_dir = os.path.join(ROOT, ".perfbench")
    run_name = f"{args.workload}-seed{args.seed}-s{args.seconds}"
    workload = workloads.WORKLOADS[args.workload]
    lines = [f"perfbench {run_name} trace={args.trace}"]
    errors = []

    def make_pass(**options):
        return workloads.Pass(ROOT, args.seed, args.seconds, state_dir, **options)

    if args.reference:
        reference = workload(make_pass(measure_setup=False, check=False))
        print(json.dumps({"wall_s": reference.wall_s, "totals": reference.totals}))
        return 0
    if args.trace:
        # The plain pass runs in a fresh interpreter of its own, so both
        # passes start equally cold.
        command = [sys.executable, os.path.abspath(__file__), "--reference"] + [
            value for pair in (("--workload", args.workload), ("--seed", str(args.seed)),
                               ("--seconds", str(args.seconds))) for value in pair
        ]
        plain = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                               timeout=150, check=True)
        reference = json.loads(plain.stdout.splitlines()[-1])
        trace_dir = os.path.join(state_dir, "trace", f"{args.workload}-{os.getpid()}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        recorder = tracing.Recorder(trace_dir)
        tracing.install(recorder)
        try:
            outcome = workload(make_pass(measure_setup=False, recorder=recorder))
        finally:
            shutil.rmtree(trace_dir, ignore_errors=True)
        if outcome.totals != reference["totals"]:
            errors.append(f"traced and plain passes differ: {outcome.totals} != {reference['totals']}")
        values = dict(outcome.layer)
        values["trace.overhead_frac"] = outcome.wall_s / reference["wall_s"] - 1.0
        wanted = spec["per_layer"]
        lines.append(
            f"  plain pass {reference['wall_s']:.3f} s, traced pass {outcome.wall_s:.3f} s: "
            f"tracing overhead {100 * values['trace.overhead_frac']:+.1f} %"
        )
        lines.append(f"  share of op time ({values['trace.op_ms']:.3f} ms per op, {outcome.ops} ops):")
        shares = sorted(
            ((values[f"share.{layer}"], layer) for layer in tracing.LAYERS), reverse=True
        )
        for share, layer in shares:
            if share:
                lines.append(f"    {layer:<20} {100 * share:7.2f} %")
        lines.append(f"    {'(sum)':<20} {100 * sum(s for s, _l in shares):7.2f} %")
    else:
        outcome = workload(make_pass())
        values, note = end_to_end(outcome)
        wanted = spec["end_to_end"]
        lines.append(f"  ops_per_s is {THROUGHPUT_NAMES[args.workload]} on this workload")
        lines.append(
            f"  timings are scaled to the reference host speed: host probe median "
            f"{1000 * statistics.median(outcome.probes):.1f} ms over {len(outcome.probes)} "
            f"probes, reference {1000 * hostspeed.PROBE_REF_S:.1f} ms"
        )
        lines.append("  " + note)
        lines.append(
            f"  failed_frac = {outcome.failed / outcome.attempted:.6f} "
            f"({outcome.failed} of {outcome.attempted} ops failed or were wrong)"
        )
    lines.extend("  " + note for note in outcome.notes)
    error = _check_totals(state_dir, f"{run_name}-{_sources_digest()}", outcome.totals)
    if error:
        errors.append(error)
    lines.append(f"  totals {_digest(outcome.totals)}: {json.dumps(outcome.totals, sort_keys=True)[:300]}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        lines.append(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    for error in errors:
        lines.append("  ERROR " + error)
    result = {
        "correct": outcome.failed == 0 and not errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    if args.record:
        with open(args.record, "a") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "totals": _digest(outcome.totals), "result": result,
            }, sort_keys=True) + "\n")
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
